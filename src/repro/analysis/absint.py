"""Stack-symbolic abstract interpretation over EVM bytecode.

A small constant/taint lattice evaluated per basic block over a
:class:`~repro.analysis.cfg.CFG` and the linear disassembly it carries.
Abstract values are plain tuples:

* ``("const", v)`` — the exact 256-bit constant ``v`` (PUSH immediates and
  anything folded from them),
* ``("calldata", off)`` — the word loaded from calldata at constant offset
  ``off`` (implicitly calldata-tainted),
* ``("unk", tags)`` — anything else, carrying a frozenset of taint tags:
  the strings ``"calldata"``, ``"caller"``, ``"origin"``, ``"callvalue"``,
  ``"balance"``, ``"block"``, ``"callres"``, ``"sha3"`` plus ``("slot", k)``
  pairs for values read from constant storage slot ``k``.

The interpreter runs a worklist to a fixpoint with element-wise stack join
and a per-block visit cap (past the cap, incoming constants are widened to
their taint form, which makes the lattice finite).  Facts accumulate
monotonically across visits: the compare-constant harvest, SLOAD/SSTORE
slot resolution, per-:class:`~repro.oracles.base.BugClass` candidate pcs,
and CALL-family value/target facts.

**These facts are heuristic guidance, never proofs.**  Everything with a
soundness obligation (oracle pruning) lives in
:mod:`repro.analysis.surface` and relies only on whole-code opcode absence
over the linear disassembly.  In a campaign the facts here feed only the
mutation dictionary, where a missed or spurious fact costs throughput,
not findings; the rest is reported by ``repro analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG
from repro.evm.opcodes import OPCODE_INFO, Op, is_dup, is_push, is_swap

_U256 = (1 << 256) - 1

#: opcodes whose result carries block-environment taint
_BLOCK_OPS = frozenset({Op.TIMESTAMP, Op.NUMBER, Op.COINBASE,
                        Op.DIFFICULTY, Op.GASLIMIT, Op.BLOCKHASH})

#: per-block revisit cap before widening kicks in
_VISIT_LIMIT = 8

#: stack depth cap — MiniSol output stays far below this; it bounds work on
#: adversarial raw bytecode
_STACK_LIMIT = 128

_EMPTY = frozenset()
_UNK = ("unk", _EMPTY)


def _unk(tags: frozenset = _EMPTY) -> tuple:
    return _UNK if not tags else ("unk", tags)


def tags_of(value: tuple) -> frozenset:
    """Taint tags carried by an abstract value."""
    kind = value[0]
    if kind == "const":
        return _EMPTY
    if kind == "calldata":
        return _CALLDATA_TAGS
    return value[1]


_CALLDATA_TAGS = frozenset({"calldata"})


def join_values(a: tuple, b: tuple) -> tuple:
    """Least upper bound of two abstract values."""
    if a == b:
        return a
    return _unk(tags_of(a) | tags_of(b))


def _widen(value: tuple) -> tuple:
    """Drop the constant component, keeping only taint (finite lattice)."""
    if value[0] == "unk":
        return value
    return _unk(tags_of(value))


@dataclass(frozen=True)
class AbsState:
    """Abstract machine state at a block boundary."""

    stack: tuple = ()
    #: coarse one-cell summary of everything MSTOREd so far — MLOAD/SHA3
    #: results carry this union (precise enough for taint, cheap to join)
    mem_tags: frozenset = _EMPTY

    def join(self, other: "AbsState") -> "AbsState":
        a, b = self.stack, other.stack
        if len(a) != len(b):
            # Align from the top of the stack; pad the shorter one with
            # unknowns at the bottom (differing heights only arise on
            # irregular raw bytecode, never on compiler output).
            if len(a) < len(b):
                a = (_UNK,) * (len(b) - len(a)) + a
            else:
                b = (_UNK,) * (len(a) - len(b)) + b
        stack = tuple(join_values(x, y) for x, y in zip(a, b))
        return AbsState(stack=stack, mem_tags=self.mem_tags | other.mem_tags)

    def widened(self) -> "AbsState":
        return AbsState(stack=tuple(_widen(v) for v in self.stack),
                        mem_tags=self.mem_tags)


@dataclass
class CallFact:
    """One CALL/DELEGATECALL site with whatever resolved statically."""

    pc: int
    op: str                       # "call" | "delegatecall"
    value: int | None = None      # constant call value when resolved
    value_tags: tuple = ()        # sorted taint tags on the value word
    target: int | None = None     # constant target address when resolved
    target_tags: tuple = ()       # sorted taint tags on the target word
    gas: int | None = None        # constant forwarded gas when resolved

    def to_dict(self) -> dict:
        return {"pc": self.pc, "op": self.op, "value": self.value,
                "value_tags": list(self.value_tags),
                "target": self.target,
                "target_tags": list(self.target_tags), "gas": self.gas}


@dataclass
class AbstractFacts:
    """Everything one abstract-interpretation pass harvested."""

    #: constants compared against tainted operands (mutation dictionary)
    compare_constants: set = field(default_factory=set)
    #: SLOAD pc -> constant slot (None when the slot is computed)
    storage_reads: dict = field(default_factory=dict)
    #: SSTORE pc -> constant slot (None when the slot is computed)
    storage_writes: dict = field(default_factory=dict)
    #: BugClass value -> set of candidate pcs
    candidates: dict = field(default_factory=dict)
    #: CALL-family sites, keyed by pc (facts refine monotonically)
    calls: dict = field(default_factory=dict)

    def add_candidate(self, bug_class: str, pc: int) -> None:
        self.candidates.setdefault(bug_class, set()).add(pc)


def interpret(cfg: CFG) -> AbstractFacts:
    """Run the abstract interpreter over ``cfg`` and return its facts."""
    facts = AbstractFacts()
    if not cfg.blocks:
        return facts

    entry = min(cfg.blocks)
    in_states: dict[int, AbsState] = {entry: AbsState()}
    visits: dict[int, int] = {}
    work = [entry]
    while work:
        start = work.pop()
        state = in_states.get(start)
        if state is None:
            continue
        count = visits.get(start, 0) + 1
        visits[start] = count
        if count > _VISIT_LIMIT:
            if count > _VISIT_LIMIT + 1:
                continue
            state = state.widened()
        block = cfg.blocks[start]
        out = _transfer(block, state, facts)
        for succ in block.successors:
            known = in_states.get(succ)
            joined = out if known is None else known.join(out)
            if known is None or joined != known:
                in_states[succ] = joined
                work.append(succ)
    return facts


def transfer_block(block, state: AbsState | None = None,
                   facts: AbstractFacts | None = None) -> AbsState:
    """Abstractly execute one basic block (exposed for property tests)."""
    return _transfer(block, state or AbsState(), facts or AbstractFacts())


def _transfer(block, state: AbsState, facts: AbstractFacts) -> AbsState:
    stack = list(state.stack)
    mem_tags = state.mem_tags

    def pop() -> tuple:
        return stack.pop() if stack else _UNK

    def push(value: tuple) -> None:
        if len(stack) < _STACK_LIMIT:
            stack.append(value)

    for ins in block.instructions:
        op = ins.opcode
        pc = ins.pc

        if is_push(op):
            push(("const", ins.operand))
            continue
        if is_dup(op):
            n = op - 0x80 + 1
            push(stack[-n] if len(stack) >= n else _UNK)
            continue
        if is_swap(op):
            n = op - 0x90 + 1
            if len(stack) >= n + 1:
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            continue

        if op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.EXP,
                  Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR):
            a, b = pop(), pop()
            if op in (Op.ADD, Op.SUB, Op.MUL):
                operand_tags = tags_of(a) | tags_of(b)
                if operand_tags:
                    facts.add_candidate("IO", pc)
            push(fold_binary(op, a, b))
            continue

        if op in (Op.LT, Op.GT, Op.SLT, Op.SGT, Op.EQ):
            a, b = pop(), pop()
            _harvest_compare(facts, a, b)
            if op == Op.EQ and "balance" in tags_of(a) | tags_of(b):
                facts.add_candidate("SE", pc)
            if "origin" in tags_of(a) | tags_of(b):
                facts.add_candidate("TO", pc)
            push(fold_binary(op, a, b))
            continue

        if op == Op.ISZERO:
            a = pop()
            if a[0] == "const":
                push(("const", 0 if a[1] else 1))
            else:
                push(_unk(tags_of(a)))
            continue
        if op == Op.NOT:
            a = pop()
            if a[0] == "const":
                push(("const", a[1] ^ _U256))
            else:
                push(_unk(tags_of(a)))
            continue

        if op == Op.CALLDATALOAD:
            off = pop()
            if off[0] == "const":
                push(("calldata", off[1]))
            else:
                push(_unk(tags_of(off) | _CALLDATA_TAGS))
            continue
        if op == Op.CALLDATASIZE:
            # distinct tag: size guards are dispatcher plumbing, and their
            # comparison constants (32, 64, ...) are dictionary noise
            push(_unk(frozenset({"calldatasize"})))
            continue
        if op == Op.CALLER:
            push(_unk(frozenset({"caller"})))
            continue
        if op == Op.ORIGIN:
            facts.add_candidate("TO", pc)
            push(_unk(frozenset({"origin"})))
            continue
        if op == Op.CALLVALUE:
            facts.add_candidate("EF", pc)
            push(_unk(frozenset({"callvalue"})))
            continue
        if op == Op.BALANCE:
            pop()
            facts.add_candidate("SE", pc)
            push(_unk(frozenset({"balance"})))
            continue
        if op in _BLOCK_OPS:
            if op == Op.BLOCKHASH:
                pop()
            facts.add_candidate("BD", pc)
            push(_unk(frozenset({"block"})))
            continue

        if op == Op.SLOAD:
            slot = pop()
            if slot[0] == "const":
                facts.storage_reads[pc] = slot[1]
                push(_unk(frozenset({("slot", slot[1])})))
            else:
                facts.storage_reads[pc] = None
                push(_unk(tags_of(slot)))
            continue
        if op == Op.SSTORE:
            slot = pop()
            pop()  # the stored value
            if slot[0] == "const":
                facts.storage_writes[pc] = slot[1]
            else:
                facts.storage_writes[pc] = None
            continue

        if op == Op.MLOAD:
            pop()
            push(_unk(mem_tags))
            continue
        if op in (Op.MSTORE, Op.MSTORE8):
            pop()
            value = pop()
            mem_tags = mem_tags | tags_of(value)
            continue
        if op == Op.SHA3:
            pop(), pop()
            push(_unk(mem_tags | frozenset({"sha3"})))
            continue

        if op == Op.JUMP:
            pop()
            continue
        if op == Op.JUMPI:
            pop()  # target (statically resolved by the CFG)
            if "block" in tags_of(pop()):
                facts.add_candidate("BD", pc)
            continue

        if op == Op.CALL:
            gas, to, value = pop(), pop(), pop()
            pop(), pop(), pop(), pop()
            facts.add_candidate("RE", pc)
            facts.add_candidate("UE", pc)
            facts.calls[pc] = _call_fact(pc, "call", gas, to, value)
            push(_unk(frozenset({"callres"})))
            continue
        if op == Op.DELEGATECALL:
            gas, to = pop(), pop()
            pop(), pop(), pop(), pop()
            facts.add_candidate("UD", pc)
            facts.calls[pc] = _call_fact(pc, "delegatecall", gas, to, None)
            push(_unk(frozenset({"callres"})))
            continue
        if op == Op.SELFDESTRUCT:
            pop()
            facts.add_candidate("US", pc)
            continue

        if op == Op.PC:
            push(("const", pc))
            continue

        # Generic fallback: honour the documented stack arity, push
        # untainted unknowns (ADDRESS, GAS, CREATE, LOG*, terminators, ...).
        info = OPCODE_INFO.get(op)
        if info is not None:
            consumed = []
            for _ in range(info.pops):
                consumed.append(pop())
            for _ in range(info.pushes):
                push(_UNK)
    return AbsState(stack=tuple(stack), mem_tags=mem_tags)


def fold_binary(op: int, a: tuple, b: tuple) -> tuple:
    """Constant-fold a binary op (EVM operand order: ``a`` is stack top).

    Public: the block-fusion compiler (:mod:`repro.evm.fusion`) folds
    adjacent PUSH/op pairs with exactly these value semantics, so the
    abstract interpreter and the fused interpreter can never disagree on
    what a constant expression evaluates to."""
    if a[0] == "const" and b[0] == "const":
        x, y = a[1], b[1]
        if op == Op.ADD:
            return ("const", (x + y) & _U256)
        if op == Op.SUB:
            return ("const", (x - y) & _U256)
        if op == Op.MUL:
            return ("const", (x * y) & _U256)
        if op == Op.DIV:
            return ("const", x // y if y else 0)
        if op == Op.MOD:
            return ("const", x % y if y else 0)
        if op == Op.EXP:
            return ("const", pow(x, y, 1 << 256))
        if op == Op.AND:
            return ("const", x & y)
        if op == Op.OR:
            return ("const", x | y)
        if op == Op.XOR:
            return ("const", x ^ y)
        if op == Op.SHL:
            return ("const", (y << x) & _U256 if x < 256 else 0)
        if op == Op.SHR:
            return ("const", y >> x if x < 256 else 0)
        if op == Op.LT:
            return ("const", 1 if x < y else 0)
        if op == Op.GT:
            return ("const", 1 if x > y else 0)
        if op in (Op.SLT, Op.SGT):
            sx = x - (1 << 256) if x >> 255 else x
            sy = y - (1 << 256) if y >> 255 else y
            if op == Op.SLT:
                return ("const", 1 if sx < sy else 0)
            return ("const", 1 if sx > sy else 0)
        if op == Op.EQ:
            return ("const", 1 if x == y else 0)
    return _unk(tags_of(a) | tags_of(b))


_SIZE_TAGS = frozenset({"calldatasize"})


def _harvest_compare(facts: AbstractFacts, a: tuple, b: tuple) -> None:
    """Record constants compared against tainted values — the guard
    thresholds a fuzzer must hit exactly to flip the comparison.  Pure
    calldata-*size* guards are skipped: their thresholds are word widths,
    not input values."""
    for const, other in ((a, b), (b, a)):
        if const[0] == "const":
            tags = tags_of(other)
            if tags and not tags <= _SIZE_TAGS:
                facts.compare_constants.add(const[1])


def _call_fact(pc: int, op: str, gas: tuple, to: tuple,
               value: tuple | None) -> CallFact:
    fact = CallFact(pc=pc, op=op)
    if gas[0] == "const":
        fact.gas = gas[1]
    if to[0] == "const":
        fact.target = to[1]
    else:
        fact.target_tags = tuple(sorted(
            t if isinstance(t, str) else f"slot{t[1]}" for t in tags_of(to)))
    if value is not None:
        if value[0] == "const":
            fact.value = value[1]
        else:
            fact.value_tags = tuple(sorted(
                t if isinstance(t, str) else f"slot{t[1]}"
                for t in tags_of(value)))
    return fact
