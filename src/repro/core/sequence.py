"""Sequence-aware transaction ordering and mutation (§IV-A).

The generator derives a base order from the write→read dependency graph of
state variables (transaction T1 before T2 when T1 writes what T2 reads), and
the *sequence mutation* duplicates a function in the sequence when it has a
read-after-write self-dependency on a state variable that some branch
condition reads — the rule that turns ``[invest, refund, withdraw]`` into
``[invest, refund, invest, withdraw]`` for the Crowdsale contract.

Baseline orderings (random for sFuzz, plain data-flow for
ConFuzzius/Smartian, prolongation for IR-Fuzz) live here too so every
fuzzer shares one implementation surface.
"""

from __future__ import annotations

import random

from repro.analysis.dataflow import ContractDataflow
from repro.core import config as cfg
from repro.lang import ast_nodes as ast


class SequenceGenerator:
    """Produces and mutates function-name sequences for one contract."""

    def __init__(self, contract: ast.ContractDef,
                 dataflow: ContractDataflow, rng: random.Random,
                 strategy: str, max_length: int = 8) -> None:
        self.contract = contract
        self.dataflow = dataflow
        self.rng = rng
        self.strategy = strategy
        self.max_length = max_length
        # All external functions are fuzzed; the data-flow facts only shape
        # the *order* (state-less functions have no dependency edges, so the
        # paper's "ignore functions without state variables" rule applies to
        # the ordering analysis, not to whether a function is exercised).
        self._stateful = [fn.name for fn in contract.external_functions]
        self._repeat_candidates = dataflow.repeat_candidates()

    # -- base sequences ----------------------------------------------------------

    def base_sequence(self) -> list:
        """One ordered sequence according to the configured strategy."""
        if self.strategy == cfg.SEQ_RANDOM:
            order = list(self._stateful)
            self.rng.shuffle(order)
        else:
            order = self.dependency_order()
            if self.strategy == cfg.SEQ_DATAFLOW_REPEAT:
                # §IV-A: the sequence mutation both repeats critical
                # transactions and *extends* the sequence.
                order = self.apply_repeat_mutation(order)
                order = self.apply_prolongation(order)
            elif self.strategy == cfg.SEQ_DATAFLOW_PROLONG:
                order = self.apply_prolongation(order)
        # Every smart-contract fuzzer generates sequences with repetition up
        # to a fixed length; pad very short sequences so single-function
        # contracts still see multi-call interactions.
        while len(order) < min(3, self.max_length):
            order.append(self.rng.choice(self._stateful))
        return order[:self.max_length]

    def cover_sequences(self) -> list:
        """Sequences that jointly call *every* external function once,
        chunked to ``max_length`` in strategy order — the initial population
        for contracts with more functions than one sequence can hold."""
        if self.strategy == cfg.SEQ_RANDOM:
            order = list(self._stateful)
            self.rng.shuffle(order)
        else:
            order = self.dependency_order()
        chunks = [order[i:i + self.max_length]
                  for i in range(0, len(order), self.max_length)]
        if self.strategy == cfg.SEQ_DATAFLOW_REPEAT and chunks:
            chunks[0] = self.apply_repeat_mutation(
                chunks[0])[:self.max_length]
        return chunks or [self.base_sequence()]

    def dependency_order(self) -> list:
        """Kahn topological order over write→read edges (declaration order
        breaks ties and cycles)."""
        functions = list(self._stateful)
        index = {name: i for i, name in enumerate(functions)}
        edges = [(w, r) for w, r, _ in self.dataflow.write_read_edges()
                 if w in index and r in index]

        preds: dict[str, set] = {name: set() for name in functions}
        for writer, reader in edges:
            if writer != reader:
                preds[reader].add(writer)

        order: list[str] = []
        remaining = set(functions)
        while remaining:
            ready = [name for name in functions
                     if name in remaining and not (preds[name] & remaining)]
            if not ready:
                # dependency cycle: emit the declaration-first function
                ready = [min(remaining, key=index.__getitem__)]
            chosen = ready[0]
            order.append(chosen)
            remaining.discard(chosen)
        return order

    # -- MuFuzz's sequence mutation (§IV-A) ----------------------------------------

    def apply_repeat_mutation(self, order: list) -> list:
        """Duplicate RAW-candidate functions so they execute consecutively
        enough to flip self-dependent branch conditions."""
        result = list(order)
        for name in order:
            if name not in self._repeat_candidates:
                continue
            df = self.dataflow.of(name)
            affected = df.writes | df.raw_self_deps
            insert_at = self._position_before_reader(result, name, affected)
            result.insert(insert_at, name)
            if len(result) >= self.max_length:
                break
        return result

    def _position_before_reader(self, seq: list, name: str,
                                affected: set) -> int:
        """Index just before the *last* later function whose branch condition
        reads a variable the repeated function affects (append when none
        does) — this yields the paper's ``[invest, refund, invest,
        withdraw]`` shape for the Crowdsale contract."""
        start = seq.index(name) + 1
        position = len(seq)
        for i in range(start, len(seq)):
            reader_df = self.dataflow.functions.get(seq[i])
            if reader_df is not None and reader_df.branch_reads & affected:
                position = i
        return position

    # -- IR-Fuzz's prolongation -------------------------------------------------------

    def apply_prolongation(self, order: list) -> list:
        """Extend the ordered sequence with random stateful functions."""
        result = list(order)
        while len(result) < min(self.max_length, len(order) + 3):
            result.append(self.rng.choice(self._stateful))
        return result

    # -- sequence-level mutation operators ----------------------------------------------

    def mutate_sequence(self, functions: list) -> list:
        """One random sequence mutation (used by every fuzzer when it
        mutates at the transaction-order level)."""
        if not functions:
            return [self.rng.choice(self._stateful)]
        result = list(functions)
        op = self.rng.random()
        if op < 0.3 and len(result) >= 2:            # swap two positions
            i, j = self.rng.sample(range(len(result)), 2)
            result[i], result[j] = result[j], result[i]
        elif op < 0.55 and len(result) < self.max_length:  # insert
            pos = self.rng.randint(0, len(result))
            result.insert(pos, self.rng.choice(self._stateful))
        elif op < 0.75 and len(result) >= 2:         # delete
            result.pop(self.rng.randrange(len(result)))
        else:                                        # replace
            pos = self.rng.randrange(len(result))
            result[pos] = self.rng.choice(self._stateful)
        return result

    def repeat_candidates(self) -> set:
        """Functions eligible for RAW-driven duplication (for reporting)."""
        return set(self._repeat_candidates)
