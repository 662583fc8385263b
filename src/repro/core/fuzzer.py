"""The fuzzing campaign facade shared by MuFuzz and every baseline.

One iteration = one execution of a full transaction sequence against a fresh
fork of the deployed state.  The campaign loop itself lives in the staged
engine (:mod:`repro.engine`); ``Fuzzer`` wires the stages together and
keeps the historical public API:

* sequence construction/mutation (§IV-A) via
  :class:`~repro.core.sequence.SequenceGenerator`, applied by the
  :class:`~repro.engine.mutation.MutationPipeline`'s sequence stage,
* branch-distance seed selection and mask-guided input mutation (§IV-B,
  Algorithms 1–2) via :class:`~repro.engine.selection.SeedSelector` and
  the pipeline's masked stage,
* dynamic energy adjustment (§IV-C, Algorithm 3) via
  :class:`~repro.core.energy.EnergyScheduler`,
* the nine bug oracles (§IV-D) observing every receipt,
* favored-edge corpus retention via
  :class:`~repro.engine.retention.RetentionPolicy`.

Every stopping decision routes through the single
:class:`~repro.engine.budget.Budget` (iterations, transactions, wall
clock).  Mask probe executions consume campaign budget like any other
execution — the paper's Algorithm 2 also pays per-probe fuzz runs.

Campaigns are interruptible: ``run(checkpoint_every=N,
checkpoint_sink=...)`` emits a
:class:`~repro.engine.checkpoint.CampaignCheckpoint` every N executions,
and :meth:`Fuzzer.resume` reconstructs the campaign mid-flight with a
byte-exact determinism guarantee (see :mod:`repro.engine.checkpoint`).
"""

from __future__ import annotations

import random
from time import perf_counter as _perf_counter

from repro import layers
from repro.analysis.dataflow import analyze_contract
from repro.analysis.surface import surface_for
from repro.analysis.distance import distances_from_trace
from repro.analysis.prefix import PrefixAnalyzer
from repro.chain.agents import BenignAgent, ReentrantAgent, RejectingAgent
from repro.chain.blockchain import Chain
from repro.chain.transactions import Transaction
from repro.compiler.abi import encode_call, encode_words
from repro.compiler.artifacts import CompiledContract
from repro.compiler.codegen import compile_source
from repro.core.campaign import CampaignResult
from repro.core.config import (
    ENERGY_DYNAMIC,
    FuzzerConfig,
    config_from_dict,
    mufuzz_config,
)
from repro.core.coverage import CoverageTracker
from repro.core.energy import EnergyScheduler
from repro.core.inputs import InputGenerator
from repro.core.masking import SeedMutator
from repro.core.seeds import (
    BAD_SELECTOR_CALL,
    FALLBACK_CALL,
    Seed,
    SeedQueue,
    TxCall,
)
from repro.core.sequence import SequenceGenerator
from repro.core.statecache import PrefixStateCache
from repro.engine.budget import Budget
from repro.engine.checkpoint import CampaignCheckpoint, CampaignState
from repro.engine.mutation import MutationPipeline
from repro.engine.retention import RetentionPolicy
from repro.engine.selection import SeedSelector
from repro.evm.trace import EV_BRANCH, ExecutionTrace
from repro.oracles.base import BugClass, FindingCollector, OracleContext
from repro.oracles.bus import OracleBus
from repro.oracles.registry import all_oracles
from repro.telemetry import metrics as _metrics
from repro.telemetry.progress import HEARTBEAT as _HEARTBEAT
from repro.telemetry.spans import span as _span

#: engine-pipeline telemetry: per-stage wall-time spans (these also feed
#: the ``stage`` field heartbeats sample) plus iteration-level counters.
#: Everything here is a no-op singleton while telemetry is disabled.
_T_EXECUTIONS = _metrics.counter("engine.executions")
_T_TRANSACTIONS = _metrics.counter("engine.transactions")
_T_SEQ_LEN = _metrics.histogram("engine.sequence_length",
                                (1, 2, 4, 8, 16, 32))
_T_EXEC_STEPS = _metrics.histogram(
    "engine.steps_per_execution",
    (300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000))
_S_SELECTION = _span("engine.selection", stage=True)
_S_MUTATION = _span("engine.mutation", stage=True)
_S_EXECUTION = _span("engine.execution", stage=True)
_S_RETENTION = _span("engine.retention", stage=True)

#: oracle dispatch runs once per *transaction* — too hot even for a live
#: span's enter/exit.  It times itself with raw perf_counter calls into
#: plain accumulators (the same cost the disabled path would pay for a
#: no-op context manager) and a snapshot-time collector mirrors the
#: totals into the ``engine.oracle_dispatch`` span.
_S_ORACLES = _span("engine.oracle_dispatch")
_oracle_count = 0
_oracle_seconds = 0.0


def _collect_oracle_span() -> None:
    _S_ORACLES.set_totals(_oracle_count, _oracle_seconds)


_metrics.register_collector(_collect_oracle_span)

#: surface-layer campaign counters: how many oracles the liveness proofs
#: pruned and how many dictionary constants the static harvest fed the
#: mutation pipeline (once per campaign — no-op while telemetry is off)
_T_SURFACE_PRUNED = _metrics.counter("analysis.surface.oracles_pruned")
_T_SURFACE_CONSTANTS = _metrics.counter("analysis.surface.dict_constants")

#: fixed account addresses used by every campaign
DEPLOYER = 0x00D0_0001
USER_1 = 0x00CA_FE01
USER_2 = 0x00CA_FE02
ATTACKER = 0x00A7_7AC0   # reentrant agent
REJECTOR = 0x00E7_7E01   # fallback-reverting agent


class Fuzzer:
    """Runs one campaign on one contract (facade over the staged engine)."""

    def __init__(self, artifact: CompiledContract | str,
                 config: FuzzerConfig | None = None,
                 supported_bug_classes=None, disable=None) -> None:
        if isinstance(artifact, str):
            artifact = compile_source(artifact)
        self.artifact = artifact
        self.config = config if config is not None else mufuzz_config()
        self.supported_bug_classes = supported_bug_classes
        #: the perf layers switched off for this campaign (``disable``, or
        #: ``REPRO_DISABLE`` when None; see :mod:`repro.layers`)
        self.disabled_layers = layers.resolve(disable)
        self.rng = random.Random(self.config.rng_seed)
        self.budget = Budget.from_config(self.config)
        #: the static vulnerability surface (computed once per bytecode):
        #: liveness proofs gate oracle pruning, the constant harvest feeds
        #: the mutation dictionary, and the opcode set fast-paths the
        #: prefix analyzer — the facts are computed whether or not pruning
        #: is on, so the ``surface_pruning`` layer toggles *only* the
        #: oracle drop
        self.surface = surface_for(artifact.runtime_code)
        self.dataflow = analyze_contract(artifact.contract_ast)
        self.prefix = PrefixAnalyzer(artifact.runtime_code,
                                     surface=self.surface)
        self.seqgen = SequenceGenerator(
            artifact.contract_ast, self.dataflow, self.rng,
            self.config.sequence_strategy, self.config.max_sequence_length)
        self.constants = self.surface.dictionary_constants
        self.mutator = SeedMutator(self.rng, self.constants)
        self.scheduler = EnergyScheduler(
            strategy=self.config.energy_strategy, prefix=self.prefix,
            base_energy=self.config.base_energy,
            max_energy=self.config.max_energy)
        #: JUMPI pcs nested inside another branch (a seed hitting one is
        #: eligible for the masked stage)
        self._nested_pcs = frozenset(
            pc for pc, info in artifact.branch_info.items()
            if info.nesting >= 1)
        self.oracles = all_oracles(self._effective_bug_classes())
        self.collector = FindingCollector()

        self.queue = SeedQueue()
        self.retention = RetentionPolicy(self.queue)
        self.state_cache = (
            None if "state_cache" in self.disabled_layers
            else PrefixStateCache(self.config.state_cache_capacity))
        self._setup_chain()
        self.coverage = CoverageTracker(artifact=artifact,
                                        address=self.address)
        self.selector = SeedSelector(
            self.rng, self.queue, self.coverage, self.address,
            self.config.use_distance_feedback)
        self.pipeline = MutationPipeline(
            self.rng, self.config, self.artifact.abi, self.seqgen,
            self.inputs, self.mutator, self._fresh_call, self.budget,
            self._run_probe)
        self.ctx = OracleContext(
            artifact=artifact, address=self.address, deployer=DEPLOYER,
            attacker_addresses=frozenset({ATTACKER, REJECTOR}))
        #: the streaming oracle bus: oracles receive the trace events they
        #: subscribe to while each transaction executes, and the machine
        #: materializes only the event kinds someone consumes — the
        #: feedback loop needs branches, everything else is oracle-driven.
        #: Surface pruning drops oracles whose bug class the static layer
        #: proved impossible (whole-code opcode absence), shrinking the
        #: mask further; results stay byte-identical by construction.
        dead = (frozenset() if "surface_pruning" in self.disabled_layers
                else self.surface.dead_set())
        self.bus = OracleBus(self.oracles, self.ctx, self.collector,
                             dead_classes=dead)
        _T_SURFACE_PRUNED.add(len(self.bus.pruned))
        _T_SURFACE_CONSTANTS.add(len(self.constants))
        self.base_chain.event_mask = EV_BRANCH | self.bus.mask
        self.base_chain.oracle_bus = self.bus
        #: loop position; populated by :meth:`run` or :meth:`resume`
        self._state: CampaignState | None = None

    def _effective_bug_classes(self):
        """Intersection of the config's ``bug_classes`` selection and the
        ``supported_bug_classes`` capability set (None = unrestricted)."""
        selected = self.config.bug_classes
        supported = self.supported_bug_classes
        if selected is None and supported is None:
            return None
        if selected is None:
            return set(supported)
        chosen = {BugClass(value) for value in selected}
        if supported is None:
            return chosen
        return chosen & {BugClass(getattr(bc, "value", bc))
                         for bc in supported}

    # -- budget-backed counters (historical attribute names) ---------------------

    @property
    def executions(self) -> int:
        return self.budget.iterations_used

    @property
    def transactions(self) -> int:
        return self.budget.transactions_used

    # -- environment -------------------------------------------------------------

    def _setup_chain(self) -> None:
        chain = Chain(max_steps=self.config.max_steps_per_tx,
                      block_fusion="block_fusion" not in self.disabled_layers)
        chain.create_account(DEPLOYER)
        chain.create_account(USER_1)
        chain.create_account(USER_2)
        self.reentrant_agent = ReentrantAgent(ATTACKER)
        if self.config.attacker_reentry:
            chain.register_agent(ATTACKER, self.reentrant_agent)
        else:
            chain.register_agent(ATTACKER, BenignAgent())
        chain.register_agent(REJECTOR, RejectingAgent())

        self.accounts = [DEPLOYER, USER_1, USER_2, ATTACKER, REJECTOR]
        self.inputs = InputGenerator(
            self.rng, self.accounts,
            extra_constants=self.constants,
            sender_weights=(0.20, 0.175, 0.125, 0.35, 0.15))

        ctor_args = [self.inputs.value_for_type(t)
                     for t in self.artifact.abi.constructor_inputs]
        deployed = chain.deploy(
            self.artifact, ctor_args=encode_words(ctor_args),
            sender=DEPLOYER, value=self.config.deploy_balance)
        self.address = deployed.address
        self.base_chain = chain
        # journal-based reset point: iterations restore the deployed state
        # in O(touched slots) instead of deep-copying the world every round
        chain.mark_base()

    # -- seed construction ----------------------------------------------------------

    def _fresh_seed(self) -> Seed:
        functions = self.seqgen.base_sequence()
        return Seed(calls=[self._fresh_call(name) for name in functions])

    def _fresh_call(self, function: str) -> TxCall:
        if function in (FALLBACK_CALL, BAD_SELECTOR_CALL):
            return TxCall(function=function, args=[], value=0,
                          sender=self.inputs.sender())
        fn = self.artifact.abi.function(function)
        return TxCall(
            function=function,
            args=self.inputs.args_for(fn),
            value=self.inputs.call_value_for(fn),
            sender=self.inputs.sender())

    def _encode_call(self, call: TxCall) -> bytes:
        if call.function == FALLBACK_CALL:
            return b""
        if call.function == BAD_SELECTOR_CALL:
            # fixed unknown selector: encoding must be deterministic so the
            # prefix-state cache and campaign replay stay exact
            return encode_words([0xDEADBEEF])
        return encode_call(self.artifact.abi.function(call.function),
                           call.args)

    # -- execution --------------------------------------------------------------------

    def _execute(self, seed: Seed) -> ExecutionTrace:
        """Run the seed's transaction sequence against the deployed state.

        The base chain is journal-reset to the post-deployment snapshot
        (O(slots touched by the previous iteration), not a deep copy of the
        world).  With the state cache (§VI future-work optimization) the
        longest memoized transaction prefix is fast-forwarded instead of
        re-executed: the snapshot tree replays each skipped transaction's
        journal redo delta onto the freshly reset chain, re-dispatches its
        recorded trace through the oracle bus, and charges its budget —
        everything a live execution would have produced except the machine
        steps, so results are byte-identical with the cache on or off.
        """
        global _oracle_count, _oracle_seconds
        with _S_EXECUTION:
            cache = self.state_cache
            chain = self.base_chain.reset_to_base()
            merged = ExecutionTrace()
            start_at = 0
            node = None
            path = ()
            if cache is not None:
                path = cache.match(seed.calls)
                if path:
                    start_at = len(path)
                    node = path[-1]
                    cache.restore(chain, path)
            self.bus.begin_sequence(seed.calls)
            # replay the skipped prefix to the oracles from its recorded
            # traces: cross-transaction oracle state, witnesses, and the
            # transaction budget stay in lockstep with a full execution
            t0 = _perf_counter()
            for prefix_node in path:
                receipt = prefix_node.receipt
                merged.merge(receipt.trace)
                self.budget.note_transaction()
                self.collector.extend(self.bus.replay_transaction(receipt))
            if path:
                _oracle_count += start_at
                _oracle_seconds += _perf_counter() - t0
            for index in range(start_at, len(seed.calls)):
                call = seed.calls[index]
                data = self._encode_call(call)
                if self.config.attacker_reentry:
                    self.reentrant_agent.arm(data)
                tx = Transaction(
                    sender=call.sender, to=self.address, value=call.value,
                    data=data, gas=self.config.tx_gas,
                    function=call.function)
                if cache is not None:
                    journal_mark = chain.world.journal_mark()
                # subscribed oracles stream the trace events of this
                # transaction while it executes; settle their findings now
                receipt = chain.apply(tx)
                self.budget.note_transaction()
                merged.merge(receipt.trace)
                t0 = _perf_counter()
                self.collector.extend(self.bus.end_transaction(receipt))
                _oracle_count += 1
                _oracle_seconds += _perf_counter() - t0
                if cache is not None:
                    node = cache.note(node, call, chain, receipt,
                                      journal_mark)
            self.budget.note_execution()
            _T_EXECUTIONS.inc()
            _T_TRANSACTIONS.add(len(seed.calls) - start_at)
            _T_SEQ_LEN.observe(len(seed.calls))
            _T_EXEC_STEPS.observe(merged.steps)
            _HEARTBEAT.tick(self)
        return merged

    def _run_probe(self, variant: Seed) -> Seed:
        """Execute one mask-probe variant through the full
        execute → feedback → retain cycle (the masked stage's hook)."""
        trace = self._execute(variant)
        new_edges = self._feedback(variant, trace)
        with _S_RETENTION:
            self.retention.retain(variant, new_edges)
        return variant

    # -- feedback ------------------------------------------------------------------------

    def _feedback(self, seed: Seed, trace: ExecutionTrace) -> int:
        """Update coverage, distances and seed fitness; returns new edges.

        One walk over the execution's branch events
        (:func:`~repro.analysis.distance.distances_from_trace`) yields the
        per-edge hit counts and the distance table; the energy record,
        the seed's covered edges and its nested hits all come from the
        distinct edges, not from the events.  ``covered_edges`` equals the
        trace's ``branch_edges`` at the target, because the machine
        records both at the same JUMPIs."""
        new_edges = self.coverage.add_trace(
            trace, step_multiplier=self.config.reexecution_overhead)
        hits, distances = distances_from_trace(trace, self.address)
        self.scheduler.record(hits)
        seed.covered_edges = set(hits)
        nested = self._nested_pcs
        seed.nested_hits = {pc for pc, _taken in hits if pc in nested}
        self.selector.observe(seed, distances)
        return new_edges

    # -- the campaign ------------------------------------------------------------------------------

    def run(self, checkpoint_every: int | None = None,
            checkpoint_sink=None) -> CampaignResult:
        """Execute the campaign (or the remainder of a resumed one).

        ``checkpoint_every=N`` emits a
        :class:`~repro.engine.checkpoint.CampaignCheckpoint` to
        ``checkpoint_sink(checkpoint)`` at the first iteration boundary
        after every N executions.  A sink that raises aborts the campaign
        mid-flight — that, or a killed process, is the interruption model;
        :meth:`resume` continues from the last emitted checkpoint.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_sink is None:
                raise ValueError("checkpoint_every requires a "
                                 "checkpoint_sink callback")
        self.budget.start()
        config = self.config

        if not self.artifact.abi.functions:
            return CampaignResult(
                fuzzer=config.name, contract=self.artifact.name,
                coverage=1.0, iterations=0, total_steps=0, wall_time=0.0)

        state = self._state
        if state is None:
            state = self._state = CampaignState()
            # Initial population: first a covering set of sequences that
            # calls every external function at least once (one seed per
            # chunk for contracts larger than one sequence), then fresh
            # random seeds.
            initial = [Seed(calls=[self._fresh_call(f) for f in functions])
                       for functions in self.seqgen.cover_sequences()]
            while len(initial) < config.initial_population:
                initial.append(self._fresh_seed())
            state.pending_initial = initial

        if state.phase == "init":
            while state.pending_initial and not self.budget.exhausted():
                seed = state.pending_initial.pop(0)
                trace = self._execute(seed)
                self._feedback(seed, trace)
                # initial population always kept
                self.retention.retain(seed, new_edges=1)
                if (config.energy_strategy == ENERGY_DYNAMIC
                        and not self.scheduler.weights):
                    self.scheduler.prefuzz(trace, self.address)
                self._maybe_checkpoint(checkpoint_every, checkpoint_sink)
            if not state.pending_initial:
                state.phase = "main"

        # main loop
        while not self.budget.exhausted() and len(self.queue):
            if state.current_index is None:
                with _S_SELECTION:
                    state.current_index = self.selector.select()
                seed = self.queue.seeds[state.current_index]
                state.energy = self.scheduler.energy_for(seed)
            seed = self.queue.seeds[state.current_index]
            while state.energy > 0 and not self.budget.exhausted():
                state.energy -= 1
                with _S_MUTATION:
                    child = self.pipeline.mutate(seed)
                trace = self._execute(child)
                new_edges = self._feedback(child, trace)
                with _S_RETENTION:
                    self.retention.retain(child, new_edges)
                if new_edges:
                    state.energy = min(state.energy + 1, config.max_energy)
                self._maybe_checkpoint(checkpoint_every, checkpoint_sink)
            if state.energy <= 0:
                state.current_index = None

        self.collector.extend(self.bus.finalize())

        last_seed = self.queue.seeds[-1] if len(self.queue) else None
        return CampaignResult(
            fuzzer=config.name,
            contract=self.artifact.name,
            coverage=self.coverage.coverage(),
            iterations=self.executions,
            total_steps=self.coverage.total_steps,
            wall_time=self.budget.elapsed(),
            findings=self.collector.all(),
            curve=list(self.coverage.curve),
            seeds_in_queue=len(self.queue),
            transactions=self.transactions,
            example_sequence=last_seed.functions if last_seed else [],
        )

    # -- witness replay ----------------------------------------------------------

    def replay(self, finding) -> bool:
        """Re-execute a finding's stored witness against the deployed state.

        The fuzzer's construction is deterministic in ``config.rng_seed``
        (constructor arguments, account set, deployment balance), and every
        campaign iteration starts from the journal-reset base state — so a
        fresh fuzzer built from the campaign's config reproduces exactly
        the state each witness originally ran against.  Returns True when
        the witness re-triggers the finding's dedup key.

        Use a fresh :class:`Fuzzer` per finding: the collector accumulates,
        so replaying several findings on one instance could credit a
        witness with a finding an earlier replay already produced.
        """
        calls = [TxCall.from_dict(call) for call in finding.witness]
        if not calls:
            return False
        self._execute(Seed(calls=calls))
        # whole-campaign oracles (ether freezing) settle in finalize
        self.collector.extend(self.bus.finalize())
        return finding.key in self.collector.findings

    def _maybe_checkpoint(self, every: int | None, sink) -> None:
        if every is None:
            return
        if self.executions - self._state.last_checkpoint >= every:
            self._state.last_checkpoint = self.executions
            sink(CampaignCheckpoint.capture(self))

    # -- interrupt/resume --------------------------------------------------------

    def checkpoint(self) -> CampaignCheckpoint:
        """Snapshot the current campaign state (only meaningful between
        iterations — i.e. from a ``checkpoint_sink`` or after ``run``)."""
        if self._state is None:
            raise ValueError("nothing to checkpoint: campaign not started")
        return CampaignCheckpoint.capture(self)

    @classmethod
    def resume(cls, checkpoint, artifact: CompiledContract | str | None = None,
               disable=None) -> "Fuzzer":
        """Reconstruct a mid-flight campaign from a checkpoint.

        ``artifact`` (compiled contract or MiniSol source) may be omitted
        when the checkpoint embeds its source.  Call :meth:`run` on the
        returned fuzzer to continue; the eventual result is byte-identical
        (modulo ``wall_time``) to an uninterrupted campaign, whatever perf
        layers either run had ``disable``-d.
        """
        if isinstance(checkpoint, dict):
            checkpoint = CampaignCheckpoint.from_dict(checkpoint)
        if artifact is None:
            if checkpoint.source is None:
                raise ValueError(
                    "checkpoint does not embed contract source; pass the "
                    "artifact explicitly")
            artifact = checkpoint.source
        if isinstance(artifact, str):
            # a source file can hold several contracts: compile the one
            # the checkpoint was taken from, not whichever comes first
            try:
                artifact = compile_source(artifact,
                                          checkpoint.contract or None)
            except KeyError:
                raise ValueError(
                    f"checkpoint belongs to contract "
                    f"{checkpoint.contract!r}, which the given source "
                    f"does not define") from None
        if checkpoint.contract and artifact.name != checkpoint.contract:
            raise ValueError(
                f"checkpoint belongs to contract "
                f"{checkpoint.contract!r}, not {artifact.name!r}")
        config = config_from_dict(checkpoint.config)
        supported = checkpoint.supported_bug_classes
        if supported is not None:
            supported = {BugClass(value) for value in supported}
        fuzzer = cls(artifact, config, supported, disable)
        checkpoint.restore_into(fuzzer)
        return fuzzer


def fuzz_contract(source_or_artifact, config: FuzzerConfig | None = None,
                  supported_bug_classes=None) -> CampaignResult:
    """One-call convenience: fuzz a contract and return the result."""
    fuzzer = Fuzzer(source_or_artifact, config, supported_bug_classes)
    return fuzzer.run()
