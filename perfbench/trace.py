"""Outside-in layer tracing: time the program's layers from the benchmark.

:class:`Tracer` replaces each layer's public entry point, *where the
program looks it up* (a module global bound by ``from ... import``, or a
class attribute), with a wrapper that records the call count and the
call's **self time**: its span minus the spans of wrapped calls nested
inside it.  Several entry points can feed one label (``core.feedback``
sums four).  Spans live in memory; nothing is written until the run
ends.  ``uninstall`` puts every original back.

The wrappers change no arguments and no results, so a traced run must
produce the same result records as an untraced one; the benchmark checks
that by digest on every traced run.  A wrapped entry point that records
no calls fails the run, so a renamed or rebound function cannot quietly
report 0 s.

:data:`LAYER_METRICS` is the per-layer metric table: each metric's unit,
which direction is better, and the end-to-end metric and workload it
should move.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: name -> (unit, better, the end-to-end metric and workload it moves)
LAYER_METRICS = {
    "orchestrator.worker_boot_s": ("s", "lower",
        "setup_s, execs_per_s on d2-matrix"),
    "orchestrator.busy_share": ("ratio", "higher", "execs_per_s on d2-matrix"),
    "orchestrator.idle_s": ("s", "lower", "execs_per_s on d2-matrix"),
    "orchestrator.cell_s.p50": ("s", "lower", "execs_per_s on d2-matrix"),
    "orchestrator.cell_s.p90": ("s", "lower", "execs_per_s on d2-matrix"),
    "orchestrator.workers_killed": ("count", "lower",
        "execs_per_s on d2-matrix"),
    "orchestrator.workers_recycled": ("count", "lower",
        "setup_s, execs_per_s on d2-matrix"),
    "store.save_s": ("s", "lower", "execs_per_s on d2-matrix"),
    "store.flush_s": ("s", "lower", "execs_per_s on d2-matrix"),
    "store.records": ("count", "higher", "execs_per_s on d2-matrix"),
    "store.resume_s": ("s", "lower", "none (read path beside the write path)"),
    "compiler.compile_s": ("s", "lower", "execs_per_s on d1-large"),
    "compiler.cache_hit_rate": ("ratio", "higher", "execs_per_s on d1-large"),
    "analysis.surface_s": ("s", "lower", "execs_per_s on d1-large"),
    "analysis.prefix_s": ("s", "lower", "execs_per_s on d1-large"),
    "analysis.dataflow_s": ("s", "lower", "execs_per_s on d1-large"),
    "evm.fusion_compile_s": ("s", "lower", "execs_per_s on d1-large"),
    "evm.execute_s": ("s", "lower", "execs_per_s on d3-deep"),
    "evm.steps_per_s": ("1/s", "higher", "execs_per_s on d3-deep"),
    "evm.fused_block_share": ("ratio", "higher", "execs_per_s on d3-deep"),
    "evm.runtime_bailouts": ("count", "lower", "execs_per_s on d3-deep"),
    "chain.apply_s": ("s", "lower", "execs_per_s on d2-matrix and d3-deep"),
    "chain.reset_s": ("s", "lower", "execs_per_s on d2-matrix and d3-deep"),
    "chain.deploy_s": ("s", "lower", "execs_per_s on d2-matrix and d3-deep"),
    "statecache.match_s": ("s", "lower", "execs_per_s on d3-deep"),
    "statecache.restore_s": ("s", "lower", "execs_per_s on d3-deep"),
    "statecache.note_s": ("s", "lower", "execs_per_s on d3-deep"),
    "statecache.hit_rate": ("ratio", "higher",
        "execs_per_s, peak_rss_mb on d3-deep"),
    "statecache.txs_skipped_share": ("ratio", "higher",
        "execs_per_s, peak_rss_mb on d3-deep"),
    "core.feedback_s": ("s", "lower", "execs_per_s on d3-deep"),
    "fuzzer.init_s": ("s", "lower", "execs_per_s on d3-deep"),
    "fuzzer.run_s": ("s", "lower", "execs_per_s on d3-deep"),
    "engine.mutate_s": ("s", "lower", "execs_per_s on d3-deep and d2-matrix"),
    "engine.select_s": ("s", "lower", "execs_per_s on d3-deep and d2-matrix"),
    "engine.retain_s": ("s", "lower", "execs_per_s on d3-deep and d2-matrix"),
    "engine.probe_share": ("ratio", "lower",
        "execs_per_s on d3-deep and d2-matrix"),
    "engine.retain_yield": ("ratio", "higher",
        "execs_per_s on d3-deep and d2-matrix"),
    "oracles.dispatch_s": ("s", "lower",
        "execs_per_s on d2-matrix and d3-deep"),
    "oracles.replay_s": ("s", "lower", "execs_per_s on d2-matrix and d3-deep"),
    "oracles.pruned": ("count", "higher",
        "execs_per_s on d2-matrix and d3-deep"),
    "trace.overhead": ("ratio", "lower",
        "none (traced / untraced seconds of the same cells)"),
}


class Tracer:
    """Self-time spans and counters around wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)  # label -> self seconds
        self.calls: dict = {}                   # entry point -> calls
        self.counts: dict = defaultdict(int)    # derived counters
        # child-span seconds of each open span; the bottom slot absorbs
        # top-level spans
        self._stack = [0.0]
        self._patches = []

    def wrap(self, owner, attr: str, label: str, observe=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper charging ``label``.

        ``observe(args, kwargs, result)``, if given, runs after each call
        (outside the span) to derive counters."""
        original = getattr(owner, attr)  # a renamed entry point raises
        entry = f"{owner.__name__}.{attr}"
        self.calls[entry] = 0
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span = clock() - t0
                self_s[label] += span - stack.pop()
                stack[-1] += span
                calls[entry] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._patches.append((owner, attr, attr in vars(owner), original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:  # was inherited: drop the shadowing wrapper
                delattr(owner, attr)
        self._patches.clear()

    def uncalled(self) -> list:
        return sorted(entry for entry, n in self.calls.items() if n == 0)

    # -- the program's entry points -------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point of the campaign stack."""
        import repro.core.fuzzer as fuzzer_mod
        import repro.evm.machine as machine_mod
        import repro.orchestrator.backends.base as backends_base
        from repro.chain.blockchain import Chain
        from repro.core.coverage import CoverageTracker
        from repro.core.energy import EnergyScheduler
        from repro.core.statecache import PrefixStateCache
        from repro.engine.mutation import MutationPipeline
        from repro.engine.retention import RetentionPolicy
        from repro.engine.selection import SeedSelector
        from repro.evm.machine import Machine
        from repro.oracles.bus import OracleBus
        from repro.orchestrator.store.jsonfile import JsonResultStore

        counts = self.counts

        def on_execute(args, kwargs, result) -> None:
            counts["steps"] += args[0].trace.steps

        def on_match(args, kwargs, path) -> None:
            counts["cache_lookups"] += 1
            counts["cache_hits"] += bool(path)
            counts["txs_skipped"] += len(path)
            counts["txs_looked_up"] += len(args[1])

        def on_retain(args, kwargs, kept) -> None:
            new_edges = kwargs["new_edges"] if "new_edges" in kwargs \
                else args[2]
            counts["retain_new_edges"] += bool(new_edges)

        def on_fuzzer_init(args, kwargs, result) -> None:
            counts["oracles_pruned"] += len(args[0].bus.pruned)

        # module globals, bound by name where the program calls them
        self.wrap(backends_base, "compile_cached", "compiler.compile")
        self.wrap(fuzzer_mod, "surface_for", "analysis.surface")
        self.wrap(fuzzer_mod, "analyze_contract", "analysis.dataflow")
        self.wrap(fuzzer_mod, "PrefixAnalyzer", "analysis.prefix")
        self.wrap(fuzzer_mod, "distances_from_trace", "core.feedback")
        self.wrap(machine_mod, "fused_program", "evm.fusion_compile")
        # methods
        self.wrap(Machine, "execute", "evm.execute", on_execute)
        self.wrap(Chain, "apply", "chain.apply")
        self.wrap(Chain, "reset_to_base", "chain.reset")
        self.wrap(Chain, "deploy", "chain.deploy")
        self.wrap(PrefixStateCache, "match", "statecache.match", on_match)
        self.wrap(PrefixStateCache, "restore", "statecache.restore")
        self.wrap(PrefixStateCache, "note", "statecache.note")
        self.wrap(CoverageTracker, "add_trace", "core.feedback")
        self.wrap(EnergyScheduler, "record", "core.feedback")
        self.wrap(SeedSelector, "observe", "core.feedback")
        self.wrap(SeedSelector, "select", "engine.select")
        self.wrap(MutationPipeline, "mutate", "engine.mutate")
        self.wrap(RetentionPolicy, "retain", "engine.retain", on_retain)
        self.wrap(OracleBus, "end_transaction", "oracles.dispatch")
        self.wrap(OracleBus, "replay_transaction", "oracles.replay")
        self.wrap(fuzzer_mod.Fuzzer, "__init__", "fuzzer.init",
                  on_fuzzer_init)
        self.wrap(fuzzer_mod.Fuzzer, "run", "fuzzer.run")
        # a mask probe is a full execution issued from inside mutate: its
        # loop overhead is campaign-loop time, not mutation time
        self.wrap(fuzzer_mod.Fuzzer, "_run_probe", "fuzzer.run")
        # the benchmark runs the default store backend, json
        self.wrap(JsonResultStore, "save", "store.save")
        self.wrap(JsonResultStore, "flush", "store.flush")

    def layer_metrics(self, fusion_before: dict, fusion_after: dict) -> dict:
        """The traced per-layer metrics (name -> value)."""
        s, c, calls = self.self_s, self.counts, self.calls
        if self.uncalled():
            raise RuntimeError(
                "traced entry points never called (renamed or rebound?): "
                + ", ".join(self.uncalled()))
        fused = fusion_after["blocks_fused"] - fusion_before["blocks_fused"]
        blocks = fused + sum(
            fusion_after[k] - fusion_before[k]
            for k in ("blocks_interp", "blocks_bailout"))
        executions = calls["Chain.reset_to_base"]
        metrics = {
            "store.save_s": s["store.save"],
            "store.flush_s": s["store.flush"],
            "compiler.compile_s": s["compiler.compile"],
            "analysis.surface_s": s["analysis.surface"],
            "analysis.prefix_s": s["analysis.prefix"],
            "analysis.dataflow_s": s["analysis.dataflow"],
            "evm.fusion_compile_s": s["evm.fusion_compile"],
            "evm.execute_s": s["evm.execute"],
            "evm.steps_per_s": c["steps"] / s["evm.execute"],
            "evm.fused_block_share": fused / blocks if blocks else 0.0,
            "evm.runtime_bailouts": (fusion_after["runtime_bailouts"]
                                     - fusion_before["runtime_bailouts"]),
            "chain.apply_s": s["chain.apply"],
            "chain.reset_s": s["chain.reset"],
            "chain.deploy_s": s["chain.deploy"],
            "statecache.match_s": s["statecache.match"],
            "statecache.restore_s": s["statecache.restore"],
            "statecache.note_s": s["statecache.note"],
            "statecache.hit_rate": c["cache_hits"] / c["cache_lookups"],
            "statecache.txs_skipped_share": (c["txs_skipped"]
                                             / c["txs_looked_up"]),
            "core.feedback_s": s["core.feedback"],
            "fuzzer.init_s": s["fuzzer.init"],
            "fuzzer.run_s": s["fuzzer.run"],
            "engine.mutate_s": s["engine.mutate"],
            "engine.select_s": s["engine.select"],
            "engine.retain_s": s["engine.retain"],
            "engine.probe_share": calls["Fuzzer._run_probe"] / executions,
            "engine.retain_yield": (c["retain_new_edges"]
                                    / calls["RetentionPolicy.retain"]),
            "oracles.dispatch_s": s["oracles.dispatch"],
            "oracles.replay_s": s["oracles.replay"],
            "oracles.pruned": c["oracles_pruned"],
        }
        return metrics
