"""Process-local LRU cache over :func:`repro.compiler.compile_source`.

``compile_cached`` is the entry point the orchestrator's execution
backends and the CLI share.  Entries are keyed on
``(sha256(source), contract)`` — content, not identity — so a contract
fuzzed across many presets × trials compiles once per process instead of
once per job.  The persistent pool backend relies on this: each long-lived
worker keeps its cache warm across its jobs, the scheduler hands a worker
the jobs of contracts it has already run first, and workers report
per-job hit/miss deltas back to the scheduler for the matrix-level stats.

Compiled artifacts are treated as immutable by every consumer (the fuzzer,
the analyses, the oracles), so handing the same :class:`CompiledContract`
object to consecutive campaigns is safe; the orchestrator's determinism
guard verifies this empirically by comparing cached-backend output
byte-for-byte against fresh-compile backends.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.compiler.codegen import compile_source
from repro.telemetry import metrics as _metrics
from repro.telemetry.spans import span as _span

#: telemetry mirrors of the cache counters plus a wall-time span over the
#: miss-path compile — no-op singletons unless telemetry is enabled
_T_HITS = _metrics.counter("compile.cache.hits")
_T_MISSES = _metrics.counter("compile.cache.misses")
_S_COMPILE = _span("compile.compile")

#: default entry budget; artifacts are small (KBs), so this is generous
DEFAULT_MAXSIZE = 64


class CompileCache:
    """LRU cache of compiled contracts keyed on source digest + name."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        self.maxsize = max(1, int(maxsize))
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(source: str, contract_name: str | None = None) -> tuple:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return (digest, contract_name)

    def get(self, source: str, contract_name: str | None = None):
        """The compiled artifact for ``source``; compiles on a miss."""
        key = self.key(source, contract_name)
        try:
            artifact = self._entries[key]
        except KeyError:
            self.misses += 1
            _T_MISSES.inc()
            # compile outside the cache mutation: a compile error must not
            # leave a half-inserted entry behind
            with _S_COMPILE:
                artifact = compile_source(source, contract_name)
            self._entries[key] = artifact
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return artifact
        self.hits += 1
        _T_HITS.inc()
        self._entries.move_to_end(key)
        return artifact

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._entries)}

    def __len__(self) -> int:
        return len(self._entries)


#: the per-process cache behind :func:`compile_cached`
_CACHE = CompileCache()


def compile_cached(source: str, contract_name: str | None = None):
    """Compile MiniSol ``source`` through the process-local cache.

    Same signature and result as :func:`repro.compiler.compile_source`;
    repeated calls with identical source return the same artifact object.
    """
    return _CACHE.get(source, contract_name)


def compile_cache_stats() -> dict:
    """Cumulative ``{"hits", "misses", "size"}`` of the process cache."""
    return _CACHE.stats()


def clear_compile_cache() -> None:
    """Empty the process cache and zero its counters (tests, recycling)."""
    _CACHE.clear()
