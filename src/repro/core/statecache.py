"""Prefix-state snapshot tree — the paper's §VI future-work optimization.

MuFuzz (like sFuzz and Smartian) re-executes every transaction sequence
from a fresh state each round; §VI names the promising improvement: *"not
to re-execute the previous transactions, but to move directly to some
intermediate state"*.  This module memoizes post-transaction chain states
so a seed that shares a prefix with earlier executions skips straight to
the prefix's end state and runs only its suffix.

The first implementation was a flat LRU of deep ``Chain.fork()`` copies:
every transaction of every seed paid a full copy of the world on insert,
every hit paid another on restore, and lookups rebuilt O(depth²) tuple
keys.  This rewrite stores a **snapshot tree** instead:

* **Tree keyed by call keys.**  Nodes hang off their parent by the one
  transaction's :func:`call_key`; the fuzzer walks the tree *alongside*
  the executing sequence, one O(1) child lookup per transaction — the
  incremental equivalent of a rolling hash over the prefix, except the
  exact tuple key makes collisions (and ``PYTHONHASHSEED`` sensitivity)
  structurally impossible.  No prefix tuple is ever rebuilt.
* **Journal redo deltas, not world copies.**  A materialized node stores
  its transaction's receipt plus the *forward* delta captured from the
  world journal segment the transaction committed
  (:meth:`~repro.chain.state.WorldState.capture_redo`).  A hit restores
  by ``reset_to_base()`` and then :meth:`~repro.chain.blockchain.Chain.
  replay_delta` down the path — O(slots the prefix touched), with the
  replayed deltas journaled so the *next* reset undoes them too.  Neither
  path calls ``WorldState.fork()``.
* **Selective insertion.**  A first-seen prefix costs one dict entry (a
  skeleton node counting visits); the delta is captured only when the
  prefix *recurs*, so cold prefixes never pay for memoization.  Hits
  begin on the third visit.
* **Depth-weighted leaf-first LRU.**  Every hit or materialization
  refreshes the whole root→node path deepest-first, so a parent is
  always at least as recent as any materialized descendant — which means
  the LRU front is always a safe victim: evicting it can never strand a
  materialized child below a missing parent.  Evicted nodes fall back to
  skeletons (their visit counts survive, so hot prefixes re-materialize
  on their next recurrence).

The cache is a pure performance layer: replayed prefixes keep their
recorded steps, their transactions still consume campaign budget, and
their trace events are re-dispatched through the oracle bus
(:meth:`~repro.oracles.bus.OracleBus.replay_transaction`) — campaign
results are byte-identical with the cache on or off, which is why it is
on by default (the ``state_cache`` perf layer, see :mod:`repro.layers`)
and checkpoints simply rebuild the cache cold on resume.
"""

from __future__ import annotations

from collections import OrderedDict
from weakref import WeakSet

from repro.core.seeds import TxCall
from repro.telemetry import metrics as _metrics


def call_key(call: TxCall) -> tuple:
    """The cache-key component of one transaction (everything that
    determines its effect)."""
    return (call.function, tuple(call.args), call.value, call.sender)


# -- telemetry ---------------------------------------------------------------
#
# Counters are module-level cumulative totals mirrored into the registry by
# a snapshot-time collector (Counter.set_total), so the hot path pays
# nothing when telemetry is disabled and diff_snapshots still sees
# monotonic per-process values even as cache instances come and go.
# Gauges report live sizes summed over the instances still alive.

_T_HITS = _metrics.counter("statecache.hits")
_T_MISSES = _metrics.counter("statecache.misses")
_T_STEPS_SAVED = _metrics.counter("statecache.steps_saved")
_T_TXS_SKIPPED = _metrics.counter("statecache.transactions_skipped")
_T_NODES = _metrics.gauge("statecache.nodes")
_T_MATERIALIZED = _metrics.gauge("statecache.materialized")
_T_BYTES = _metrics.gauge("statecache.bytes_estimate")

_hits_total = 0
_misses_total = 0
_steps_saved_total = 0
_txs_skipped_total = 0
_live_caches: WeakSet = WeakSet()


def _collect_statecache() -> None:
    _T_HITS.set_total(_hits_total)
    _T_MISSES.set_total(_misses_total)
    _T_STEPS_SAVED.set_total(_steps_saved_total)
    _T_TXS_SKIPPED.set_total(_txs_skipped_total)
    nodes = materialized = size = 0
    for cache in _live_caches:
        nodes += cache.node_count
        materialized += cache.materialized_count
        size += cache.bytes_estimate()
    _T_NODES.set_value(nodes)
    _T_MATERIALIZED.set_value(materialized)
    _T_BYTES.set_value(size)


_metrics.register_collector(_collect_statecache)

#: rough per-object costs for the bytes-estimate gauge (node shell,
#: one redo op, one recorded trace event)
_NODE_BYTES = 200
_REDO_OP_BYTES = 96
_EVENT_BYTES = 72


class _Node:
    """One tree node = one transaction extending its parent's prefix.

    A *skeleton* node (``receipt is None``) only counts visits; a
    *materialized* one also holds the transaction's receipt (whose trace
    is shared, never copied) and the journal redo delta from the parent's
    world state to its own.
    """

    __slots__ = ("key", "parent", "depth", "children", "visits",
                 "receipt", "redo")

    def __init__(self, key, parent) -> None:
        self.key = key
        self.parent = parent
        self.depth = parent.depth + 1 if parent is not None else 0
        self.children: dict = {}
        self.visits = 0
        self.receipt = None
        self.redo: tuple = ()


class PrefixStateCache:
    """Snapshot tree of memoized transaction-prefix states."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("state-cache capacity must be >= 1")
        self.capacity = capacity
        #: total tree-size bound; skeletons beyond it are pruned oldest-first
        self.max_nodes = max(8 * capacity, 256)
        self.root = _Node(None, None)
        #: materialized nodes, stale → fresh (path-touch keeps every
        #: parent fresher than its children, so the front is always a
        #: materialized leaf — see the module docstring)
        self._lru: OrderedDict = OrderedDict()
        #: prunable skeleton leaves in creation order
        self._skeletons: OrderedDict = OrderedDict()
        self._node_count = 0
        self.hits = 0
        self.misses = 0
        self.steps_saved = 0
        self.transactions_skipped = 0
        _live_caches.add(self)

    def __len__(self) -> int:
        """Number of memoized (materialized) prefix states."""
        return len(self._lru)

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def materialized_count(self) -> int:
        return len(self._lru)

    # -- lookup ---------------------------------------------------------------

    def match(self, calls) -> list:
        """The longest materialized prefix of ``calls``, as the root→leaf
        node path (empty = miss).  One dict probe per transaction."""
        global _hits_total, _misses_total, _steps_saved_total, \
            _txs_skipped_total
        node = self.root
        path = []
        for call in calls:
            child = node.children.get(call_key(call))
            if child is None or child.receipt is None:
                break
            path.append(child)
            node = child
        if not path:
            self.misses += 1
            _misses_total += 1
            return path
        saved = sum(n.receipt.trace.steps for n in path)
        self.hits += 1
        self.steps_saved += saved
        self.transactions_skipped += len(path)
        _hits_total += 1
        _steps_saved_total += saved
        _txs_skipped_total += len(path)
        self._touch(path[-1])
        return path

    def restore(self, chain, path) -> None:
        """Fast-forward ``chain`` (already reset to its base) through the
        matched prefix by replaying each node's redo delta."""
        for node in path:
            chain.replay_delta(node.redo, node.receipt)

    # -- insertion --------------------------------------------------------------

    def note(self, node, call, chain, receipt, journal_mark) -> "_Node":
        """Record that ``call`` just executed, extending prefix ``node``
        (None = sequence start).  Returns the child node — the walk state
        the fuzzer threads through its transaction loop.

        Selective insertion: the first visit creates a skeleton; the
        second captures the transaction's journal segment
        (``journal_mark`` is the world's journal length from just before
        execution) and materializes the node.
        """
        parent = self.root if node is None else node
        child = parent.children.get(call_key(call))
        if child is None:
            child = _Node(call_key(call), parent)
            parent.children[child.key] = child
            self._node_count += 1
            self._skeletons[child] = None
            if self._node_count > self.max_nodes:
                self._prune_skeletons(protect=child)
        child.visits += 1
        if child.receipt is None and child.visits >= 2 \
                and (parent is self.root or parent.receipt is not None):
            child.receipt = receipt
            child.redo = chain.world.capture_redo(journal_mark)
            self._skeletons.pop(child, None)
            self._lru[child] = None
            self._touch(child)
            while len(self._lru) > self.capacity:
                victim, _ = self._lru.popitem(last=False)
                self._dematerialize(victim)
        return child

    # -- eviction ---------------------------------------------------------------

    def _touch(self, node) -> None:
        """Refresh the root→node path, deepest first, so every ancestor
        ends up strictly fresher than ``node`` (the leaf-first LRU
        invariant)."""
        lru = self._lru
        while node is not None and node.parent is not None:
            lru.move_to_end(node)
            node = node.parent

    def _dematerialize(self, node) -> None:
        """Drop a node's memoized state but keep its tree position and
        visit count, so a still-hot prefix re-materializes on its next
        recurrence."""
        node.receipt = None
        node.redo = ()
        if not node.children:
            self._skeletons[node] = None

    def _prune_skeletons(self, protect) -> None:
        """Bound total tree size: drop the oldest childless skeleton
        leaves (never ``protect`` — the node the live walk is on)."""
        while self._node_count > self.max_nodes and self._skeletons:
            node, _ = self._skeletons.popitem(last=False)
            if node is protect:
                self._skeletons[node] = None
                if len(self._skeletons) == 1:
                    break
                continue
            if node.children or node.receipt is not None:
                continue  # became an interior node: structural, keep it
            del node.parent.children[node.key]
            self._node_count -= 1

    # -- introspection -----------------------------------------------------------

    def bytes_estimate(self) -> int:
        """Rough resident size of the memoized state (nodes, redo ops,
        and the recorded trace events the cached receipts keep alive)."""
        size = self._node_count * _NODE_BYTES
        for node in self._lru:
            trace = node.receipt.trace
            events = (len(trace.branches) + len(trace.compares)
                      + len(trace.calls) + len(trace.overflows)
                      + len(trace.storage_ops) + len(trace.selfdestructs)
                      + len(trace.block_reads) + len(trace.ether_received))
            size += len(node.redo) * _REDO_OP_BYTES + events * _EVENT_BYTES
        return size

    def stats(self) -> dict:
        """Cache effectiveness counters (ablation bench, heartbeats)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "steps_saved": self.steps_saved,
            "transactions_skipped": self.transactions_skipped,
            "nodes": self._node_count,
            "materialized": len(self._lru),
            "bytes_estimate": self.bytes_estimate(),
        }
