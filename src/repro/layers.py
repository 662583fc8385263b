"""The perf layers: pure-performance subsystems, each provably inert.

Three layers make campaigns faster without moving a byte of their
results (the golden-fixture tests pin each one on and off):

``block_fusion``
    basic blocks compiled into superinstruction closures
    (:mod:`repro.evm.fusion`);
``state_cache``
    the prefix-snapshot tree that fast-forwards shared transaction
    prefixes (:mod:`repro.core.statecache`);
``surface_pruning``
    oracles whose bug class the vulnerability surface proves impossible
    are dropped from the bus (:mod:`repro.analysis.surface`).

All three are on by default, and one switch turns any of them off: the
``disable`` argument of :class:`~repro.core.fuzzer.Fuzzer` and
:func:`~repro.orchestrator.runner.run_matrix`, the ``--disable`` option
of ``repro fuzz`` and ``repro campaign``, and the ``REPRO_DISABLE``
environment variable, which supplies the set wherever none is given.
A spec is a comma-separated list of layer names, or ``all``.

Because the layers are inert, the disabled set is an execution choice
like the worker count or the store backend: it is not part of a
campaign's config, job fingerprint, result record or checkpoint, so a
result computed with a layer off is a valid cache for a run with it on.
"""

from __future__ import annotations

import os

#: every perf layer, by the name ``--disable`` and ``REPRO_DISABLE`` use
PERF_LAYERS = ("block_fusion", "state_cache", "surface_pruning")

ENV_VAR = "REPRO_DISABLE"


def parse(spec) -> frozenset:
    """A disabled-layer spec as a set of layer names.

    ``spec`` is None (nothing disabled), a comma- or space-separated
    string, or an iterable of names; ``all`` names every layer.  Raises
    ``ValueError`` on an unknown name."""
    if spec is None:
        return frozenset()
    if isinstance(spec, str):
        spec = spec.replace(",", " ").split()
    names = {str(name).strip().lower() for name in spec} - {""}
    if "all" in names:
        return frozenset(PERF_LAYERS)
    unknown = names - set(PERF_LAYERS)
    if unknown:
        raise ValueError(f"unknown perf layer(s): {', '.join(sorted(unknown))}"
                         f" (known: {', '.join(PERF_LAYERS)}, all)")
    return frozenset(names)


def resolve(disable=None) -> frozenset:
    """The disabled set in effect: ``disable`` when given, else
    ``REPRO_DISABLE``."""
    return parse(os.environ.get(ENV_VAR) if disable is None else disable)
