"""Benchmark harness configuration.

Every bench regenerates one paper artefact (table or figure), prints it to
the terminal, and persists it under ``benchmarks/results/``.  Scale is
controlled by ``REPRO_BENCH_SCALE``:

* ``small`` (default) — subsampled corpora and reduced iteration budgets so
  the whole harness completes in a few minutes on a laptop;
* ``full``  — the complete generated corpora and paper-scale (for our
  substrate) budgets.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def scaled(small: int, full: int) -> int:
    """Pick a knob value by scale."""
    return full if SCALE == "full" else small


def bench_workers() -> int | None:
    """Worker processes for orchestrator-backed benches.

    ``REPRO_BENCH_WORKERS`` overrides; unset means all CPU cores.  Results
    are identical for any worker count — the orchestrator derives per-job
    seeds deterministically — so this only trades wall-clock for cores.
    """
    value = os.environ.get("REPRO_BENCH_WORKERS")
    return int(value) if value else None


def bench_persistence(label: str) -> dict:
    """Optional ``run_matrix`` persistence kwargs for preemptible benches.

    Set ``REPRO_BENCH_RESULTS_DIR`` to persist per-cell results under
    ``<dir>/<label>/`` — an interrupted bench then resumes instead of
    starting over, and ``REPRO_BENCH_CHECKPOINT_EVERY=N`` additionally
    checkpoints every campaign mid-flight so the resume is mid-campaign,
    not per-cell.  The engine's determinism guarantee keeps resumed bench
    numbers byte-identical to uninterrupted ones.  Unset (the default,
    and in CI) benches stay purely in-memory.
    """
    results_root = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    if not results_root:
        return {}
    kwargs: dict = {"results_dir": Path(results_root) / label}
    every = os.environ.get("REPRO_BENCH_CHECKPOINT_EVERY")
    if every:
        kwargs["checkpoint_every"] = int(every)
    return kwargs


@pytest.fixture
def report(capsys):
    """Print a result table to the real terminal and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _report


@pytest.fixture
def once(benchmark):
    """Run a campaign exactly once under pytest-benchmark timing."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once
