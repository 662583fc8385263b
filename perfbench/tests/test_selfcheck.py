"""The benchmark's own checks, at reduced sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import child, run  # noqa: E402
from perfbench.trace import LAYER_METRICS, Tracer  # noqa: E402
from perfbench.workloads import LAYERS, WORKLOADS, make_spec  # noqa: E402


def _digests(spec, results_dir) -> dict:
    report = child.run_spec(spec, results_dir)
    assert [c["status"] for c in report["cells"]] == ["ok"] * report["jobs"]
    assert len(report["digests"]) == report["jobs"]
    return report["digests"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perf_layers_are_inert_on_workload(workload, tmp_path):
    """All three perf layers off must digest the same as the defaults on
    the benchmark's own inputs — the premise of the reference digest."""
    spec = make_spec(workload, seed=3, reduced=True, workers=1)
    defaults = _digests(spec, tmp_path / "defaults")
    layers_off = _digests({**spec, "layers_off": list(LAYERS)},
                          tmp_path / "off")
    assert layers_off == defaults


def test_traced_run_is_inert_and_calls_every_entry_point(tmp_path):
    spec = make_spec("d3-deep", seed=3, reduced=True, workers=1)
    untraced = _digests(spec, tmp_path / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _digests(spec, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == untraced
    stats = {"blocks_fused": 0, "blocks_interp": 0, "blocks_bailout": 0,
             "runtime_bailouts": 0}
    metrics = tracer.layer_metrics(stats, stats)
    traced_names = {name for name in LAYER_METRICS
                    if name.split(".")[0] not in ("orchestrator", "trace")
                    and name not in ("store.records", "store.resume_s",
                                     "compiler.cache_hit_rate")}
    assert set(metrics) == traced_names


def test_uncalled_entry_point_fails_loudly():
    class Layer:
        def entry(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "entry", "layer.entry")
    try:
        with pytest.raises(RuntimeError, match="Layer.entry"):
            tracer.layer_metrics({}, {})
    finally:
        tracer.uninstall()
    assert "entry" in vars(Layer) and Layer().entry() == 1


def test_inputs_follow_the_seed():
    first = make_spec("d2-matrix", seed=5)
    assert make_spec("d2-matrix", seed=5) == first
    other = make_spec("d2-matrix", seed=6)
    assert other["base_seed"] != first["base_seed"]
    assert other["contracts"] != first["contracts"]
    assert len(first["contracts"]) == WORKLOADS["d2-matrix"].sample


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == \
        {name: spec[:2] for name, spec in LAYER_METRICS.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d2-matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
