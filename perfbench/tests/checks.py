"""Checks of the benchmark itself: trace wiring, determinism, held-out seed.

Slow (several minutes on 2 CPUs), so the file name keeps a plain ``pytest``
run from collecting it. Run it from the repository root with:

    python3 -m pytest -q perfbench/tests/checks.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from xbarsim import engine, netrunner  # noqa: E402

# never used while the benchmark was tuned; kept for later claims
HELD_OUT_SEED = 1000


def run_workload(name, seed, workdir, tracer=None):
    """prepare/run/score one workload in-process, traced when a tracer is given."""
    prepare, run, score = WORKLOADS[name]
    workdir.mkdir()
    outdir = workdir / "out"
    outdir.mkdir()
    inputs = prepare(seed, workdir)
    if tracer:
        with tracer:
            result = run(inputs, outdir)
    else:
        result = run(inputs, outdir)
    return score(inputs, outdir, result)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def test_install_patches_every_binding_and_uninstall_restores():
    original = engine.build_engine
    tracer = Tracer("wiring")
    with tracer:
        assert netrunner.build_engine is engine.build_engine
        assert engine.build_engine is not original
    assert netrunner.build_engine is original
    assert engine.build_engine is original


def test_self_time_is_duration_minus_children():
    tracer = Tracer("self-time")
    tracer.spans[:] = [["outer", 0.0, 10.0, None], ["inner", 1.0, 4.0, 0],
                       ["inner", 5.0, 7.0, 0], ["leaf", 2.0, 3.0, 1]]
    totals = tracer.totals()
    assert totals["outer"] == [1, 10.0, 5.0]
    assert totals["inner"] == [2, 5.0, 4.0]
    assert totals["leaf"] == [1, 1.0, 1.0]


def test_layer288_spans_and_traced_digest(tmp_path):
    _, failures, plain = run_workload("layer288-exp", 0, tmp_path / "plain")
    tracer = Tracer("layer288")
    _, traced_failures, traced = run_workload("layer288-exp", 0, tmp_path / "traced",
                                              tracer)
    assert failures == traced_failures == []
    assert traced == plain
    totals = tracer.totals()
    assert totals["engine.build"][0] == 11
    assert totals["cli.command"][0] == 1
    assert totals["circuit.solve"][0] > 0


def test_stage1_span_counts(tmp_path):
    tracer = Tracer("stage1")
    _, failures, _ = run_workload("stage1-runnet", 0, tmp_path / "run", tracer)
    assert failures == []
    totals = tracer.totals()
    assert totals["engine.build"][0] == 18
    assert totals["circuit.currents"][0] == 81
    assert tracer.counters["netrunner.tap_rows"] > 0
    assert tracer.counters["quantize.adc_samples"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_passes_gate(workload):
    proc = bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "layer288-exp", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
