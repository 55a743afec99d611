"""xbarsim benchmark: one seeded workload per run, timed and checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload layer576-build --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout this file sits in, so
the benchmark always measures the source next to it. BLAS is pinned to one
thread before numpy loads.

A run does the following:

1. ``setup_s``: starts a fresh interpreter several times, each doing the
   imports and the seeded input generation (weights, images, model and
   tensor files), and takes the median time from process start until the
   inputs are ready. Engine builds are not part of set-up.
2. Correctness gate, outside the timed phase: ``simulate`` against
   ``oracle_solve`` on a seeded 8x8 crossbar.
3. Repeats the workload's calls until ``--seconds`` is used up (at least
   once) and reports the median wall time as ``run_s``. After each
   iteration, outside the timed phase, the outputs are checked against the
   workload's accuracy bounds and hashed; every iteration of a run must give
   the same digest. An iteration that raises or fails a check counts as
   failed and its time is dropped.
4. With ``--trace 1`` the iterations run with every public function of the
   package wrapped in a span (see ``tracing.py``) and the per-layer metrics
   are reported instead of the end-to-end ones. The spans are written to
   ``.bench_out/`` at the end of the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the same metrics, the ones that fit only some workloads, the output
digest and the environment. The exit code is 0 only when every check
passed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SETUP_SAMPLES = 5
ORACLE_BOUND = 1e-9      # criterion-1 relative bound
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "mean_rel_err": "fraction"}


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)   # one set-up sample, see setup_time
    return p.parse_args(argv)


def check_source():
    """Refuse to measure an xbarsim that is not the checkout's own source."""
    src = (ROOT / "src").resolve()
    try:
        import xbarsim
    except ModuleNotFoundError:
        sys.exit(f"no xbarsim package under {src}")
    if src not in Path(xbarsim.__file__).resolve().parents:
        sys.exit(f"xbarsim imported from {xbarsim.__file__}, not {src}")


def setup_once(workload, seed):
    """Child mode: prepare the inputs, print the clock when they are ready."""
    from workloads import WORKLOADS
    prepare = WORKLOADS[workload][0]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        prepare(seed, workdir)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir)


def setup_time(workload, seed):
    """Median seconds from starting a fresh interpreter to inputs ready.

    CLOCK_MONOTONIC is shared by all processes, so the child's ready stamp
    and the parent's start stamp compare directly.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(child.stdout.split()[-1]) - start)
    return statistics.median(samples)


def oracle_gate(seed):
    """Failure message, or None when simulate matches the dense oracle."""
    import numpy as np
    from xbarsim.circuit import oracle_solve, simulate
    from xbarsim.config import CrossbarConfig
    rng = np.random.default_rng(seed)
    config = CrossbarConfig(8, 8)
    g = rng.uniform(config.g_min, config.g_max, size=(8, 8))
    v = rng.uniform(0.0, config.v_sense_max, size=8)
    ref = oracle_solve(config, g, v).i_out
    got = simulate(config, g, v).i_out
    err = float(np.abs(got - ref).max() / np.abs(ref).max())
    if not err <= ORACLE_BOUND:
        return f"simulate vs oracle_solve: relative error {err:.3g} > {ORACLE_BOUND}"
    return None


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure(args):
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import ACCURACY_UNITS, WORKLOADS, report_bytes
    prepare, run, score = WORKLOADS[args.workload]

    setup_s = setup_time(args.workload, args.seed)
    failures = []
    attempted = 2        # the oracle gate and the determinism check
    failed = 0
    gate = oracle_gate(args.seed)
    if gate:
        failures.append(gate)
        failed += 1

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tracer = Tracer(f"{args.workload}:seed{args.seed}:pid{os.getpid()}") \
        if args.trace else None
    times, digests, scores, out_bytes = [], set(), [], 0
    try:
        inputs = prepare(args.seed, workdir)
        loop_start = time.monotonic()
        while True:
            attempted += 1
            outdir = workdir / f"out{attempted}"
            outdir.mkdir()
            with tracer or contextlib.nullcontext():
                start = time.monotonic()
                try:
                    result = run(inputs, outdir)
                except Exception:
                    traceback.print_exc()
                    result = None
                elapsed = time.monotonic() - start
            if result is None:
                metrics, problems, digest = {}, ["workload raised"], None
            else:
                metrics, problems, digest = score(inputs, outdir, result)
            if problems:
                failures.extend(problems)
                failed += 1
            else:
                times.append(elapsed)
                digests.add(digest)
                scores.append(metrics)
                out_bytes = report_bytes(outdir)
            del result
            shutil.rmtree(outdir)
            used = time.monotonic() - loop_start
            if used + statistics.median(times or [elapsed]) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir)
    if len(digests) > 1 or any(s != scores[0] for s in scores):
        failures.append(f"outputs differ between iterations: {sorted(digests)}")
        failed += 1

    if not times:
        return failures, attempted, failed, {}, {}, None
    run_s = statistics.median(times)
    accuracy = {f"accuracy.{name}": scores[0].get(name, 0.0) for name in ACCURACY_UNITS}
    if tracer:
        metrics = layer_metrics(tracer, len(times), run_s, out_bytes)
        metrics.update(accuracy)
        units = {**LAYER_METRICS,
                 **{f"accuracy.{k}": v for k, v in ACCURACY_UNITS.items()}}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"run": tracer.run_id, "iterations": len(times),
             "spans": tracer.span_records()}) + "\n")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss_mb,
                   "mean_rel_err": scores[0]["mean_rel_err"]}
        units = END_TO_END_UNITS
    reported = {name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()}
    # accuracy the workload defines, and the failure share, for the reader
    extras = {f"accuracy.{name}": {"value": value, "unit": ACCURACY_UNITS[name]}
              for name, value in scores[0].items()}
    extras["failed_ratio"] = {"value": failed / attempted, "unit": "fraction"}
    return failures, attempted, failed, reported, extras, digests.pop()


def main(argv=None):
    check_source()
    args = parse_args(argv)
    if args.setup_only:
        setup_once(args.workload, args.seed)
        return 0
    failures, attempted, failed, metrics, extras, digest = measure(args)
    for message in failures:
        print(f"FAILED: {message}")
    for name, entry in {**metrics, **extras}.items():
        print(f"{args.workload} {name} {entry['value']!r} {entry['unit']}")
    print(f"{args.workload} digest {digest}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
