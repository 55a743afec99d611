"""Run the benchmark over a range of seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and seed it runs ``run.py`` in a fresh process, then
prints, per metric, the median and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median. With ``--out`` it also writes every value, the output
digests and the environment to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    accuracy, digest, env = {}, None, None
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        parts = rest.split()
        if head == "environment":
            env = json.loads(rest)
        elif head == workload and parts[0] == "digest":
            digest = parts[1]
        elif head == workload and parts[0].startswith("accuracy."):
            accuracy[parts[0]] = float(parts[1])
    return result, accuracy, digest, env


def spread(values):
    """Median, and quartile distance as a share of it (0 for one value or median 0)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, extras, digest, env = run_once(workload, seed, args.trace)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "metrics": values, "accuracy": extras,
                         "digest": digest})
            record["environment"] = env
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            median, share = spread([r["metrics"][name] for r in runs])
            summary[name] = {"median": median, "spread": share}
            bound = bounds.get(name)
            flag = "" if bound is None else \
                f" bound {bound} ({'ok' if share < bound / 3 else 'WIDE'})"
            print(f"{workload} {name}: median {median:.6g}, spread {share:.4f}{flag}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
