#!/usr/bin/env python3
"""Steadiness pass: runs the benchmark on several seeds per workload and
prints, for every metric, the quartile spread (q3 - q1) / median of its
per-run values and their median.

    python3 perfbench/steady.py [--seeds 10] [--trace 0]

Run from the root of a checkout. Each run takes run_seconds from
BENCHMARK.json plus its set-up, so ten seeds on three workloads take about
twenty minutes. End-to-end spreads are compared against a third of each
metric's bound (the steadiness target) and against the bound itself.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"{workload} seed {seed}: run failed")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {res['failed']} failed ops")
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = stats.median(vals)
            spread = stats.relative_spread(vals) if med and len(vals) > 1 else 0.0
            verdict = ""
            if name in bounds and name != "setup_s":
                bound = bounds[name]
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO NOISY")
                ok = ok and spread <= bound
            print(f"  {name:36s} median={med:<14.6g} spread={spread:.4f} {verdict}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
