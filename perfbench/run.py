#!/usr/bin/env python3
"""End-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the repository's
libraries plus the ftc_perfbench binary) into .bench_build/perfbench, runs
the workload for about S seconds, and prints:

  * first, the run manifest (one JSON object: git sha, build type,
    compiler and flags, CPU model, nproc, engine width, seed, argv);
  * last, the result: {"correct", "attempted", "failed", "metrics"} with
    the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
    metrics (--trace 1).

It exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ftc_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def engine_width():
    return min(4, os.cpu_count() or 1)


def build():
    """Configures (when no build system was generated yet) and builds the
    benchmark binary. Output goes to .bench_build/perfbench/build.log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ftc_perfbench",
                  "-j", str(engine_width())])
    with open(log_path, "w") as log:
        for cmd in steps:
            log.write(f"$ {' '.join(cmd)}\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, raw):
    return {
        "record": "manifest",
        "git_sha": git_sha(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "cxx_flags": raw["cxx_flags"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "engine_width": raw["threads"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
    }


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=stats.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def main():
    args = parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no repository sources under {ROOT / 'src'}")
    spec, units = load_units()
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"ftc_perfbench exited with {proc.returncode}")
    raw = json.loads(proc.stdout)
    print(json.dumps(manifest(args, raw)))
    for error in raw["errors"]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    try:
        res = stats.result(raw, args.trace == 1, units)
    except (KeyError, ValueError) as e:
        fail(f"cannot compute metrics: {e!r}")
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(res["metrics"]) != wanted:
        fail(f"metric set mismatch: {sorted(set(res['metrics']) ^ wanted)}")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
