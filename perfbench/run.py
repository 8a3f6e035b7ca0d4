#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the memucost library from src/ plus the benchmark program) in
Release under $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs rebuild only what changed. Build output goes to stderr. The last line
of stdout is the benchmark's JSON result; a traced run also writes its
spans to <build dir>/traces/. --smoke and --wrong-reference are for the
self-tests in perfbench/tests/.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["explore-cas4", "explore-par", "fuzz-faults", "prove-fig1"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "memu_perfbench"],
    ]
    # One build at a time per build directory.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if cmd[1] == "-S" and (out / "CMakeCache.txt").exists():
                continue
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                fail("build failed: " + " ".join(cmd))
    return out / "memu_perfbench"


def commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-tests")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="check against perturbed references (self-tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for need in ["src/CMakeLists.txt", "bench/fig1/fig1_data.csv"]:
        if not (ROOT / need).is_file():
            fail(f"{need} is missing; run from a full checkout of the "
                 "repository")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fig1-csv", str(ROOT / "bench/fig1/fig1_data.csv"),
           "--commit", commit()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
