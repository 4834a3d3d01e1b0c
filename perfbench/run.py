#!/usr/bin/env python3
"""Builds and runs the SOFYA end-to-end benchmark (perfbench/perfbench.cc).

One run:
    python3 perfbench/run.py --workload t1_onthefly --seed 1 --seconds 30 --trace 0

Repeatability report (every workload with seeds 1 to 10, untraced):
    python3 perfbench/run.py --report --seconds 30

Run it from the repository root. The library and the perfbench program are
built from source with CMake into $CARGO_TARGET_DIR (default .bench_build) on
first use.
The last line of a run's standard output is the result JSON. The run fails
(exit 1) when the program's own correctness gates fail, or when the query
and row counts or the verdict fingerprint differ from an earlier run of the
same perfbench binary with the same workload and seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("t1_onthefly", "t1_http", "t1_churn")
REPORT_SEEDS = range(1, 11)
RUN_TIMEOUT_S = 175


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configures (once) and builds perfbench; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out / "perfbench"


def check_identity(binary, identity):
    """Counts and fingerprint must repeat across runs of one binary, workload
    and seed. Keying on the binary's digest keeps a build of other code, which
    may legitimately change the counts, from being compared with this one."""
    record_path = build_dir() / "perfbench_identity.json"
    records = {}
    if record_path.exists():
        records = json.loads(record_path.read_text())
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    key = "%s/%s/%s" % (digest, identity["workload"], identity["seed"])
    if key in records and records[key] != identity:
        print("identity changed since an earlier run of %s: %s vs %s"
              % (key, identity, records[key]), file=sys.stderr)
        return False
    records[key] = identity
    record_path.write_text(json.dumps(records, indent=1, sort_keys=True))
    return True


def run_once(binary, workload, seed, seconds, trace):
    """Runs perfbench once; returns (exit code, result dict or None)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    identity = result = None
    for line in lines:
        if line.startswith("identity "):
            identity = json.loads(line[len("identity "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if proc.returncode != 0 or identity is None or result is None:
        return proc.returncode or 1, result
    if not check_identity(binary, identity):
        result["correct"] = False
        return 1, result
    return 0, result


def report(binary, seconds):
    for workload in WORKLOADS:
        values = {}
        units = {}
        for seed in REPORT_SEEDS:
            code, result = run_once(binary, workload, seed, seconds, 0)
            if code != 0:
                print("%s seed %d failed (exit %d)" % (workload, seed, code))
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)
        print("\n%s, %d runs of %ss" % (workload, len(REPORT_SEEDS), seconds))
        print("%-22s %12s %12s %12s %9s %9s" % (
            "metric", "median", "q1", "q3", "iqr/med", "max/min"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("%-22s %12.6g %12.6g %12.6g %9.4f %9.4f  %s" % (
                name, med, q1, q3, (q3 - q1) / med if med else 0.0,
                max(vals) / min(vals) if min(vals) else 0.0, units[name]))
        print(flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if not args.report and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print("build failed: %s" % err, file=sys.stderr)
        return 1
    if args.report:
        return report(binary, args.seconds)

    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
