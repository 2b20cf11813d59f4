#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload graph_build|serve_read|serve_churn \\
        --seed N --seconds S --trace 0|1 [--tiny] [--inject-fault]

Run from the repository root. Builds perfbench/ (CMake, into
.bench_build/perfbench) from the sources in the tree, runs one workload,
writes the full record to .bench_build/results/, and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits 0 when every correctness gate passed, 1 when one
failed, 2 when the benchmark could not run.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "sepdc_perfbench")
WORKLOADS = ("graph_build", "serve_read", "serve_churn")
# An untraced run is spread over this many processes, one input of the
# seed's family each, for an equal share of --seconds, and each process's
# set-up is a cold one. The cost of out-of-box reads depends on the index
# built over each input, and build time and peak memory vary from process
# to process; spreading a run over inputs and processes is what keeps its
# figures steady. serve_read's CPU time per answer differs by up to 1.7x
# from input to input, hence twenty of them; serve_churn's peak memory
# depends on the input (the hot shard's size), hence eight.
PROCESSES = {"graph_build": 5, "serve_read": 20, "serve_churn": 8}
# A run's metric is the median over its processes.
DEADLINE_S = 170.0
# Steal share above which a run is flagged as measured on a busy host.
STEAL_WARN_PCT = 5.0


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        die("library sources not found under %s/src" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")


def source_identity():
    """Commit when the tree is a git checkout, plus a digest of src/."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is
    missing. Steal is time the hypervisor gave this VM's CPUs to others."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_binary(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 5:
        die("out of time before the measuring run")
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("workload exceeded the %d s deadline" % DEADLINE_S)
    return proc


def merge(records):
    """One record from the per-process records of a run: sums of counts,
    medians of metrics and of numeric details."""
    if len(records) == 1:
        return records[0]
    out = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "violations": [v for r in records for v in r["violations"]],
        "meta": dict(records[0]["meta"], processes=len(records)),
        "metrics": {},
        "details": {},
        "processes": records,
    }
    for name, m in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        out["metrics"][name] = {"value": statistics.median(values),
                                "unit": m["unit"]}
    for name in records[0]["details"]:
        values = [r["details"].get(name) for r in records]
        if all(isinstance(v, (int, float)) for v in values):
            out["details"][name] = (max(values) if name == "generator_behind"
                                    else statistics.median(values))
    return out


def main():
    start = time.monotonic()
    deadline = start + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one checked answer (self-test)")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--work-dir", WORK_DIR]
    if a.tiny:
        common.append("--tiny")

    processes = 1 if a.trace else PROCESSES[a.workload]
    ticks0 = cpu_ticks()
    records = []
    for i in range(processes):
        cmd = common + ["--input", str(i), "--seconds",
                        repr(a.seconds / processes), "--trace", str(a.trace)]
        if a.inject_fault and i == 0:
            cmd.append("--inject-fault")
        proc = run_binary(cmd, deadline)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            die("workload process failed (exit %d)" % proc.returncode)
        records.append(json.loads(lines[-1]))
    record = merge(records)
    ticks1 = cpu_ticks()
    steal_pct = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal_pct = 100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])

    commit, src_digest = source_identity()
    record["meta"].update({"commit": commit, "source_sha256": src_digest,
                           "seconds": a.seconds, "host_steal_pct": steal_pct,
                           "run_py_wall_s": time.monotonic() - start})
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d-%s-%d.json" % (
        a.workload, a.seed, a.trace, stamp, os.getpid()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    print("# details " + json.dumps(record["details"], sort_keys=True))
    print("# record " + os.path.relpath(path, ROOT))
    for v in record["violations"]:
        print("# VIOLATION " + v)
    if steal_pct is not None and steal_pct > STEAL_WARN_PCT:
        print("# WARNING the host took %.1f%% of this VM's CPU time during "
              "the run; even its least-stolen samples may be slowed"
              % steal_pct)
    if record["details"].get("generator_behind"):
        print("# WARNING open-loop generator fell behind its schedule; "
              "this run's latencies are not comparable")
    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
