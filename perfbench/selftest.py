#!/usr/bin/env python3
"""Self-test of the repository benchmark (stdlib only).

    python3 perfbench/selftest.py

Runs from the repository root, in well under a minute:
  1. checks BENCHMARK.json against the limits of its format;
  2. runs every workload with --tiny, untraced and traced, and checks that
     the result line has exactly the keys correct/attempted/failed/metrics
     and every metric BENCHMARK.json names, with its unit;
  3. runs every workload with --inject-fault and checks that the
     correctness gate fires (correct false, failed > 0, exit status 1);
  4. checks that run.py, copied without the library sources, exits
     non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL " + what)


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(bench["paths"]) <= 16, "paths count")
    check(isinstance(bench["run_seconds"], int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "names are unique")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and NAME.match(w["name"]), "workload " + w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, "end_to_end " + m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per_layer " + m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"])
              and m["better"] in ("lower", "higher"), "metric " + m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s present, in s, lower, with the largest bound")


def run(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(tag, res, specs, nonzero):
    check(res is not None and set(res) == {"correct", "attempted", "failed",
                                           "metrics"}, tag + ": result keys")
    if res is None:
        return
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1
          and isinstance(res["failed"], int), tag + ": attempted/failed")
    got = res["metrics"]
    check(set(got) == set(specs), tag + ": metric names %s" %
          sorted(set(got) ^ set(specs)))
    for name, spec in specs.items():
        if name not in got:
            continue
        v = got[name]
        check(set(v) == {"value", "unit"} and v["unit"] == spec["unit"],
              tag + ": unit of " + name)
        check(isinstance(v["value"], (int, float))
              and math.isfinite(v["value"]), tag + ": value of " + name)
        if nonzero:
            check(v["value"] != 0, tag + ": " + name + " is zero")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_benchmark_json(bench)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}

    # Every workload run.py knows, including any BENCHMARK.json leaves out.
    for w in ("graph_build", "serve_read", "serve_churn"):
        for trace, specs in ((0, e2e), (1, layers)):
            proc = run(ROOT, w, trace, "--tiny")
            tag = "%s trace=%d" % (w, trace)
            check(proc.returncode == 0, tag + ": exit %d\n%s" % (
                proc.returncode, proc.stderr[-2000:]))
            res = result_line(proc)
            check_metrics(tag, res, specs, nonzero=trace == 0)
            check(res is not None and res["correct"] and res["failed"] == 0,
                  tag + ": correctness gates passed")
            print("ok   " + tag)
        proc = run(ROOT, w, 0, "--tiny", "--inject-fault")
        res = result_line(proc)
        check(proc.returncode == 1 and res is not None
              and res["correct"] is False and res["failed"] >= 1,
              w + ": injected wrong row is caught")
        print("ok   %s injected fault caught" % w)

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare checkout: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare checkout refused")

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILURES" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
