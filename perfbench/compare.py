#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change (stdlib only).

    python3 perfbench/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each argument is a run record written by perfbench/run.py (under
.bench_build/results/), a directory of them, or a captured run.py
stdout. Runs are grouped by workload and by trace mode; runs are paired
by seed where both sides ran the same seed, otherwise in the order given
(alternate which side runs first when you make them).

For every (workload, metric) it prints each side's median and quartiles
and a verdict, using the bounds in BENCHMARK.json and the pairs rule of
the choosing-metrics method:

  better      the change wins at least 9/10 of the pairs (ties count for
              neither), there are at least 10 pairs, and the medians
              differ by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound, and the parent's spread is within the
              bound (or every change run is worse than every parent run);
  same        neither: no gain shown, and no loss beyond the bound;
  unresolved  the parent's runs spread wider than the bound and the
              sides do not separate completely.

Per-layer metrics carry no bound; they get better/same from the pairs
rule alone, and "worse" when the mirror rule holds. The numeric details
of each record follow as unbounded rows. A detail whose direction is
known (detail_better below: times and latencies lower, read_qps higher)
gets a verdict the same way; the rest (counts such as builds or
compactions, settings such as offered_per_s) are printed without one.
Exits 1 when any end-to-end verdict is "worse", else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_run(path):
    with open(path) as f:
        text = f.read()
    try:
        rec = json.loads(text)
        if "meta" in rec and "metrics" in rec:
            return rec
    except json.JSONDecodeError:
        pass
    # A captured run.py stdout: "# meta {...}" plus the result line.
    meta, result, details = None, None, {}
    for line in text.splitlines():
        if line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
        elif line.startswith("# details "):
            details = json.loads(line[len("# details "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if meta is None or result is None:
        raise ValueError("%s: not a run record or run.py output" % path)
    result["meta"] = meta
    result["details"] = details
    return result


def expand(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            out += sorted(os.path.join(p, f) for f in os.listdir(p)
                          if f.endswith(".json"))
        else:
            out.append(p)
    return [load_run(p) for p in out]


# Details that are settings or workload counts, not figures of merit.
NO_VERDICT = ("offered_per_s", "generator_behind")
HIGHER_BETTER = ("read_qps",)
LOWER_BETTER = ("model_work", "model_depth", "boundary_fanout")


def detail_better(name):
    """"higher", "lower", or None when a detail has no better direction."""
    if name in NO_VERDICT:
        return None
    if name in HIGHER_BETTER or name.endswith("_per_s"):
        return "higher"
    if name in LOWER_BETTER or name.endswith(("_us", "_s")):
        return "lower"
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pair_up(parent, change):
    by_seed_p = {r["meta"]["seed"]: r for r in parent}
    by_seed_c = {r["meta"]["seed"]: r for r in change}
    common = sorted(set(by_seed_p) & set(by_seed_c))
    if len(common) == min(len(parent), len(change)):
        return [(by_seed_p[s], by_seed_c[s]) for s in common]
    return list(zip(parent, change))


def verdict(pv, cv, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    q1p, medp, q3p = quartiles(pv)
    _, medc, _ = quartiles(cv)
    spread = (q3p - q1p) / abs(medp) if medp else float("inf")
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    n = len(pairs)
    gap = abs(medc - medp)
    if n >= 10 and wins >= 0.9 * n and sign * (medc - medp) > 0 \
            and gap > (q3p - q1p):
        return "better"
    all_worse = all(sign * (c - p) < 0 for c in cv for p in pv)
    if bound is None:
        if n >= 10 and losses >= 0.9 * n and sign * (medc - medp) < 0 \
                and gap > (q3p - q1p):
            return "worse"
        return "same"
    worse_by = -sign * (medc - medp) / abs(medp) if medp else 0.0
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_worse and \
            not all(sign * (c - p) > 0 for c in cv for p in pv):
        return "unresolved"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=DEFAULT_BENCH)
    a = ap.parse_args()
    with open(a.benchmark) as f:
        bench = json.load(f)
    specs = {0: {m["name"]: m for m in bench["end_to_end"]},
             1: {m["name"]: m for m in bench["per_layer"]}}
    parent, change = expand(a.parent), expand(a.change)

    any_worse = False
    groups = sorted({(r["meta"]["workload"], r["meta"]["trace"])
                     for r in parent + change})
    for workload, trace in groups:
        p = [r for r in parent if (r["meta"]["workload"], r["meta"]["trace"])
             == (workload, trace)]
        c = [r for r in change if (r["meta"]["workload"], r["meta"]["trace"])
             == (workload, trace)]
        if not p or not c:
            print("## %s trace=%d: runs on one side only, skipped"
                  % (workload, trace))
            continue
        pairs = pair_up(p, c)
        flagged = [r["meta"]["seed"] for r in p + c
                   if r.get("details", {}).get("generator_behind")]
        stolen = [r["meta"]["seed"] for r in p + c
                  if (r["meta"].get("host_steal_pct") or 0) > 5.0]
        bad = [r["meta"]["seed"] for r in p + c if not r["correct"]]
        print("## %s trace=%d: %d parent runs, %d change runs, %d pairs"
              % (workload, trace, len(p), len(c), len(pairs)))
        if flagged:
            print("   generator fell behind in runs with seeds %s" % flagged)
        if stolen:
            print("   host stole over 5%% of the CPU in runs with seeds %s"
                  % stolen)
        if bad:
            print("   FAILED correctness gates in runs with seeds %s" % bad)
        print("   %-42s %-7s %12s %12s %12s %12s %12s %12s  %s" % (
            "metric", "unit", "parent q1", "median", "q3", "change q1",
            "median", "q3", "verdict"))
        for name, spec in specs[trace].items():
            pv = [r["metrics"][name]["value"] for r in p
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c
                  if name in r["metrics"]]
            if not pv or not cv:
                continue
            pp = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                  for x, y in pairs
                  if name in x["metrics"] and name in y["metrics"]]
            v = verdict(pv, cv, pp, spec["better"], spec.get("bound"))
            any_worse |= v == "worse" and trace == 0
            q1p, mp, q3p = quartiles(pv)
            q1c, mc, q3c = quartiles(cv)
            print("   %-42s %-7s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %s"
                  % (name, spec["unit"], q1p, mp, q3p, q1c, mc, q3c, v))
        details = sorted(set.intersection(*[
            {k for k, x in r.get("details", {}).items()
             if isinstance(x, (int, float))} for r in p + c]))
        for name in details:
            pv = [r["details"][name] for r in p]
            cv = [r["details"][name] for r in c]
            pp = [(x["details"][name], y["details"][name]) for x, y in pairs]
            better = detail_better(name)
            v = verdict(pv, cv, pp, better, None) if better else "-"
            q1p, mp, q3p = quartiles(pv)
            q1c, mc, q3c = quartiles(cv)
            print("   %-42s %-7s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %s"
                  % ("details." + name, "", q1p, mp, q3p, q1c, mc, q3c, v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
