#!/usr/bin/env python3
"""Judges ritas_bench results against BENCHMARK.json.

    compare.py pairs DIR [--manifest BENCHMARK.json]
        DIR holds parent_<workload>_<seed>.json and change_<workload>_<seed>.json,
        each the result line of one run (run_pairs.sh writes them). For every
        (metric, workload) it prints each side's median and quartiles and a
        verdict:
          gain        the change is better in >= 9/10 of the pairs and the medians
                      differ by more than the parent's interquartile range
          regression  the change's median is worse than the parent's by more
                      than the metric's bound
          unresolved  the parent's own spread exceeds the bound, or the metric
                      is printed as "not gated" and has none, so "no worse"
                      cannot be shown (unless every change run beats every
                      parent run)
          same        within the bound
        A change that fails more ops than the parent, or fails a correctness
        check, is refused whatever the metrics say. Exit status 1 on any
        regression or refusal.

    compare.py calibrate DIR [DIR...] [--manifest BENCHMARK.json] [--write]
        Each DIR holds run_<workload>_<seed>.json for seeds 1-10 of one commit
        (calibrate.sh writes them). For each end-to-end metric, declared or
        printed as "not gated", it derives the bound max(10%, 3 x the 10-run
        spread, the gap between the medians of seeds 1-5 and 6-10), taking the
        largest over workloads and directories; spread is the interquartile
        range over the median. A metric needing at most 25% can be gated;
        one needing more must be printed only. setup_s must be declared
        whatever it needs, and gets the largest bound of the gated metrics.
        Exit status 1 when the declared metrics differ from those the data
        support. --write stores the bounds in the manifest, only when they
        do not differ.
"""
import argparse
import glob
import json
import math
import os
import re
import statistics
import sys

MAX_BOUND = 0.25
MIN_BOUND = 0.10
NOT_GATED = re.compile(r"# not gated: (\S+) (\S+) (\S+) (lower|higher)$", re.MULTILINE)


def load_manifest(path):
    with open(path) as f:
        return json.load(f)


def load_runs(directory, prefix):
    """{workload: {seed: result}} for files named <prefix>_<workload>_<seed>.json.

    The .log beside each file is read too: a run it says measured the host
    rather than the program is left out and named on stdout, and the
    metrics it prints as "not gated" join the result's metrics."""
    runs = {}
    pattern = re.compile(re.escape(prefix) + r"_(.+)_(\d+)\.json$")
    for path in glob.glob(os.path.join(directory, prefix + "_*.json")):
        m = pattern.search(os.path.basename(path))
        if not m:
            continue
        log_path = path[:-len(".json")] + ".log"
        log = ""
        if os.path.exists(log_path):
            with open(log_path) as f:
                log = f.read()
        if "INVALID RUN" in log:
            print(f"{os.path.basename(log_path)}: invalid run, left out")
            continue
        with open(path) as f:
            text = f.read().strip()
        try:
            result = json.loads(text.splitlines()[-1]) if text else None
        except json.JSONDecodeError:
            result = None
        if result and "metrics" in result:
            for name, value, unit, direction in NOT_GATED.findall(log):
                result["metrics"][name] = {"value": float(value), "unit": unit, "better": direction}
        runs.setdefault(m.group(1), {})[int(m.group(2))] = result
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def values(runs, name):
    return {seed: r["metrics"][name]["value"] for seed, r in runs.items()
            if r and name in r.get("metrics", {})}


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def pairs(args):
    manifest = load_manifest(args.manifest)
    parent = load_runs(args.dirs[0], "parent")
    change = load_runs(args.dirs[0], "change")
    # End-to-end metrics printed as "not gated" have a direction but no bound.
    printed = {name: {"better": v["better"]}
               for side in (parent, change) for runs in side.values() for r in runs.values()
               if r for name, v in r.get("metrics", {}).items() if "better" in v}
    metrics = {**printed, **{m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}}
    refused = False
    for w in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(w, {}), change.get(w, {})
        bad = [s for s, r in c_runs.items() if r is None or not r.get("correct")]
        if bad:
            print(f"{w}: REFUSED: change runs with failed checks or no result: seeds {sorted(bad)}")
            refused = True
        p_failed = sum(r["failed"] for r in p_runs.values() if r)
        c_failed = sum(r["failed"] for r in c_runs.values() if r)
        if c_failed > p_failed:
            print(f"{w}: REFUSED: change failed {c_failed} ops, parent {p_failed}")
            refused = True
        names = [n for n in metrics if values(p_runs, n) and values(c_runs, n)]
        for name in names:
            m = metrics[name]
            pv, cv = values(p_runs, name), values(c_runs, name)
            seeds = sorted(set(pv) & set(cv))
            if not seeds:
                continue
            ps, cs = [pv[s] for s in seeds], [cv[s] for s in seeds]
            pq, cq = quartiles(ps), quartiles(cs)
            wins = sum(better(cv[s], pv[s], m["better"]) for s in seeds)
            p_iqr = pq[2] - pq[0]
            gap = cq[1] - pq[1]
            worse_by = (gap if m["better"] == "lower" else -gap) / pq[1] if pq[1] else 0.0
            bound = m.get("bound")
            if wins >= math.ceil(0.9 * len(seeds)) and better(cq[1], pq[1], m["better"]) \
                    and abs(gap) > p_iqr and c_failed <= p_failed:
                verdict = "gain"
            elif bound is None and name not in printed:
                verdict = "-"
            elif bound is None or (pq[1] and p_iqr / pq[1] > bound):
                all_better = all(better(c, p, m["better"]) for c in cs for p in ps)
                verdict = "better" if all_better else "unresolved"
            elif worse_by > bound:
                verdict = "regression"
                refused = True
            else:
                verdict = "same"
            print(f"{w:12s} {name:32s} parent {pq[1]:11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"  change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"  wins {wins}/{len(seeds)}  {verdict}")
    return 1 if refused else 0


def format_manifest(doc):
    """BENCHMARK.json in its committed layout: one line per list entry."""
    def entries(key):
        return ",\n".join("    " + json.dumps(e) for e in doc[key])
    return "\n".join([
        "{",
        f'  "command": {json.dumps(doc["command"])},',
        f'  "paths": {json.dumps(doc["paths"])},',
        f'  "run_seconds": {doc["run_seconds"]},',
        '  "workloads": [', entries("workloads"), "  ],",
        '  "end_to_end": [', entries("end_to_end"), "  ],",
        '  "per_layer": [', entries("per_layer"), "  ]",
        "}",
    ]) + "\n"


def calibrate(args):
    manifest = load_manifest(args.manifest)
    declared = [m["name"] for m in manifest["end_to_end"]]
    needs = {}
    for directory in args.dirs:
        runs = load_runs(directory, "run")
        for w in sorted(runs):
            names = {n for r in runs[w].values() if r for n in r.get("metrics", {})}
            for name in sorted(names):
                v = values(runs[w], name)
                if len(v) < 4:
                    continue
                q1, med, q3 = quartiles(list(v.values()))
                spread = (q3 - q1) / med if med else 0.0
                a = [x for s, x in v.items() if s <= 5]
                b = [x for s, x in v.items() if s > 5]
                gap = abs(statistics.median(b) - statistics.median(a)) / statistics.median(a) \
                    if a and b and statistics.median(a) else 0.0
                need = max(3 * spread, gap)
                needs[name] = max(needs.get(name, MIN_BOUND), need)
                print(f"{directory} {w:12s} {name:16s} median {med:11.5g}  spread {spread:6.3f}"
                      f"  seeds 1-5 vs 6-10 gap {gap:6.3f}  needs {need:6.3f}")
    bounds = {name: math.ceil(need * 100) / 100 for name, need in needs.items()}
    gate = {name for name, b in bounds.items() if b <= MAX_BOUND} | {"setup_s"}
    if "setup_s" in bounds:
        bounds["setup_s"] = max(bounds[n] for n in gate if n in bounds)
    mismatch = False
    for name, b in sorted(bounds.items()):
        if b > MAX_BOUND and name == "setup_s":
            verdict = "UNSUPPORTED: BENCHMARK.json must declare setup_s, but its spread needs more than 0.25"
        elif b > MAX_BOUND:
            verdict = "print only"
        else:
            verdict = "gate"
        if name in gate and b <= MAX_BOUND and name not in declared:
            verdict += " (PROMOTE: printed only now)"
        elif name not in gate and name in declared:
            verdict += " (DEMOTE: declared now)"
        mismatch = mismatch or "UNSUPPORTED" in verdict or "PROMOTE" in verdict or "DEMOTE" in verdict
        print(f"bound {name}: {b:.2f}  {verdict}")
    if mismatch:
        return 1
    if args.write:
        for m in manifest["end_to_end"]:
            m["bound"] = bounds[m["name"]]
        with open(args.manifest, "w") as f:
            f.write(format_manifest(manifest))
        print(f"wrote bounds to {args.manifest}")
    return 0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["pairs", "calibrate"])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--manifest", default=os.path.join(here, "..", "BENCHMARK.json"))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.mode == "pairs":
        if len(args.dirs) != 1:
            parser.error("pairs takes one DIR")
        return pairs(args)
    return calibrate(args)


if __name__ == "__main__":
    sys.exit(main())
