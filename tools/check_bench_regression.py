#!/usr/bin/env python3
"""The one bench checker: re-evaluates every gate recorded in the named
BENCH_*.json artifacts and compares their tracked fields with the committed
baselines. It names no bench; each artifact carries its own contract
(BenchReport in bench/paper_harness.h; format in docs/OBSERVABILITY.md):

  * schema: bench, config, non-empty rows, gates;
  * gates: every {name, lhs, op, rhs} must hold; the stored "ok" is ignored;
  * compare (optional): a baseline of a different config is refused as a
    "config mismatch"; otherwise rows match by key. Every baseline row must
    still exist (with "subset", only shared keys are compared) and keep
    every field it had, and each tracked field must stay exact or within
    its tolerance in the worse direction.

Usage:  check_bench_regression.py <bench-out-dir> BENCH_a.json [...]
                                  [--baselines DIR]

Exit codes: 0 ok; 1 a failed gate, a malformed or missing artifact, or a
PERF REGRESSION; 3 a config mismatch and nothing worse. To refresh a
baseline on purpose, rerun the bench with RITAS_BENCH_RUNS=3, copy the
JSON over bench/baselines/ and explain the shift in EXPERIMENTS.md.
"""

import argparse
import json
import operator
import sys
from pathlib import Path

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
EXIT_FAIL, EXIT_CONFIG_MISMATCH = 1, 3


class Malformed(Exception):
    pass


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise Malformed(f"unreadable: {e}")
    for key, kind in (("bench", str), ("config", dict), ("rows", list),
                      ("gates", list)):
        if not isinstance(doc.get(key), kind):
            raise Malformed(f"missing or malformed '{key}'")
    for key in ("rows", "gates"):
        if not doc[key]:
            raise Malformed(f"no {key}")
    return doc


def index_rows(doc: dict, spec: dict) -> dict:
    where = spec.get("where", {})
    out = {}
    for row in doc["rows"]:
        if any(row.get(f) != v for f, v in where.items()):
            continue
        try:
            out[tuple(row[k] for k in spec["key"])] = row
        except KeyError as e:
            raise Malformed(f"row missing key field {e}: {row}")
    return out


def within(rule: dict, got, want) -> bool:
    if rule.get("exact"):
        return got == want
    tol = rule["tolerance"]
    if rule["better"] == "higher":
        return got >= want * (1.0 - tol)
    return got <= want * (1.0 + tol)


def check(name: str, out_dir: Path, base_dir: Path, fail: list,
          regress: list, mismatch: list) -> None:
    try:
        doc = load(out_dir / name)
    except Malformed as e:
        fail.append(f"{name}: {e}")
        return
    for g in doc["gates"]:
        try:
            ok = OPS[g["op"]](g["lhs"], g["rhs"])
            claim = f"{g['name']}: {g['lhs']} {g['op']} {g['rhs']}"
        except (KeyError, TypeError):
            fail.append(f"{name}: malformed gate {g}")
            continue
        print(f"{name} gate {claim} {'ok' if ok else 'FAIL'}")
        if not ok:
            fail.append(f"{name}: gate {claim} does not hold")

    spec = doc.get("compare")
    if spec is None:
        return
    try:
        base = load(base_dir / name)
        if base["config"] != doc["config"]:
            mismatch.append(f"{name}: config mismatch: {doc['config']} vs "
                            f"baseline {base['config']}")
            return
        compare(name, spec, index_rows(doc, spec), index_rows(base, spec),
                fail, regress)
    except Malformed as e:
        fail.append(f"{name}: {e}")
    except (KeyError, TypeError, AttributeError) as e:
        fail.append(f"{name}: malformed compare spec {spec}: {e!r}")


def compare(name: str, spec: dict, fresh: dict, old: dict, fail: list,
            regress: list) -> None:
    keys = sorted(set(fresh) & set(old)) if spec.get("subset") else sorted(old)
    if not keys:
        regress.append(f"{name}: no rows shared with the baseline")
    for key in keys:
        brow, frow = old[key], fresh.get(key)
        if frow is None:
            regress.append(f"{name} {key}: row disappeared")
            continue
        lost = sorted(set(brow) - set(frow))
        if lost:
            fail.append(f"{name} {key}: fields disappeared: {lost}")
        for field, rule in spec["fields"].items():
            if field not in brow or field not in frow:
                continue
            got, want = frow[field], brow[field]
            ok = within(rule, got, want)
            bound = ("exact" if rule.get("exact") else
                     f"{rule['better']} is better, tolerance "
                     f"{rule['tolerance']:.0%}")
            print(f"{name} {key} {field}: {got} vs baseline {want} "
                  f"({bound}) {'ok' if ok else 'REGRESSED'}")
            if not ok:
                regress.append(f"{name} {key}: {field} {got} vs baseline "
                               f"{want} ({bound})")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("bench_dir", type=Path,
                    help="directory holding the freshly produced artifacts")
    ap.add_argument("artifacts", nargs="+",
                    help="expected artifact file names (BENCH_<name>.json)")
    ap.add_argument("--baselines", type=Path, default=Path("bench/baselines"),
                    help="directory holding the committed baseline JSONs")
    args = ap.parse_args()

    fail, regress, mismatch = [], [], []
    for name in args.artifacts:
        check(name, args.bench_dir, args.baselines, fail, regress, mismatch)

    for title, items in (("FAIL", fail), ("PERF REGRESSION", regress),
                         ("CONFIG MISMATCH", mismatch)):
        if items:
            print(f"\n{title}:", file=sys.stderr)
            for item in items:
                print(f"  {item}", file=sys.stderr)
    if fail or regress:
        return EXIT_FAIL
    if mismatch:
        return EXIT_CONFIG_MISMATCH
    print(f"\n{len(args.artifacts)} artifacts: every gate holds and every "
          "tracked figure is within its baseline bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
