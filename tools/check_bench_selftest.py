#!/usr/bin/env python3
"""Self-test for check_bench_regression.py on doctored committed baselines.

Copies bench/baselines/*.json into a temp dir as "fresh" artifacts, edits
one thing at a time, and asserts the checker's verdict: unchanged artifacts
pass; a gate whose lhs now violates its rhs fails although its stored "ok"
says true, the `oracles` gate (a failed property oracle) included; a
changed config is a "config mismatch" (exit 3, never PERF
REGRESSION); +30% on a tracked latency is a PERF REGRESSION; a dropped row
fails. Run: python3 tools/check_bench_selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKER = ROOT / "tools" / "check_bench_regression.py"
BASELINES = ROOT / "bench" / "baselines"
ARTIFACTS = sorted(p.name for p in BASELINES.glob("BENCH_*.json"))


def run_checker(fresh: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECKER), str(fresh), *ARTIFACTS,
         "--baselines", str(BASELINES)],
        capture_output=True, text=True)


def doctored(edit) -> subprocess.CompletedProcess:
    """Runs the checker on baseline copies after `edit(docs)` mutated them."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        docs = {name: json.loads((BASELINES / name).read_text())
                for name in ARTIFACTS}
        edit(docs)
        for name, doc in docs.items():
            (fresh / name).write_text(json.dumps(doc))
        return run_checker(fresh)


def expect(label: str, proc, code: int, text: str = "",
           absent: str = "") -> bool:
    out = proc.stdout + proc.stderr
    ok = (proc.returncode == code and text in out and
          (not absent or absent not in out))
    print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {proc.returncode}")
    if not ok:
        print(out)
    return ok


def break_gate(docs):
    gate = docs["BENCH_buffer.json"]["gates"][0]
    assert gate["op"] == "<" and gate["ok"] is True, gate
    gate["lhs"] = gate["rhs"]  # violates "<"; the stored ok stays true


def break_oracles(docs):
    gate = next(g for g in docs["BENCH_ablation.json"]["gates"]
                if g["name"] == "oracles")
    assert gate["lhs"] is True and gate["ok"] is True, gate
    gate["lhs"] = False  # a violated oracle; the stored ok stays true


def more_runs(docs):
    docs["BENCH_variants.json"]["config"]["runs"] = 5


def slower(docs):
    row = next(r for r in docs["BENCH_variants.json"]["rows"]
               if not r["skipped"])
    row["rb_latency_us"] *= 1.3


def drop_row(docs):
    docs["BENCH_fig4_failure_free.json"]["rows"].pop()


def main() -> int:
    if not ARTIFACTS:
        print(f"no baselines under {BASELINES}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name in ARTIFACTS:
            shutil.copy(BASELINES / name, tmp)
        unchanged = run_checker(Path(tmp))
    results = [
        expect("unchanged artifacts pass", unchanged, 0),
        expect("violated gate fails despite its stored ok",
               doctored(break_gate), 1, "does not hold"),
        expect("failed oracles gate fails despite its stored ok",
               doctored(break_oracles), 1, "oracles: False == True does not hold"),
        expect("runs 3 -> 5 is a config mismatch", doctored(more_runs), 3,
               "config mismatch", absent="PERF REGRESSION"),
        expect("+30% tracked latency is a regression", doctored(slower), 1,
               "PERF REGRESSION"),
        expect("dropped row fails", doctored(drop_row), 1, "row disappeared"),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
