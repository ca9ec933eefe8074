"""Steadiness check: two sets of untraced runs of the same checkout.

Usage (from the root of a checkout):

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` in two sets of ten runs per workload, one run at
a time, with seeds 2000 to 2019 and the ``run_seconds`` of
BENCHMARK.json.  For every end-to-end metric it prints each set's median
and quartiles and the spread (interquartile distance over the median).
The check passes when every run is correct, every spread stays within the
metric's bound, and the two sets' medians differ by no more than the
bound, in either direction.  A spread under a third of the bound is
marked ``steady``.  Exits 1 when the check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # per set and workload
BASE_SEED = 2000


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def check(workload: str, bench: dict) -> bool:
    per_set = []
    ok = True
    for j in range(SETS):
        results = []
        for i in range(RUNS):
            result = one_run(workload, BASE_SEED + j * RUNS + i, bench["run_seconds"])
            ok &= result["correct"]
            results.append(result)
            print(f"  {workload} set {j + 1} run {i + 1}: correct={result['correct']}", file=sys.stderr)
        per_set.append(results)
    print(f"workload {workload}: {SETS} sets x {RUNS} runs, {bench['run_seconds']} s each")
    for metric in bench["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        rows = [summary([r["metrics"][name]["value"] for r in results]) for results in per_set]
        first = rows[0][0]
        for j, (median, q1, q3, spread) in enumerate(rows):
            worse = (median - first) / first if better == "lower" else (first - median) / first
            flags = []
            if spread > bound:
                flags.append("SPREAD>BOUND")
                ok = False
            elif spread < bound / 3:
                flags.append("steady")
            if abs(worse) > bound:
                flags.append("MEDIANS-DIFFER")
                ok = False
            print(
                f"  {name:12s} set {j + 1}: median {median:.6g} {metric['unit']}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  vs set 1 {worse:+.4f}  "
                f"bound {bound}  {' '.join(flags)}"
            )
    return ok


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ok = True
    for workload in bench["workloads"]:
        ok &= check(workload["name"], bench)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
