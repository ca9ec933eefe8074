"""Benchmark of htgroth: one workload per run, metrics by name with units.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify,tables,towers} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics untraced.  With
``--trace 1`` it runs the ops untraced for half the time, replays the same
ops with span wrappers on every layer, reports the per-layer metrics and
writes the spans to ``.perfbench_out/``.  Every op checks its own output;
a failed check or an exception counts as a failed op.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_ROUNDS = 100  # kernel rounds measured before and after each set-up
MAX_ERRORS_SHOWN = 5


@dataclass
class Loop:
    """Outcome of one closed loop of ops.

    ``durations`` are the raw wall times of the ops; ``slowness`` holds, per
    op, the machine's slowness next to it (see :func:`calibrate.slowness`).
    """

    durations: list[float] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)
    failed: int = 0

    def normalized(self) -> list[float]:
        """Op times at reference speed."""
        return [d / f for d, f in zip(self.durations, self.slowness)]


def timed_loop(workload, phase: int, seconds: float | None = None, count: int | None = None, tracer=None) -> Loop:
    """Run ops back to back, for ``seconds`` or for exactly ``count`` ops.

    In-process ops alternate with runs of the reference kernel, and each op
    is paired with the median slowness of the six kernel runs around it:
    one short kernel run is noisy, and an op paired with a fast outlier
    would be pushed into the tail.  An op in a child process measures its
    own time and slowness and returns them.
    """
    loop = Loop()
    traced_here = tracer is not None and workload.in_process
    rounds = workload.calibration_rounds
    kernels = [calibrate.slowness(rounds)] if workload.in_process else []
    start = time.perf_counter()
    k = 0
    while (k < count) if count is not None else (k == 0 or time.perf_counter() - start < seconds):
        if traced_here:
            tracer.begin_op(k)
        own = None
        t0 = time.perf_counter()
        try:
            own = workload.op(k, phase)
        except Exception as exc:  # any failure of an op is counted, never fatal
            loop.failed += 1
            if loop.failed <= MAX_ERRORS_SHOWN:
                print(f"op {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        wall = time.perf_counter() - t0
        if traced_here:
            tracer.end_op()
        if workload.in_process:
            kernels.append(calibrate.slowness(rounds))
            loop.durations.append(wall)
        elif own is not None:
            loop.durations.append(own[0])
            loop.slowness.append(own[1])
        else:  # the child failed before it reported its timing
            loop.durations.append(wall)
            loop.slowness.append(calibrate.slowness(rounds))
        k += 1
    if workload.in_process:
        loop.slowness = [statistics.median(kernels[max(0, i - 2) : i + 4]) for i in range(k)]
    return loop


def tail(durations: list[float], level: float) -> tuple[float, str]:
    """The workload's tail percentile (nearest rank) and its label.

    ``level`` is the highest standard percentile that leaves at least ten
    samples beyond it at the workload's usual sample count; it is fixed per
    workload so runs stay comparable.  A run with too few samples for it
    falls back to the next level that has ten beyond, else to the maximum.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for lv in [level] + [lv for lv in TAIL_LEVELS if lv < level]:
        rank = math.ceil(lv / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{lv:g}"
    return ordered[-1], "max"


def end_to_end(workload, setup: Loop, loop: Loop) -> tuple[dict, dict]:
    done = len(loop.durations) - loop.failed
    times = loop.normalized()
    tail_s, level = tail(times, workload.tail_level)
    values = {
        "setup_s": statistics.median(setup.normalized()),
        "ops_per_s": done / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    n = len(times)
    raw_tail, _ = tail(loop.durations, workload.tail_level)
    notes = {
        "setup_s": f"median of {len(setup.durations)} set-ups; raw {statistics.median(setup.durations):.6g} s",
        "ops_per_s": f"{done} ops; raw {done / sum(loop.durations):.6g} 1/s",
        "op_p50_ms": f"n={n}; raw {statistics.median(loop.durations) * 1e3:.6g} ms",
        "op_tail_ms": f"{level}, n={n}; raw {raw_tail * 1e3:.6g} ms",
        "peak_rss_mb": "peak over the child processes" if not workload.in_process else "this process",
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, notes


def environment(threads_env: str | None) -> str:
    src = ROOT / "src" / "htgroth"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (
        f"python={platform.python_version()} nproc={os.cpu_count()} commit={git_commit()} "
        f"src_sha256={digest.hexdigest()[:16]} HT_GROTH_THREADS={threads_env or 'unset'}->default(1) "
        f"load=closed-loop clients=1 threads=1"
    )


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Set up, measure and return the result (plus notes for the report).

    A traced run writes its spans to ``out_dir``.
    """
    setup = Loop()
    for _ in range(workload.setup_reps):
        before = calibrate.slowness(SETUP_ROUNDS)
        t0 = time.perf_counter()
        workload.setup(seed)
        setup.durations.append(time.perf_counter() - t0)
        setup.slowness.append((before + calibrate.slowness(SETUP_ROUNDS)) / 2)
    if not trace:
        loop = timed_loop(workload, 0, seconds=seconds)
        metrics, notes = end_to_end(workload, setup, loop)
        attempted, failed = len(loop.durations), loop.failed
        extra = {"machine slowness (median)": statistics.median(loop.slowness)}
    else:
        untraced = timed_loop(workload, 0, seconds=seconds / 2)
        tracer = spans.Tracer()
        workload.install_tracer(tracer, out_dir)
        traced = timed_loop(workload, 1, count=len(untraced.durations), tracer=tracer)
        if workload.in_process:
            tracer.finish()
        metrics = spans.layer_metrics(
            tracer,
            traced_s=sum(traced.normalized()),
            untraced_s=sum(untraced.normalized()),
            slowness=statistics.median(traced.slowness),
        )
        notes = {}
        path = out_dir / f"trace-{workload.name}-seed{seed}.jsonl.gz"
        tracer.write(path)
        attempted = len(untraced.durations) + len(traced.durations)
        failed = untraced.failed + traced.failed
        extra = {"spans written to": path}
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "extra": extra,
    }


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = []
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        lines.append(f"{name:34s} {m['value']:>14.6g} {m['unit']:9s} {note}".rstrip())
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"{'op_fail_ratio':34s} {failed / attempted:>14.6g} {'ratio':9s} {failed}/{attempted} ops failed")
    for key, value in result["extra"].items():
        lines.append(f"{key}: {value}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "htgroth" / "__init__.py").is_file():
        print(f"perfbench: no htgroth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    threads_env = os.environ.pop("HT_GROTH_THREADS", None)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env {environment(threads_env)}")
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    imported = Path(sys.modules["htgroth"].__file__).resolve()
    if ROOT / "src" not in imported.parents:
        print(f"perfbench: imported htgroth from {imported}, not from this checkout", file=sys.stderr)
        return 2
    for line in report(result):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
