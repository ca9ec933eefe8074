"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name: str, tmp_path: Path, **kwargs):
    """The named workload at a tiny size (verify checks --max 6)."""
    if name == "verify":
        return workloads.VerifyWorkload(ROOT, max_n=6, **kwargs)
    return workloads.WORKLOADS[name](ROOT, **kwargs)


def test_benchmark_json_names_the_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER_UNITS)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER_UNITS.values())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(name, tmp_path):
    result = run.run(tiny(name, tmp_path), seed=3, seconds=0.2, trace=False)
    assert result["failed"] == 0 and result["attempted"] >= 1
    lines = run.report(result)
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split() for line in lines)
    assert any(line.split()[:3] == ["op_fail_ratio", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = run.run(tiny(name, tmp_path), seed=3, seconds=0.2, trace=True, out_dir=tmp_path)
    assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spans.PER_LAYER_UNITS
    lines = run.report(result)
    for metric in SPEC["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split() for line in lines)
    with gzip.open(tmp_path / f"trace-{name}-seed3.jsonl.gz", "rt") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0]["fields"] == ["op", "name", "start_ns", "end_ns", "parent"]
    ops = result["metrics"]["trace.ops"]["value"]
    assert len(lines) - 2 == pytest.approx(result["metrics"]["trace.spans"]["value"] * ops)
    assert "counts" in lines[-1]


def test_corrupted_reference_digest_fails_the_op(tmp_path):
    good = tiny("tables", tmp_path)
    good.setup(seed=5)
    assert run.timed_loop(good, 0, count=4).failed == 0
    digests = [list(pair) for pair in good.digests]
    idx, ext = good.stream[0]
    digests[idx][ext] = "0" * 64
    bad = tiny("tables", tmp_path, digests=digests)
    bad.setup(seed=5)
    loop = run.timed_loop(bad, 0, count=4)
    assert loop.failed == 1 and loop.failed / len(loop.durations) > 0


def test_forced_euler_failure_fails_tables_ops(tmp_path):
    w = tiny("tables", tmp_path)
    w.setup(seed=5)
    coh = w.mods["cohomology"]
    monkey = lambda profile, pi, r: coh.GrothElement.of(coh.IrreducibleLabel.unit())  # noqa: E731
    coh.euler_shriek_profile_expansion = monkey
    loop = run.timed_loop(w, 0, count=40)
    assert 0 < loop.failed < 40  # only the established-shape profiles run the Euler check


def test_forced_conj2_failure_fails_towers_ops(tmp_path):
    w = tiny("towers", tmp_path)
    w.setup(seed=5)
    w.mods["cohomology"].conj2_predicate = lambda *args: False
    loop = run.timed_loop(w, 0, count=3)
    assert loop.failed == 3


def test_forced_balance_failure_fails_towers_ops(tmp_path):
    w = tiny("towers", tmp_path)
    w.setup(seed=5)
    w.mods["cohomology"].rl_hi_balance = lambda *args: []  # mutations become invisible
    loop = run.timed_loop(w, 0, count=3)
    assert loop.failed == 3


def test_changed_flag_fails_verify_ops(tmp_path):
    w = tiny("verify", tmp_path, expected_flag=[[2, 3]])
    w.setup(seed=0)
    loop = run.timed_loop(w, 0, count=1)
    assert loop.failed == 1


def test_verify_check_rejects_bad_output(tmp_path):
    w = tiny("verify", tmp_path)
    good = "\n".join(f"PASS {s}" for s in w.SUITES)
    good += "\nFLAG euler-oracle-open-configurations [[2, 3], [2, 4], [3, 2], [4, 2]]\n"
    w.check(0, good)
    for code, out in [
        (1, good),
        (0, good.replace("PASS endpoint", "FAIL endpoint")),
        (0, good.replace("[2, 3], ", "")),
        (0, good.replace("[[2, 3], ", "")),
        (0, "\n".join(good.splitlines()[:-1])),
    ]:
        with pytest.raises(workloads.OpFailure):
            w.check(code, out)


def test_tail_levels():
    samples = [float(k) for k in range(1, 101)]
    assert run.tail(samples, 99.0) == (90.0, "p90")
    assert run.tail(samples * 10, 99.0) == (99.0, "p99")
    assert run.tail(samples[:5], 95.0) == (5.0, "max")


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.names = ["cohomology.coh_shriek", "jl_red.run_cuts", "diagrams.n_coeff"]
    tracer.spans = [
        [0, 0, 10_000_000, -1, 0],  # 10 ms table
        [1, 1_000_000, 4_000_000, 0, 0],  # 3 ms of cuts inside it
        [2, 5_000_000, 6_000_000, 0, 0],  # 1 ms of diagram inside it
    ]
    tracer.counts = {"trace.ops": 1}
    m = spans.layer_metrics(tracer, traced_s=2.0, untraced_s=1.0)
    assert m["cohomology.self_ms"]["value"] == pytest.approx(6.0)
    assert m["jl_red.self_ms"]["value"] == pytest.approx(3.0)
    assert m["jl_red.run_cuts.busy_ms"]["value"] == pytest.approx(3.0)
    assert m["cohomology.tables.busy_ms"]["value"] == pytest.approx(10.0)
    assert m["diagrams.busy_ms"]["value"] == pytest.approx(1.0)
    assert m["trace.overhead_ratio"]["value"] == pytest.approx(2.0)


def test_command_prints_the_result_contract_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "towers", "--seed", "2", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(run.END_TO_END_UNITS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
