import json
import os
import subprocess
import sys

import pytest

import htgroth
from htgroth.cli import main
from htgroth import jsonio
from htgroth.segments import CuspidalLabel, GrothElement, make_speh_st
from htgroth.symbolic import atom


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def assert_precondition_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "precondition" and record["message"]


SC = '{"id":"rho","g":1,"q":2,"l":3,"epsilon":2}'
PROFILE = '[{"s":3,"t":1,"cuspidal":"pi","mult":"m"}]'


class TestDiagramCommand:
    def test_n33_json(self, capsys):
        code, out = run_cli(
            ["diagram", "--kind", "n", "--s", "3", "--t", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        points = {tuple(p) for p in json.loads(out)}
        assert len(points) == 9
        assert (5, 0) in points

    def test_empty_shape_exit_code(self, capsys):
        assert_precondition_error(["diagram", "--kind", "n", "--s", "0"], capsys)

    def test_ascii_deterministic(self, capsys):
        _, a = run_cli(["diagram", "--kind", "m", "--s", "4", "--t", "1"], capsys)
        _, b = run_cli(["diagram", "--kind", "m", "--s", "4", "--t", "1"], capsys)
        assert a == b and "#" in a

    def test_superposition_json(self, capsys):
        code, out = run_cli(
            [
                "diagram", "--kind", "m", "--s", "4", "--blocks", "1,3,5",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["4,0"] == [0, 1, 2]


class TestJacquetCommand:
    def test_round_trip(self, capsys):
        code, out = run_cli(
            ["jacquet", "--s", "2", "--t", "2", "--left-rank", "2"], capsys
        )
        assert code == 0
        cuts = json.loads(out)
        assert len(cuts) == 2
        for cut in cuts:
            ms = jsonio.multisegment_from_json(cut["a1"], {})
            assert jsonio.multisegment_to_json(ms) == cut["a1"]

    def test_bad_rank_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jacquet", "--s", "2", "--t", "2", "--g", "2", "--left-rank", "3"])
        assert exc.value.code == 3

    def test_empty_shape_exit_code(self, capsys):
        assert_precondition_error(
            ["jacquet", "--s", "0", "--t", "2", "--left-rank", "1"], capsys
        )


class TestRedCommand:
    def test_json_round_trip(self, capsys):
        code, out = run_cli(["red", "--s", "2", "--t", "1", "--r", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        element = jsonio.groth_from_json(data)
        assert jsonio.groth_to_json(element) == data

    def test_zero_depth_exit_code(self, capsys):
        assert_precondition_error(["red", "--s", "2", "--t", "1", "--r", "0"], capsys)


class TestReduceCommand:
    def test_division(self, capsys):
        code, out = run_cli(
            ["reduce", "--division", "--m-tau", "3", "--iota", "j"], capsys
        )
        assert code == 0
        assert len(json.loads(out)) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["reduce", "--u", "-2"],
        ["reduce", "--division", "--m-tau", "0"],
        ["reduce", "--s", "0"],
        [
            "balance", "--sc", SC, "--u", "-2", "--u-prime", "0",
            "--r", "1", "--r-prime", "1", "--profile-u", "[]", "--profile-u-prime", "[]",
        ],
        ["jacquet", "--s", "2", "--t", "2", "--left-rank", "-1"],
    ],
)
def test_precondition_errors_exit_3(args, capsys):
    assert_precondition_error(args, capsys)


class TestCohomologyCommand:
    def test_table_output(self, capsys):
        code, out = run_cli(
            [
                "cohomology", "--profile", PROFILE, "--pi", "pi", "--r", "2",
                "--extension", "shriek",
            ],
            capsys,
        )
        assert code == 0
        table = json.loads(out)
        assert list(table) == ["1"]  # antidiagonal degree s - r = 1

    def test_bad_profile_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", "--profile", "[not json", "--pi", "pi", "--r", "1"])
        assert exc.value.code == 2


class TestBalanceCommand:
    def test_tautology_output(self, capsys):
        profile = json.dumps([{"s": 2, "t": 1, "cuspidal": "rho[u=0]", "mult": "m"}])
        code, out = run_cli(
            [
                "balance", "--sc", SC, "--u", "0", "--u-prime", "0",
                "--r", "1", "--r-prime", "1",
                "--profile-u", profile, "--profile-u-prime", profile,
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data and all(c["holds"] for c in data)


class TestTorsionCommand:
    def test_certificate(self, capsys):
        code, out = run_cli(
            ["torsion", "--d", "4", "--sc", SC, "--u-prime", "0", "--r-prime", "1"],
            capsys,
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["emitted"] and cert["shriek_degree"] == 2


class TestVerifyCommand:
    def test_all_pass(self, capsys):
        code, out = run_cli(["verify", "--max", "5"], capsys)
        assert code == 0
        assert "FAIL" not in out


class TestFiguresCommand:
    def test_six_figures(self, tmp_path, capsys):
        code, out = run_cli(["figures", "--out", str(tmp_path)], capsys)
        assert code == 0
        written = json.loads(out)
        assert len(written) == 6
        from htgroth.diagrams import svg_point_set, n_support, m_support

        fig5 = [p for p in written if "fig5" in p]
        svg = open(fig5[0]).read()
        assert svg_point_set(svg) == set(n_support(3, 3).points)
        # panel figure: both supports present in one file
        fig1 = [p for p in written if "fig1" in p]
        panel = open(fig1[0]).read()
        pts = svg_point_set(panel)
        assert set(m_support(4, 1).points) <= pts and set(m_support(1, 4).points) <= pts


def test_console_entry_point():
    # the child imports the same htgroth as this process
    src = os.path.dirname(os.path.dirname(htgroth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "htgroth.cli", "diagram", "--kind", "n",
         "--s", "1", "--t", "3", "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert {tuple(p) for p in json.loads(out.stdout)} == {(1, 0), (2, 0), (3, 0)}
