import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import htgroth
from htgroth.cli import COMMANDS, _parse_args, _parser, main
from htgroth import cli, jl_red, jsonio
from htgroth.modl import TowerLevel, matched_strata, tower_cuspidal, tower_rank
from htgroth.segments import CuspidalLabel, GrothElement, make_speh_st
from htgroth.symbolic import SymExpr, atom

from diagram_oracles import svg_point_set
from parse_oracle import EXTRAS, HEADS, VALUES, both_parses, draw_argv
from htgroth_caches import clear_htgroth_caches


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
# --sc records with one field of the wrong JSON type; each once exited 0,
# printing floats or booleans (or reading true as 1)
WRONG_TYPE_SCS = [
    '{"id":"rho","g":1,"q":2,"l":3.0,"epsilon":2}',
    '{"id":"rho","g":1,"q":2,"l":3,"epsilon":2.0}',
    '{"id":"rho","g":true,"q":2,"l":3,"epsilon":2}',
    '{"id":"rho","g":1.0,"q":2,"l":3,"epsilon":2}',
    '{"id":"rho","g":1,"q":2,"l":3,"epsilon":true}',
    '{"id":5,"g":1,"q":2,"l":3,"epsilon":2}',
]


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

    def test_a_tall_rectangle_needs_no_recursion(self, capsys):
        # 1,200 rows, more than Python's default recursion limit
        code, out = run_cli(["jacquet", "--s", "1200", "--t", "1", "--left-rank", "1"], capsys)
        assert code == 0
        ((cut,),) = [json.loads(out)]
        assert cut["a1"] == [["pi", 1199, 1]] and len(cut["a2"]) == 1199

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

    def test_a_chain_of_a_thousand_pieces(self, capsys):
        # the run of 1050 units is 1050 one-unit rows: the chain walk goes 1050 deep
        code, out = run_cli(["red", "--s", "1100", "--t", "1", "--r", "1050"], capsys)
        assert code == 0 and len(json.loads(out)) == 51


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
        ["cohomology", "--profile", '[{"s":2.5,"t":1,"cuspidal":"pi"}]', "--pi", "pi", "--r", "1"],
        [
            "balance", "--sc", SC, "--u", "0", "--u-prime", "0", "--r", "1", "--r-prime", "1",
            "--profile-u", '[{"s":1,"t":true,"cuspidal":"rho[u=0]"}]', "--profile-u-prime", "[]",
        ],
        ["verify", "--max", "1"],
        *(
            ["cohomology", "--profile", profile, "--pi", "pi", "--r", "1"]
            for profile in (
                '[{"s":1,"t":1,"cuspidal":"pi","xi_numerator":true}]',
                '[{"s":1,"t":1,"cuspidal":"pi","mult":true}]',
                '[{"s":1,"t":1,"cuspidal":"pi","markers":"nondegenerate-at-auxiliary-place"}]',
                '[{"s":1,"t":1,"cuspidal":5}]',
            )
        ),
        [
            "balance", "--sc", SC, "--u", "0", "--u-prime", "0", "--r", "1", "--r-prime", "1",
            "--profile-u", '[{"s":2,"t":1,"cuspidal":"rho[u=0]","markers":[1,"a"]}]',
            "--profile-u-prime", '[{"s":2,"t":1,"cuspidal":"rho[u=0]"}]',
        ],
        # multiplicities that once read as 1, as extra terms or as odd atoms
        *(
            ["cohomology", "--profile", profile, "--pi", "pi", "--r", "1"]
            for profile in (
                '[{"s":1,"t":1,"cuspidal":"pi","mult":""}]',
                '[{"s":1,"t":1,"cuspidal":"pi","mult":"m+"}]',
                '[{"s":1,"t":1,"cuspidal":"pi","mult":"m*"}]',
                '[{"s":1,"t":1,"cuspidal":"pi","mult":"m^"}]',
                '[{"s":1,"t":1,"cuspidal":"pi","mult":"2.5"}]',
                '[{"s":1,"t":1,"cuspidal":"pi","mult":"m - n"}]',
            )
        ),
        *(
            ["torsion", "--d", "4", "--sc", sc, "--u-prime", "0", "--r-prime", "1"]
            for sc in WRONG_TYPE_SCS
        ),
        *(
            [
                "balance", "--sc", sc, "--u", "0", "--u-prime", "0", "--r", "1", "--r-prime", "1",
                "--profile-u", '[{"s":2,"t":1,"cuspidal":"rho[u=0]","mult":"m"}]',
                "--profile-u-prime", '[{"s":2,"t":1,"cuspidal":"rho[u=0]","mult":"m"}]',
            ]
            for sc in WRONG_TYPE_SCS
        ),
    ],
)
def test_precondition_errors_exit_3(args, capsys):
    assert_precondition_error(args, capsys)


@pytest.mark.parametrize(
    "args, message",
    [
        (["torsion", "--d", "4", "--u-prime", "0", "--r-prime", "1", "--sc", "{}"], "missing field 'id'"),
        (
            [
                "torsion", "--d", "4", "--u-prime", "0", "--r-prime", "1",
                "--sc", '{"id":"rho","g":1,"q":2,"l":3}',
            ],
            "missing field 'epsilon'",
        ),
        (
            ["cohomology", "--profile", '[{"t":1,"cuspidal":"pi"}]', "--pi", "pi", "--r", "1"],
            "bad profile entry: missing field 's'",
        ),
    ],
)
def test_missing_fields_are_named(args, message):
    code, out, err = run_main(args)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "precondition", "message": message}


@pytest.mark.parametrize(
    "mult, message",
    [("true", "mult must be an integer, not True"), ("1.5", "mult has the wrong JSON type: 1.5")],
)
def test_a_mult_of_another_json_type_keeps_its_error_bytes(mult, message):
    # coefficient strings are read once per process; neither a bool nor a
    # float is answered from that cache, even after "1" and 1 were read
    for ok in ('"1"', "1"):
        profile = f'[{{"s":1,"t":1,"cuspidal":"pi","mult":{ok}}}]'
        assert run_main(["cohomology", "--profile", profile, "--pi", "pi", "--r", "1"])[0] == 0
    profile = f'[{{"s":1,"t":1,"cuspidal":"pi","mult":{mult}}}]'
    code, out, err = run_main(["cohomology", "--profile", profile, "--pi", "pi", "--r", "1"])
    assert (code, out) == (3, "")
    assert err == '{"error": "precondition", "message": "bad profile entry: ' + message + '"}\n'


def test_default_weight_is_one_atom_that_reads_back():
    for cusp in ("rho[u=-1]#0", "\u03c1_1"):
        profile = json.dumps([{"s": 1, "t": 1, "cuspidal": cusp}])
        code, out, _ = run_main(["cohomology", "--profile", profile, "--pi", cusp, "--r", "1"])
        assert code == 0
        [term] = json.loads(out)["0"]
        assert jsonio.sym_from_json(term["coeff"]) == atom("ker1(Q,G)/d") * atom(f"m[{cusp}]")


@pytest.mark.parametrize("cusp", ["a+b", "a*b", "a^2", "my pi"])
def test_default_weight_refuses_an_id_it_cannot_name(cusp):
    # m[a+b] would print as a coefficient that reads back as two other atoms
    profile = json.dumps([{"s": 1, "t": 1, "cuspidal": cusp}])
    code, out, err = run_main(["cohomology", "--profile", profile, "--pi", cusp, "--r", "1"])
    assert (code, out, json.loads(err)["error"]) == (3, "", "precondition")
    # with its own weight such an id is fine
    profile = json.dumps([{"s": 1, "t": 1, "cuspidal": cusp, "mult": "m"}])
    code, out, _ = run_main(["cohomology", "--profile", profile, "--pi", cusp, "--r", "1"])
    assert code == 0 and json.loads(out)["0"][0]["coeff"] == "ker1(Q,G)/d*m"


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

    def test_a_repeated_query_hits_its_caches_by_identity(self, monkeypatch):
        # the second run of a query compares no cuspidal and no coefficient by
        # value, and binds its rows to the first run's coefficient objects
        profile = json.dumps(
            [
                {"cuspidal": "pi", "s": 2, "t": 2, "xi_numerator": 2},
                {"cuspidal": "pi", "s": 3, "t": 2, "mult": "-1*n"},
            ]
        )
        argv = ["cohomology", "--profile", profile, "--pi", "pi", "--r", "2", "--extension", "intermediate"]
        printed = []
        dumps = jsonio.dumps

        def keeping(obj):
            printed.append(obj)
            return dumps(obj)

        monkeypatch.setattr(jsonio, "dumps", keeping)
        first = run_main(argv)
        calls = []
        for cls in (CuspidalLabel, SymExpr):
            def counting(self, other, eq=cls.__eq__, name=cls.__name__):
                calls.append(name)
                return eq(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
        second = run_main(argv)
        monkeypatch.undo()
        assert first == second and first[0] == 0 and calls == []
        rows = [{i: [c for _, c in g.sorted_terms()] for i, g in run.items()} for run in printed]
        assert rows[0] and rows[0] == rows[1]
        assert all(a is b for i in rows[0] for a, b in zip(rows[0][i], rows[1][i], strict=True))


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


# supercuspidal lines whose tower ranks keep some matched strata small:
# g_u for u = -1, 0, 1 is 1, 2, 6; 1, 3, 9; 1, 2, 10
BALANCE_SCS = (
    '{"id":"rho","g":1,"q":2,"l":3,"epsilon":2}',
    '{"id":"rho","g":1,"q":2,"l":3,"epsilon":1}',
    '{"id":"rho","g":1,"q":2,"l":5,"epsilon":2}',
)
BALANCE_MULTS = ("m{j}", "2*m{j}", "-1*m{j}", "m{j}*dxi", "3*m{j}*n{j}", "m{j}^2", 2, None)


def balance_argvs(seed: int, count: int) -> list[list[str]]:
    """Seeded ``balance`` invocations at matched strata, with multi-entry profiles.

    Each side has 1-4 entries of shape s + t <= 6, mostly on its own lift,
    sometimes on the other level's lift or an unrelated line; twist
    numerators in [-4, 4], multiplicities that may cancel across entries
    (names repeat, signs differ, or the ``m[<id>]`` default), and markers.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sc_json = rng.choice(BALANCE_SCS)
        sc = jsonio.supercuspidal_from_json(json.loads(sc_json))
        u = rng.randint(-1, 1)
        u_prime = rng.randint(u, 1)
        ids = [tower_cuspidal(TowerLevel(sc, level)).id for level in (u, u_prime)]
        d = 9 * max(tower_rank(TowerLevel(sc, level)) for level in (u, u_prime))
        strata = [(r, rp) for r, rp in matched_strata(u, u_prime, d, sc) if max(r, rp) <= 9]
        if not strata:
            continue
        r, r_prime = rng.choice(strata)
        sides = []
        for own in range(2):
            profile = []
            for _ in range(rng.randint(1, 4)):
                s = rng.randint(1, 5)
                line = rng.random()
                item = {
                    "s": s,
                    "t": rng.randint(1, 6 - s),
                    "cuspidal": ids[own] if line < 0.8 else ids[1 - own] if line < 0.9 else "pi",
                    "xi_numerator": rng.randint(-4, 4),
                }
                mult = rng.choice(BALANCE_MULTS)
                if mult is not None:
                    item["mult"] = mult.format(j=rng.randint(0, 2)) if isinstance(mult, str) else mult
                if rng.random() < 0.3:
                    item["markers"] = rng.choice(
                        [["nondegenerate-at-auxiliary-place"], ["a", "nondegenerate-at-auxiliary-place"], ["a"]]
                    )
                profile.append(item)
            sides.append(json.dumps(profile))
        out.append([
            "balance", "--sc", sc_json, "--u", str(u), "--u-prime", str(u_prime),
            "--r", str(r), "--r-prime", str(r_prime),
            "--profile-u", sides[0], "--profile-u-prime", sides[1],
        ])
    return out


def balance_digest(argvs) -> tuple[str, int]:
    """SHA-256 over the stdout of each call, and the number of constraints printed."""
    digest, constraints = hashlib.sha256(), 0
    for argv in argvs:
        code, out, err = run_main(argv)
        assert code == 0, (argv, err)
        digest.update(out.encode())
        constraints += len(json.loads(out))
    return digest.hexdigest(), constraints


# recorded before the balance stopped building a shriek table per entry
BALANCE_DIGEST = "b432500ad9090da3498f61bb71ce540d1d33faf01487e04d77c3f5ec3790d18c"
BALANCE_CONSTRAINTS = 988


def test_balance_bytes_pinned():
    digest, constraints = balance_digest(balance_argvs(20261018, 300))
    assert (digest, constraints) == (BALANCE_DIGEST, BALANCE_CONSTRAINTS)


TORSION_EMITTED = """{
  "d": 4,
  "emitted": true,
  "g_base": 1,
  "g_up": 2,
  "i0_lower_bound": 2,
  "lower_bound_only": true,
  "r": 2,
  "r_prime": 1,
  "s": 4,
  "s_prime": 2,
  "shriek_degree": 2,
  "star_degree": -1,
  "u_prime": 0
}
"""
TORSION_NOT_EMITTED = """{
  "d": 4,
  "emitted": false,
  "g_base": 1,
  "g_up": 6,
  "r_prime": 1,
  "u_prime": 1
}
"""


class TestTorsionCommand:
    def test_certificate(self, capsys):
        code, out = run_cli(
            ["torsion", "--d", "4", "--sc", SC, "--u-prime", "0", "--r-prime", "1"],
            capsys,
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["emitted"] and cert["shriek_degree"] == 2

    def test_stdout_pinned(self, capsys):
        # the bytes printed when the payload came from dataclasses.asdict
        argv = ["torsion", "--d", "4", "--sc", SC, "--r-prime", "1", "--u-prime"]
        emitted = run_cli(argv + ["0"], capsys)
        assert emitted == (0, TORSION_EMITTED)
        assert run_cli(argv + ["1"], capsys) == (0, TORSION_NOT_EMITTED)


class TestVerifyCommand:
    def test_all_pass(self, capsys):
        code, out = run_cli(["verify", "--max", "5"], capsys)
        assert code == 0
        assert "FAIL" not in out


VERIFY_MAX_8 = """\
PASS diagram-bullets-vs-hull
PASS se2-hij-round-trip
PASS endpoint-identity
PASS euler-master-established-shapes
PASS inclusion-exclusion
FLAG euler-oracle-open-configurations [[2, 3], [2, 4], [3, 2], [4, 2]]
"""


def test_verify_max_8_stdout_pinned(capsys):
    # the catalogue is capped at 6, so larger bounds print the same lines;
    # --max 20 runs the master identity on squares up to 10x10
    for bound in ("8", "12", "20"):
        assert run_cli(["verify", "--max", bound], capsys) == (0, VERIFY_MAX_8), bound


def verify_max_8_under(monkeypatch, capsys, mutant):
    """``verify --max 8`` with ``jl_red._run_cuts`` replaced by ``mutant(terms)``, every cache cleared."""
    run_cuts = jl_red._run_cuts
    monkeypatch.setattr(jl_red, "_run_cuts", lambda *args: mutant(run_cuts(*args)))
    clear_htgroth_caches()
    try:
        return run_cli(["verify", "--max", "8"], capsys)
    finally:
        monkeypatch.undo()
        clear_htgroth_caches()


def test_verify_fails_when_every_cut_sign_flips(monkeypatch, capsys):
    # the master identity is an oracle of the sign convention: with every
    # term of the walk negated the tables move, the shriek side's closed forms
    # do not, and verify must fail there; the endpoint's signed count moves too
    def flipped(terms):
        return tuple((key, -c) for key, c in terms)

    code, out = verify_max_8_under(monkeypatch, capsys, flipped)
    lines = out.splitlines()
    assert code == 1 and "FAIL euler-master-established-shapes" in lines
    assert "FAIL endpoint-identity" in lines


def test_verify_fails_when_an_endpoint_cut_is_dropped(monkeypatch, capsys):
    # dropping one center-0 term wherever the walk sums two or more keeps the M
    # and N endpoint cells equal; only the closed-form cut count sees it
    def dropped(terms):
        center_0 = [term for term in terms if term[0][1] == 0]
        return tuple(term for term in terms if len(center_0) < 2 or term is not center_0[0])

    code, out = verify_max_8_under(monkeypatch, capsys, dropped)
    assert code == 1 and "FAIL endpoint-identity" in out.splitlines()


def test_a_cut_cache_miss_builds_no_cut(monkeypatch, capsys):
    # the walk sums each cut into its term as it finds it: with every cache
    # cleared, the misses of the shape groups and of the transfer sums build none
    built = []
    init = jl_red.Cut.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    clear_htgroth_caches()
    monkeypatch.setattr(jl_red.Cut, "__init__", counted)
    try:
        assert run_cli(["verify", "--max", "8"], capsys)[0] == 0
        assert run_cli(["red", "--s", "4", "--t", "3", "--r", "3"], capsys)[0] == 0
        misses = [cache.cache_info().misses for cache in (jl_red.rectangle_shape_groups, jl_red._transfer_terms)]
    finally:
        monkeypatch.undo()
        clear_htgroth_caches()
    assert all(misses) and built == [], misses


# The sha256 pins of the "Installed entry point" step of .github/workflows/tests.yml,
# copied verbatim: (argv, sha256 of its stdout), run in-process here
CI_PINS = [
    (
        [
            "cohomology", "--profile",
            '[{"cuspidal": "ρ[u=0]", "s": 2, "t": 2, "xi_numerator": 1, "mult": "2*m0*dxi"}, {"cuspidal": "ρ[u=0]", "s": 3, "t": 1, "xi_numerator": -3}]',
            "--pi", "ρ[u=0]", "--r", "2", "--extension", "intermediate",
        ],
        "5fb42f9eb4f72e4fb15019cbf8f904fa57b2c42820ffb389218f2752568e39f1",
    ),
    (
        ["cohomology", "--profile", '[{"cuspidal": "pi", "s": 2, "t": 1}]', "--pi", "pi", "--r", "5"],
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ),
    (
        [
            "cohomology", "--profile",
            '[{"cuspidal": "pi", "s": 2, "t": 3}, {"cuspidal": "pi", "s": 2, "t": 3, "xi_numerator": 2, "mult": "m"}, {"cuspidal": "pi", "s": 2, "t": 3, "xi_numerator": -2, "mult": "n*dxi"}, {"cuspidal": "pi", "s": 2, "t": 3, "mult": "2*m"}]',
            "--pi", "pi", "--r", "2", "--extension", "shriek",
        ],
        "a21efe7b0e943b498ae2dc8155ea809ca83455c1a4b862d354a33e0501284901",
    ),
    (["red", "--s", "3", "--t", "2", "--r", "2"], "7871e8be893021af5956960df7ac58ddfb93ee65ea19af92708941124d45c310"),
    (["reduce", "--u", "0", "--s", "3"], "81822d2db9eafc1b919358a63ea4b8cc9ea817efb0de4e1b322ff5bad35c9bb1"),
    (
        ["reduce", "--division", "--m-tau", "3", "--iota", "ι"],
        "24493fdf474fce2b93d592680d786e7252b517c6846c6515e77f184471ea4037",
    ),
    (
        [
            "balance", "--sc", '{"id": "rho", "g": 1, "q": 2, "l": 7, "epsilon": 3}',
            "--u", "-1", "--u-prime", "0", "--r", "3", "--r-prime", "1",
            "--profile-u",
            '[{"cuspidal": "rho[u=-1]", "s": 3, "t": 2, "xi_numerator": 1}, {"cuspidal": "rho[u=-1]", "s": 1, "t": 4, "xi_numerator": -3, "mult": "2*m"}, {"cuspidal": "rho[u=-1]", "s": 2, "t": 3, "markers": ["nondegenerate-at-auxiliary-place"]}, {"cuspidal": "sigma", "s": 2, "t": 1}]',
            "--profile-u-prime",
            '[{"cuspidal": "rho[u=0]", "s": 2, "t": 1, "xi_numerator": 3}, {"cuspidal": "rho[u=0]", "s": 1, "t": 2, "xi_numerator": -1}, {"cuspidal": "rho[u=0]", "s": 1, "t": 3, "xi_numerator": 2, "mult": "m"}]',
        ],
        "81359a64b803f9f8befe76881676e00d5a73426ca6ec58a773563823afd88a85",
    ),
    (
        [
            "cohomology", "--profile",
            '[{"cuspidal": "pi", "s": 3, "t": 2, "xi_numerator": 1, "mult": "3*μ^2*n"}, {"cuspidal": "pi", "s": 2, "t": 2, "xi_numerator": -2, "mult": "m^3"}, {"cuspidal": "pi", "s": 1, "t": 3, "mult": "2*m*dxi + μ"}]',
            "--pi", "pi", "--r", "2", "--extension", "intermediate",
        ],
        "c87b8b087e23abc3464c554e151c2643320650885da2eb979d7d2e155c6809da",
    ),
    (["red", "--s", "4", "--t", "3", "--r", "3"], "497db07d82b3ba8ce389a78b7ccf7353521ba7abfd01982b9c62e31a338c9fa7"),
    *(
        (
            [
                "cohomology", "--profile",
                '[{"cuspidal": "pi", "s": 2, "t": 2, "xi_numerator": 2}, {"cuspidal": "pi", "s": 2, "t": 2, "mult": "-1*n"}]',
                "--pi", "pi", "--r", "2", "--extension", extension,
            ],
            digest,
        )
        for extension, digest in (
            ("intermediate", "ca817d17eca56561dd357a6c4742d4918536e113bdbb32086360670687061d2c"),
            ("shriek", "ee9ea0214eddf6fefe51ddd0dee3b61d353fd7a39c8294d29369b4cca5d3987c"),
        )
    ),
]


@pytest.mark.parametrize("argv, sha256", CI_PINS, ids=[f"{argv[0]}-{sha[:8]}" for argv, sha in CI_PINS])
def test_ci_entry_point_pins(argv, sha256):
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


# sha256 of the six ``figures`` SVGs, concatenated in sorted name order
FIGURES_SHA256 = "f972777d32f74aa344219af81aa99c7a2043548f0a84233d4463ee558a332b5c"


class TestFiguresCommand:
    def test_six_figures(self, tmp_path, capsys):
        code, out = run_cli(["figures", "--out", str(tmp_path)], capsys)
        assert code == 0
        written = json.loads(out)
        assert len(written) == 6
        from htgroth.diagrams import n_support, m_support

        fig5 = [p for p in written if "fig5" in p]
        svg = Path(fig5[0]).read_text(encoding="utf-8")
        assert svg_point_set(svg) == set(n_support(3, 3).points)
        # panel figure: both supports present in one file
        fig1 = [p for p in written if "fig1" in p]
        panel = Path(fig1[0]).read_text(encoding="utf-8")
        pts = svg_point_set(panel)
        assert set(m_support(4, 1).points) <= pts and set(m_support(1, 4).points) <= pts

    def test_figure_bytes_pinned(self, tmp_path, capsys):
        # the six files concatenated in sorted name order, single and panel figures alike
        assert run_cli(["figures", "--out", str(tmp_path)], capsys)[0] == 0
        data = b"".join(path.read_bytes() for path in sorted(tmp_path.glob("*.svg")))
        assert hashlib.sha256(data).hexdigest() == FIGURES_SHA256


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


def test_closed_stdout_exits_1_without_an_error_record():
    src = os.path.dirname(os.path.dirname(htgroth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "htgroth.cli", "jacquet", "--s", "4000", "--t", "1",
         "--left-rank", "1"],  # ~220 kB of JSON, more than a pipe buffers
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
    ) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()  # as `| head -c 100` does
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1 and err == b""


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process call of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_reuses_its_parser_without_leaking_state():
    reduce_argv = ["reduce", "--division", "--m-tau", "2", "--iota", "j"]
    first = run_main(reduce_argv)
    other = run_main(["red", "--s", "2", "--t", "1", "--r", "1"])
    assert first[0] == 0 and other[0] == 0 and other[1] != first[1]
    # flags given to the first call do not become defaults of the second
    assert run_main(["reduce"]) == run_main(["reduce", "--u", "-1", "--s", "1"])
    assert run_main(reduce_argv) == first
    assert _parser() is _parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--r", "x"],
        ["verify", "--bogus"],
        ["reduce", "--t", "2"],
        ["diagram", "--kind", "q", "--s", "1"],
        ["nosuchcommand"],
        [],
        ["diagram", "--kind", "m", "--s", "4", "--blocks", "1,x"],
        ["diagram", "--kind", "m", "--s", "4", "--blocks", ","],
        ["torsion", "--d", "4", "--sc", "no-such-file.json", "--u-prime", "0", "--r-prime", "1"],
    ],
)
def test_parse_errors_exit_2_with_the_error_record(argv):
    code, out, err = run_main(argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "parse" and record["message"]


# drawn from every option of every subcommand, or free tokens for shrinking
ARGVS = st.randoms(use_true_random=False).map(draw_argv) | st.lists(
    st.sampled_from(sorted(COMMANDS) + HEADS + VALUES + EXTRAS) | st.text(max_size=4),
    max_size=6,
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGVS)
def test_direct_parse_matches_the_full_parse(argv, capsys):
    # the same vars, or the same exit code with the same stdout and stderr
    capsys.readouterr()
    direct, full = both_parses(argv, capsys.readouterr)
    assert direct == full, argv


def test_plain_argv_are_read_without_argparse(monkeypatch):
    # a silent fallback to the full parse keeps every answer right and loses
    # the time the direct reader saves: here argparse cannot parse at all
    profile = '[{"cuspidal": "pi", "markers": [], "mult": "2*m0", "s": 2, "t": 3, "xi_numerator": -1}]'
    argvs = [
        ["cohomology", "--profile", profile, "--pi", "pi", "--r", "4", "--extension", "intermediate"],
        ["verify", "--max", "12"],
        ["balance", "--sc", SC, "--u", "0", "--u-prime", "0", "--r", "1", "--r-prime", "1",
         "--profile-u", PROFILE, "--profile-u-prime", PROFILE],
        ["torsion", "--d", "4", "--sc", SC, "--u-prime", "0", "--r-prime", "1"],
    ]
    expected = [vars(_parser().parse_args(argv)) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was asked to parse")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert [vars(_parse_args(argv)) for argv in argvs] == expected


def test_plain_argv_build_no_parser():
    # a fresh `htgroth verify` or `cohomology` process skips the argparse build;
    # an argv the plain reader refuses builds it, once, and reads the same
    _parser.cache_clear()
    query = ["cohomology", "--profile", PROFILE, "--pi", "pi", "--r", "2", "--extension", "intermediate"]
    verify, plain = run_main(["verify", "--max", "2"]), run_main(query)
    assert (verify[0], plain[0]) == (0, 0)
    assert _parser.cache_info().currsize == 0
    assert run_main(query[:5] + ["--r=2"] + query[7:]) == plain
    assert _parser.cache_info().currsize == 1


def test_main_runs_the_handler_the_module_holds_when_it_runs(monkeypatch):
    # a wrapper put on cli.cmd_<name> after the parser is built is the one that runs
    assert all(callable(getattr(cli, f"cmd_{name}", None)) for name in COMMANDS)
    _parser()
    calls = []

    def wrapper(args):
        calls.append(args.max)
        return 0

    monkeypatch.setattr(cli, "cmd_verify", wrapper)
    assert run_main(["verify", "--max", "3"]) == run_main(["verify", "--max=4"]) == (0, "", "")
    assert calls == [3, 4]


def test_empty_blocks_means_no_superposition():
    plain = ["diagram", "--kind", "m", "--s", "4", "--t", "2"]
    assert run_main(plain + ["--blocks", ""]) == run_main(plain)
    assert run_main(plain)[0] == 0


@pytest.mark.parametrize(
    "flag, inline, argv",
    [
        ("--profile", PROFILE, ["cohomology", "--pi", "pi", "--r", "2"]),
        (
            "--profile-u",
            '[{"s":2,"t":1,"cuspidal":"rho[u=0]","mult":"m"}]',
            [
                "balance", "--sc", SC, "--u", "0", "--u-prime", "0", "--r", "1", "--r-prime", "1",
                "--profile-u-prime", '[{"s":2,"t":1,"cuspidal":"rho[u=0]","mult":"n"}]',
            ],
        ),
        ("--sc", SC, ["torsion", "--d", "4", "--u-prime", "0", "--r-prime", "1"]),
    ],
)
def test_file_inputs_read_as_their_inline_forms(flag, inline, argv, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(inline, encoding="utf-8")
    expected = run_main(argv + [flag, inline])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from_file = run_main(argv + [flag, str(path)])
        gc.collect()
    assert from_file == expected and expected[0] == 0 and expected[1]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


PROFILE_TYPE = "profile must be a JSON array of objects"
SC_TYPE = "supercuspidal data must be a JSON object"
BALANCE = ["balance", "--sc", SC, "--u", "0", "--u-prime", "0", "--r", "1", "--r-prime", "1"]


@pytest.mark.parametrize(
    "flag, text, argv, message",
    [
        ("--profile", "{}", ["cohomology", "--pi", "pi", "--r", "1"], PROFILE_TYPE),
        ("--profile", '{"s":1}', ["cohomology", "--pi", "pi", "--r", "1"], PROFILE_TYPE),
        ("--profile", "[[1]]", ["cohomology", "--pi", "pi", "--r", "1"], PROFILE_TYPE),
        ("--profile", '[{"s":1,"t":1,"cuspidal":"pi"}, 1]', ["cohomology", "--pi", "pi", "--r", "1"], PROFILE_TYPE),
        ("--profile-u", "{}", BALANCE + ["--profile-u-prime", PROFILE], PROFILE_TYPE),
        ("--profile-u-prime", "[[]]", BALANCE + ["--profile-u", PROFILE], PROFILE_TYPE),
        ("--sc", "[]", ["torsion", "--d", "4", "--u-prime", "0", "--r-prime", "1"], SC_TYPE),
        ("--sc", '[{"id":"rho"}]', ["reduce", "--u", "0"], SC_TYPE),
    ],
)
@pytest.mark.parametrize("where", ["inline", "file"])
def test_json_input_of_the_wrong_type_names_the_type_expected(flag, text, argv, message, where, tmp_path):
    # a JSON object once read as an empty profile (exit 0), inline JSON not
    # led by the expected bracket was opened as a file name (exit 2), and a
    # list where an object belongs failed with a raw TypeError text
    if where == "file":
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        text = str(path)
    code, out, err = run_main(argv + [flag, text])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "precondition", "message": message}


# -- fuzzing every subcommand ---------------------------------------------

INTS = [str(i) for i in range(-2, 5)] + ["x", "", "1.5", "-"]
SCS = [
    SC,
    '{"id":"rho","g":1,"q":2,"l":3,"epsilon":1}',
    '{"id":"rho","g":2,"q":2,"l":5,"epsilon":2}',
    "{}",
    '{"id":"rho"',
    '{"id":"rho","g":"x","q":2,"l":3,"epsilon":1}',
    '{"id":"rho","g":1,"q":3,"l":3,"epsilon":1}',
    "no-such-file.json",
]
PROFILES = [
    PROFILE,
    '[{"s":2,"t":2,"cuspidal":"rho[u=0]","mult":"m","xi_numerator":1}]',
    '[{"s":2,"t":1,"cuspidal":"pi","markers":["nondegenerate-at-auxiliary-place"]}]',
    "[]",
    "[1]",
    "[not json",
    '[{"s":"x","t":1,"cuspidal":"pi"}]',
    '[{"s":0,"t":1,"cuspidal":"pi"}]',
    '[{"s":2.5,"t":1,"cuspidal":"pi"}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":7}]',
    '[{"s":1,"t":1,"cuspidal":"pi","xi_numerator":true}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":true}]',
    '[{"s":2,"t":1,"cuspidal":"pi","markers":"nondegenerate-at-auxiliary-place"}]',
    '[{"s":1,"t":1,"cuspidal":5}]',
    '[{"s":2,"t":1,"cuspidal":"rho[u=0]","markers":[1,"a"]}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":""}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":"m+"}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":"m*"}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":"m^"}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":"2.5"}]',
    '[{"s":1,"t":1,"cuspidal":"pi","mult":"m - n"}]',
]


def flag_pools(scs: list[str]) -> dict:
    """command -> flag -> the values drawn for it (None for a switch)."""
    return {
        "diagram": {
            "--kind": ["m", "n", "N", "q"],
            "--s": INTS,
            "--t": INTS,
            "--blocks": ["1,3", "2", "x", ",", "0,1", ""],
            "--format": ["ascii", "svg", "json", "png"],
        },
        "jacquet": {"--s": INTS, "--t": INTS, "--g": INTS, "--left-rank": INTS},
        "red": {"--s": INTS, "--t": INTS, "--g": INTS, "--r": INTS},
        "reduce": {
            "--division": None,
            "--m-tau": INTS,
            "--iota": ["iota", "j", ""],
            "--sc": scs,
            "--u": INTS,
            "--s": INTS,
        },
        "cohomology": {
            "--profile": PROFILES,
            "--pi": ["pi", "rho[u=0]"],
            "--r": INTS,
            "--extension": ["shriek", "intermediate", "star"],
        },
        "balance": {
            "--sc": scs,
            "--u": INTS,
            "--u-prime": INTS,
            "--r": INTS,
            "--r-prime": INTS,
            "--profile-u": PROFILES,
            "--profile-u-prime": PROFILES,
        },
        "torsion": {"--d": INTS, "--sc": scs, "--u-prime": INTS, "--r-prime": INTS},
        "verify": {"--max": ["-1", "0", "2", "3", "x"]},
        "figures": {"--out": ["OUT", "OUT/sub", "FILE/sub"]},
    }


FLAGS = flag_pools(SCS + WRONG_TYPE_SCS)


def draw_argv(rng: random.Random, flags: dict, skip: int = 10) -> list[str]:
    """One invocation: each flag of a random command, left out one time in ``skip``."""
    command = rng.choice(sorted(flags))
    argv = [command]
    for flag, values in flags[command].items():
        if rng.randint(0, skip - 1) == 0:
            continue  # leave the flag out, required or not
        argv.append(flag)
        if values is not None:
            argv.append(rng.choice(values))
    if rng.randint(0, 14) == 0:
        argv.append(rng.choice(["--bogus", "--t", "extra"]))
    return argv


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_fuzz_every_subcommand(rng, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    (base / "FILE").touch()
    argv = [str(base / a) if a.startswith(("OUT", "FILE")) else a for a in draw_argv(rng, FLAGS)]
    code, _, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        record = json.loads(err)
        assert record["error"] in ("parse", "precondition") and record["message"], argv


def outcome_digest(argvs) -> str:
    """SHA-256 over (argv, exit code, error kind, stdout) of each call; messages are free."""
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_main(argv)
        kind = json.loads(err)["error"] if code else ""
        digest.update(json.dumps([argv, code, kind, out]).encode())
    return digest.hexdigest()


# recorded before the input checks moved into cli.main and the value types
OUTCOME_DIGEST = "d52cb554ef03999b520be0d4a7c12630f24c1836a2c7085ed38696068931a316"


def test_cli_outcomes_pinned():
    # the pools as they stood when the digest was recorded; figures writes files, so it stays out
    flags = {command: pools for command, pools in flag_pools(SCS).items() if command != "figures"}
    rng = random.Random(20261018)
    assert outcome_digest([draw_argv(rng, flags) for _ in range(1000)]) == OUTCOME_DIGEST


# mostly well-formed values, so that most draws get past the parser to the
# preconditions of balance and torsion (and some to a result)
FAIR_INTS = ["0", "1", "1", "2"] * 3 + ["-1", "3", "-2", "x"]
FAIR_PROFILES = [
    '[{"s":2,"t":1,"cuspidal":"rho[u=0]","mult":"m"}]',
    '[{"s":1,"t":2,"cuspidal":"rho[u=0]","xi_numerator":1},{"s":2,"t":1,"cuspidal":"rho[u=-1]"}]',
    '[{"s":2,"t":1,"cuspidal":"pi","mult":"2*m"}]',
    "[]",
    '[{"t":1,"cuspidal":"rho[u=0]"}]',
    '[{"s":0,"t":1,"cuspidal":"rho[u=0]"}]',
]
FAIR_FLAGS = {
    "balance": {
        "--sc": SCS[:3] + ['{"id":"rho","g":1,"q":2,"l":3}'],
        "--u": FAIR_INTS,
        "--u-prime": FAIR_INTS,
        "--r": FAIR_INTS,
        "--r-prime": FAIR_INTS,
        "--profile-u": FAIR_PROFILES,
        "--profile-u-prime": FAIR_PROFILES,
    },
    "torsion": {
        "--d": FAIR_INTS + ["8", "12"],
        "--sc": SCS[:3] + ["{}"],
        "--u-prime": FAIR_INTS,
        "--r-prime": FAIR_INTS,
    },
}


def test_fuzz_past_the_parser():
    # unlike the fuzz above, which mostly tests the parser, the draws here
    # leave a flag out one time in fifty and rarely hold a bad integer
    rng = random.Random(20261019)
    codes: dict = {}
    for _ in range(600):
        argv = draw_argv(rng, FAIR_FLAGS, skip=50)
        code, out, err = run_main(argv)
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            record = json.loads(err)
            assert record["error"] == ("parse" if code == 2 else "precondition") and record["message"], argv
            assert out == "", argv
        codes.setdefault(argv[0], []).append(code)
    # each command is drawn about 300 times: more of its draws reach a
    # precondition than stop at the parser, and some print a result
    for command, found in codes.items():
        counts = {c: found.count(c) for c in (0, 2, 3)}
        assert counts[0] and counts[3] > counts[2], (command, counts)


def readme_section(heading: str) -> str:
    """The text of the README section under ``## heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def readme_examples() -> list[list[str]]:
    """The argv of each ``htgroth`` example in the README's "Command line" section."""
    block = readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("htgroth ")]


@pytest.mark.parametrize("argv", readme_examples())
def test_readme_command_line_example_exits_0(argv, tmp_path):
    if argv[0] == "figures":
        argv = [*argv[: argv.index("--out") + 1], str(tmp_path)]
    code, out, err = run_main(argv)
    assert (code, err) == (0, ""), argv
    assert out


def test_readme_lists_every_subcommand_in_its_examples():
    assert sorted({argv[0] for argv in readme_examples()}) == sorted(COMMANDS)


def test_readme_module_table_rows_name_every_module_in_at_most_400_characters():
    # a row says what its module computes, its entry points and its oracle;
    # the mechanisms belong in the module's docstrings
    rows = [line for line in readme_section("Layout").splitlines() if line.startswith("| `htgroth.")]
    names = [row.split("`", 2)[1] for row in rows]
    for row, name in zip(rows, names):
        importlib.import_module(name)
        assert len(row) <= 400, (name, len(row))
    package = sorted(f"htgroth.{m.name}" for m in pkgutil.iter_modules(htgroth.__path__))
    assert sorted(names) == package
