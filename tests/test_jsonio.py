from fractions import Fraction

import pytest

from htgroth import jsonio
from htgroth.jl_red import red_tau
from htgroth.modl import FieldData, SupercuspidalData
from htgroth.segments import (
    CuspidalLabel,
    GrothElement,
    half,
    make_speh_st,
    make_steinberg,
)
from htgroth.symbolic import atom, integer

PI = CuspidalLabel("pi", g=1)


def test_multisegment_round_trip():
    ms = make_speh_st(PI, 3, 2).multisegments()[0]
    data = jsonio.multisegment_to_json(ms)
    assert data == [["pi", -3, 2], ["pi", -1, 2], ["pi", 1, 2]]
    assert jsonio.multisegment_from_json(data, {"pi": PI}) == ms


def test_groth_round_trip_integer_coeffs():
    x = GrothElement.of(make_steinberg(PI, 2), Fraction(1, 2), -3)
    data = jsonio.groth_to_json(x)
    assert jsonio.groth_from_json(data, {"pi": PI}) == x


def test_groth_round_trip_symbolic_coeffs():
    c = atom("m(Pi)") * atom("dxi") * 2 + integer(1)
    x = GrothElement.of(make_speh_st(PI, 2, 1), 0, c)
    data = jsonio.groth_to_json(x)
    assert jsonio.groth_from_json(data, {"pi": PI}) == x


def test_transfer_output_round_trips():
    x = GrothElement.of(make_speh_st(PI, 2, 2))
    out = red_tau(PI, 1, x)
    data = jsonio.groth_to_json(out)
    assert jsonio.groth_from_json(data, {"pi": PI}) == out


def test_supercuspidal_round_trip():
    sc = SupercuspidalData(CuspidalLabel("rho", g=2), FieldData(4, 3), 1)
    data = jsonio.supercuspidal_to_json(sc)
    back = jsonio.supercuspidal_from_json(data)
    assert back.label.id == "rho" and back.label.g == 2
    assert back.field == sc.field and back.epsilon == 1


@pytest.mark.parametrize("field, value", [("id", 5), ("g", True), ("l", 3.0), ("epsilon", 2.0)])
def test_supercuspidal_from_json_refuses_wrong_types(field, value):
    data = {"id": "rho", "g": 1, "q": 2, "l": 3, "epsilon": 2, field: value}
    with pytest.raises(ValueError):
        jsonio.supercuspidal_from_json(data)


def test_sym_power_round_trip():
    c = atom("x") * atom("x") * atom("y")
    assert jsonio.sym_from_json(jsonio.sym_to_json(c)) == c


def test_sym_round_trip_signs_constants_and_bracketed_names():
    for c in (
        integer(0),
        integer(-4),
        atom("m[rho[u=0]]") * atom("ker1(Q,G)/d") * -2 + integer(3) - atom("n") * atom("n"),
        atom("m'[1]") - atom("m[1,3]"),
    ):
        assert jsonio.sym_from_json(jsonio.sym_to_json(c)) == c


def test_sym_reads_the_multiplicity_forms():
    m, n = atom("m0"), atom("n0")
    forms = {
        "m0": m,
        "2*m0": 2 * m,
        "m0*dxi": m * atom("dxi"),
        "m0^2": m * m,
        "3*m0*n0": 3 * m * n,
        "2 * m0 + -1": 2 * m - 1,
        "m[pi]": atom("m[pi]"),
        7: integer(7),
    }
    for data, value in forms.items():
        assert jsonio.sym_from_json(data) == value, data


@pytest.mark.parametrize("data", ["", " ", "m+", "m*", "m^", "2.5", "m - n", "2^3", "m^-1", "-m"])
def test_sym_rejects_malformed_strings(data):
    with pytest.raises(ValueError):
        jsonio.sym_from_json(data)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1/2", Fraction(1, 3)])
def test_twist_num_refuses_what_is_no_half_integer(bad):
    # a twist numerator read from JSON must be an int: a segment start or an Xi twist
    with pytest.raises(ValueError):
        jsonio.multisegment_from_json([["pi", bad, 1]], {"pi": PI})
    term = jsonio.groth_to_json(GrothElement.of(make_steinberg(PI, 2)))[0]
    with pytest.raises(ValueError):
        jsonio.groth_from_json([dict(term, xi_twist_numerator=bad)], {"pi": PI})


def test_twist_num_and_twist_val_are_inverse():
    # every twist numerator, odd or even, survives a JSON round trip
    for n in range(-9, 10):
        x = GrothElement.of(make_steinberg(PI, 2).twist(half(n)), half(n))
        data = jsonio.groth_to_json(x)
        assert data[0]["xi_twist_numerator"] == n
        assert jsonio.groth_from_json(data, {"pi": PI}) == x
    assert jsonio.multisegment_to_json(make_steinberg(PI, 1).multisegments()[0].twist(3)) == [["pi", 6, 1]]
