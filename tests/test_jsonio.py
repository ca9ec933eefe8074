import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from htgroth import jsonio
from htgroth.jl_red import red_tau
from htgroth.modl import FieldData, SupercuspidalData
from htgroth.segments import (
    KIND_FORMAL,
    KIND_GENERIC,
    KIND_SPEH_ST,
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    Multisegment,
    OpaqueFactor,
    Segment,
    half,
    make_speh_st,
    make_steinberg,
)
from htgroth.symbolic import ATOM_NAME, SymExpr, atom, integer

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


MALFORMED = ["", " ", "m+", "m*", "m^", "2.5", "m - n", "2^3", "m^-1", "-m"]


@pytest.mark.parametrize("data", MALFORMED)
def test_sym_rejects_malformed_strings(data):
    with pytest.raises(ValueError):
        jsonio.sym_from_json(data)


@pytest.mark.parametrize("data", [True, False, 1.5, [1], None, float("nan"), float("inf")])
def test_sym_answers_no_other_json_type_from_the_string_cache(data):
    # strings are read once per process, keyed on the string only: "True"
    # reads as an atom, and True, read after it and after 1, is still refused;
    # null, NaN and Infinity once read as the atoms None, nan and inf
    jsonio.sym_from_json(1), jsonio.sym_from_json(0)
    try:
        jsonio.sym_from_json(str(data))
    except ValueError:
        pass
    with pytest.raises(ValueError) as mine:
        jsonio.sym_from_json(data)
    with pytest.raises(ValueError) as reference:
        sym_from_json_reference(data)
    assert str(mine.value) == str(reference.value)


def sym_from_json_reference(data) -> SymExpr:
    """The reader by ``SymExpr`` arithmetic: each factor an expression, multiplied, then summed."""
    if isinstance(data, int):
        return integer(data)
    if not isinstance(data, str):
        raise ValueError(f"a coefficient is an integer or a string, not {data!r}")
    total = integer(0)
    for part in data.split("+"):
        acc = integer(1)
        for factor in part.split("*"):
            match = jsonio._FACTOR.fullmatch(factor.strip())
            if match is None:
                raise ValueError(f"cannot read {factor.strip()!r} in the coefficient {data!r}")
            number, name, power = match.groups()
            acc = acc * (integer(int(number)) if number else SymExpr.atom(name, int(power or 1)))
        total = total + acc
    return total


def _read_both(data):
    """The value or the ValueError message of the reader and of its reference."""
    out = []
    for read in (jsonio.sym_from_json, sym_from_json_reference):
        try:
            out.append(read(data))
        except ValueError as exc:
            out.append(("ValueError", str(exc)))
    return out


# repeated atoms, powers of 0 and 1, cancelling parts, a bare int: forms sym_to_json never writes
HAND_WRITTEN = ["m^0", "m^0*n", "2*m^1*m", "m + -1*m", "m^00*3 + n^2*n^0*-2", "x*y*x^2 + y*x^3", 0]


@pytest.mark.parametrize("data", MALFORMED + HAND_WRITTEN)
def test_sym_reader_matches_the_arithmetic_reference_on_strings(data):
    mine, reference = _read_both(data)
    assert mine == reference


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1/2", Fraction(1, 3)])
def test_twist_num_refuses_what_is_no_half_integer(bad):
    # a twist numerator read from JSON must be an int: a segment start or an Xi twist
    with pytest.raises(ValueError):
        jsonio.multisegment_from_json([["pi", bad, 1]], {"pi": PI})
    term = jsonio.groth_to_json(GrothElement.of(make_steinberg(PI, 2)))[0]
    with pytest.raises(ValueError):
        jsonio.groth_from_json([dict(term, xi_twist_numerator=bad)], {"pi": PI})


@pytest.mark.parametrize("coeff", [None, 1.5, [1], {"m": 1}])
def test_groth_from_json_refuses_a_coefficient_of_no_json_int_or_string(coeff):
    # "coeff": null once read as the element (None)*<label>
    term = jsonio.groth_to_json(GrothElement.of(make_steinberg(PI, 2)))[0]
    with pytest.raises(ValueError, match="a coefficient is an integer or a string"):
        jsonio.groth_from_json([dict(term, coeff=coeff)], {"pi": PI})


def test_twist_num_and_twist_val_are_inverse():
    # every twist numerator, odd or even, survives a JSON round trip
    for n in range(-9, 10):
        x = GrothElement.of(make_steinberg(PI, 2).twist(half(n)), half(n))
        data = jsonio.groth_to_json(x)
        assert data[0]["xi_twist_numerator"] == n
        assert jsonio.groth_from_json(data, {"pi": PI}) == x
    assert jsonio.multisegment_to_json(make_steinberg(PI, 1).multisegments()[0].twist(3)) == [["pi", 6, 1]]


# -- indented output: the walker against the stdlib ---------------------------

# quotes, backslashes, control characters, DEL, a line separator, non-ASCII and non-BMP
TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\xe9\u03c1\U0001f600'), max_size=8)
INTS = st.integers() | st.sampled_from([0, -1, 2**63, -(2**100), 10**40])
PAYLOADS = st.recursive(
    st.none() | st.booleans() | INTS | TEXT,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(obj=PAYLOADS)
def test_walker_prints_the_stdlib_bytes(obj):
    assert jsonio.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_walker_prints_empty_containers_and_scalars_alone():
    for obj in ({}, [], (), [{}, [], ()], {"": {}}, None, True, False, -7, "\u20ac"):
        assert jsonio.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [1.5, [0.0], {"a": {"b": 2.0}}, {1: 2}, {"a": 1, None: 2}, [Fraction(1, 2)], {"a"}, b"x"]
    + [{"a": 1.5}, [float("nan")], [float("inf")], {"a": [GrothElement.zero(), -0.0]}],
)
def test_walker_refuses_floats_non_str_keys_and_other_types(obj):
    # the stdlib would print 1.5, NaN (no JSON) or the key "1"; dumps prints no float and no coerced key
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


# -- Grothendieck elements through the printed text ---------------------------

# ids with brackets and non-ASCII characters, on lines of several ranks
LINES = (
    CuspidalLabel("pi"),
    CuspidalLabel("\u03c1[u=0]", g=2),
    CuspidalLabel("\u03c0[u=-1]#1", g=3),
    CuspidalLabel("[x y]"),
)
ATOM_NAMES = st.sampled_from(["m[\u03c1[u=0]]", "ker1(Q,G)/d", "n'", "dxi"]) | st.from_regex(
    ATOM_NAME, fullmatch=True
)


@st.composite
def coeffs(draw):
    c = integer(0)
    for _ in range(draw(st.integers(1, 3))):
        term = integer(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 2))):
            term = term * SymExpr.atom(draw(ATOM_NAMES), draw(st.integers(1, 3)))
        c = c + term
    return c


@st.composite
def labels(draw):
    factors = [
        OpaqueFactor(draw(TEXT), draw(st.integers(0, 3))) for _ in range(draw(st.integers(0, 2)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        segs = [
            Segment(draw(st.sampled_from(LINES)), half(draw(st.integers(-9, 9))), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        factors.append(Multisegment(segs))
    return IrreducibleLabel(factors, draw(st.sampled_from([KIND_FORMAL, KIND_GENERIC, KIND_SPEH_ST])))


@st.composite
def elements(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[(draw(labels()), half(draw(st.integers(-9, 9))))] = draw(coeffs())
    return GrothElement(terms)


def _label_sort_key(label: IrreducibleLabel):
    """A label's sort key computed afresh: its kind, then its factors' keys."""
    return (label.kind, tuple(factor._key for factor in label.factors))


@settings(max_examples=100, deadline=None)
@given(labs=st.lists(labels(), min_size=1, max_size=6), data=st.data())
def test_sorted_terms_order_as_a_fresh_label_sort_key_sort(labs, data):
    # each label keeps its sort key from its first sort; the order and the kept
    # key stay what a fresh _label_sort_key gives, the hash what its factors' hashes give
    hashes = [hash(label) for label in labs]
    for _ in range(3):  # the later sorts read kept keys, on labels shared between elements
        terms = {(label, half(data.draw(st.integers(-1, 1)))): integer(1) for label in labs}
        x = GrothElement(terms)
        fresh = sorted(x.terms.items(), key=lambda kv: (kv[0][1], _label_sort_key(kv[0][0])))
        assert x.sorted_terms() == fresh
    # (a sort of one term reads no key)
    assert all(getattr(label, "_sort_key", None) in (None, _label_sort_key(label)) for label in labs)
    assert [hash(label) for label in labs] == hashes
    assert hashes == [hash((tuple(map(hash, label.factors)), label.kind)) for label in labs]


@settings(max_examples=100, deadline=None)
@given(x=elements())
def test_groth_round_trip_through_the_printed_text(x):
    text = jsonio.dumps(jsonio.groth_to_json(x))
    assert text.isascii()
    assert jsonio.groth_from_json(json.loads(text), {c.id: c for c in LINES}) == x


@settings(max_examples=200, deadline=None)
@given(c=coeffs())
def test_sym_reader_matches_the_arithmetic_reference_on_written_coefficients(c):
    data = jsonio.sym_to_json(c)
    mine, reference = _read_both(data)
    assert mine == reference == c


# -- labels and elements handed to dumps as they are --------------------------


def plain(obj):
    """``obj`` with every element as ``groth_to_json`` and every label as ``_label_to_json`` encodes it."""
    if isinstance(obj, GrothElement):
        return jsonio.groth_to_json(obj)
    if isinstance(obj, IrreducibleLabel):
        return jsonio._label_to_json(obj)
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    return obj


# elements and labels at several depths, among scalars, lists and dicts
VALUE_PAYLOADS = st.recursive(
    elements() | labels() | st.sampled_from([GrothElement.zero(), IrreducibleLabel.unit()]) | INTS | TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(obj=VALUE_PAYLOADS)
def test_values_print_as_their_json_data(obj):
    assert jsonio.dumps(obj) == json.dumps(plain(obj), indent=2, sort_keys=True)


def test_values_print_as_their_json_data_at_every_depth():
    rho = CuspidalLabel("ρ[u=0]", g=2)
    x = red_tau(PI, 1, GrothElement.of(make_speh_st(PI, 2, 2)))
    mixed = IrreducibleLabel(
        [OpaqueFactor("τ\n\"tail\"", 2), make_speh_st(rho, 2, 1).multisegments()[0]], KIND_GENERIC
    )
    y = GrothElement.of(mixed, half(-3), atom("m[ρ[u=0]]") * 2 - 1)
    unit, zero = IrreducibleLabel.unit(), GrothElement.zero()
    for obj in (x, mixed, unit, zero, [zero], {"0": x, "1": zero, "2": y}, [{"a": [y, mixed]}, (unit,)]):
        assert jsonio.dumps(obj) == json.dumps(plain(obj), indent=2, sort_keys=True)


# atom names with non-ASCII characters, printed with ^ powers
POWER_ATOMS = st.sampled_from(["\u03bc", "m[\u03c1[u=0]]", "\u03be_2", "dxi"])


@st.composite
def printed_elements(draw):
    """An element, often empty: its coefficients print with ``^`` powers, its labels hold an opaque factor."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        base = draw(labels())
        opaque = OpaqueFactor(draw(TEXT), draw(st.integers(0, 3)))
        label = IrreducibleLabel((opaque, *base.factors), base.kind)
        c = integer(draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(1, 2))):
            c = c + draw(st.integers(1, 3)) * SymExpr.atom(draw(POWER_ATOMS), draw(st.integers(2, 4)))
        terms[(label, half(draw(st.integers(-9, 9))))] = c
    return GrothElement(terms)


@settings(max_examples=150, deadline=None)
@given(x=printed_elements(), wraps=st.lists(st.booleans(), max_size=3))
def test_elements_print_their_stdlib_bytes_at_depths_0_to_3(x, wraps):
    obj = x
    for in_a_list in wraps:
        obj = [obj, 0] if in_a_list else {"\u03c1": obj, "a": x}
    expected = json.dumps(plain(obj), indent=2, sort_keys=True)
    assert "^" in expected or x.is_zero()
    assert jsonio.dumps(obj) == expected


def test_a_label_is_encoded_once(monkeypatch):
    # dumps writes each label from its cached text, one per depth: a second
    # print of the same element at a depth it was printed at encodes no label
    calls = []
    encode = jsonio._label_to_json
    monkeypatch.setattr(jsonio, "_label_to_json", lambda label: calls.append(label) or encode(label))
    jsonio._label_at.cache_clear()
    x = red_tau(PI, 1, GrothElement.of(make_speh_st(PI, 3, 2)))
    expected = json.dumps(jsonio.groth_to_json(x), indent=2, sort_keys=True)
    calls.clear()
    jsonio.dumps({"0": x, "1": x, "2": [x]})  # two depths
    assert len(calls) == 2 * len({label for label, _ in x.terms}) > 2
    assert jsonio.dumps(x) == expected
    calls.clear()
    assert jsonio.dumps(x) == expected
    assert calls == []
