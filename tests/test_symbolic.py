import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from htgroth.symbolic import ATOM_NAME, SymExpr, atom, integer


def test_ring_basics():
    a, b = atom("a"), atom("b")
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    assert a - a == integer(0)
    assert integer(0).is_zero()


def test_integer_embedding():
    assert integer(3) + integer(4) == integer(7)
    assert (integer(2) * atom("x")) - atom("x") == atom("x")
    assert integer(5).as_integer() == 5
    assert not atom("x").is_integer()


def test_monomials_collect():
    x = atom("x")
    assert x * x == SymExpr.atom("x", 2)
    assert (x + x) == integer(2) * x


def test_mixed_scalars():
    x = atom("x")
    assert 2 * x == x + x
    assert x + 0 == x
    assert 1 * x == x


def test_atoms_listing():
    e = atom("m") * atom("d") + integer(2)
    assert e.atoms() == {"m", "d"}


def test_hash_consistency():
    assert hash(atom("u") + atom("v")) == hash(atom("v") + atom("u"))


def test_integer_expressions_hash_as_their_int():
    # an integer-only expression equals its int, so it must hash as it does:
    # a set or a dict key then holds one of the two, not both
    for n in (-7, -1, 0, 1, 3, 2**70):
        assert integer(n) == n and hash(integer(n)) == hash(n)
        assert len({n, integer(n)}) == 1
    assert SymExpr() == 0 and hash(SymExpr()) == hash(0)
    assert hash(atom("x") - atom("x") + 2) == hash(2)
    assert {integer(3): "a"}[3] == "a"
    assert hash(atom("x")) == hash(atom("x") * 1)


@pytest.mark.parametrize("name", ["", "1m", "-m", "^m", "a+b", "m[a+b]", "a*b", "m^2", "my pi", "m\t", "m "])
def test_atom_refuses_names_a_coefficient_cannot_hold(name):
    with pytest.raises(ValueError):
        atom(name)
    with pytest.raises(ValueError):
        SymExpr.atom(name, 2)


@pytest.mark.parametrize("name", ["m", "_x", "m[rho[u=-1]#0]", "ker1(Q,G)/d", "n'", "ρ", "m[\U0001d70b]"])
def test_atom_takes_the_names_the_reader_takes(name):
    assert ATOM_NAME.fullmatch(name)
    assert atom(name).atoms() == {name}


@pytest.mark.parametrize(
    "build",
    [
        # each once reached the exact ring: integer(2.5) printed 2.5, atom("m", 1.5) m^1.5
        lambda: SymExpr.integer(2.5),
        lambda: integer(1.0),
        lambda: integer(True),
        lambda: SymExpr.atom("m", 1.5),
        lambda: SymExpr.atom("m", True),
        lambda: atom("m") * 2.5,
        lambda: 2.5 * atom("m"),
        lambda: atom("m") + 0.5,
        lambda: atom("m") - False,
    ],
)
def test_floats_and_bools_are_refused_as_integers(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_expressions_cannot_be_assigned_or_deleted():
    # a dict keyed on an expression keeps its hash: re-keying it in place must fail
    e = atom("m") + 2
    table = {e: "x"}
    for name in ("_terms", "_hash", "_neg", "not_a_slot"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(e, name, {(): 1})
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert e == atom("m") + 2 and table[atom("m") + 2] == "x"


def test_the_hash_is_computed_once(monkeypatch):
    calls = []
    original = SymExpr.is_integer

    def counting(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(SymExpr, "is_integer", counting)
    e = atom("m") * atom("n") - 3
    first = hash(e)
    assert hash(e) == first and len(calls) == 1
    assert first == hash(frozenset({((("m", 1), ("n", 1)), 1), ((), -3)}))


def test_copies_and_pickles_rebuild_equal_expressions():
    for e in (atom("m") * 2 + atom("n"), integer(7), SymExpr()):
        hash(e)  # a cached hash is not carried along: it is recomputed
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and hash(twin) == hash(e) and repr(twin) == repr(e)


def test_bools_still_compare_as_their_ints():
    assert integer(1) == True and integer(0) == False and SymExpr() == 0  # noqa: E712
    assert atom("m") != 1 and integer(2) != 3


EXPRS = st.dictionaries(
    st.sampled_from([(), (("m", 1),), (("n", 2),), (("m", 1), ("n", 1))]), st.integers(-2, 2), max_size=4
).map(SymExpr)


def _reference_terms(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


@given(a=EXPRS, b=EXPRS, k=st.integers(-2, 2))
def test_ring_operations_keep_no_zero_coefficient_and_start_with_no_hash(a, b, k):
    # the ring operations wrap their dicts unchecked: each must drop what cancels itself
    summed = {m: a._terms.get(m, 0) + b._terms.get(m, 0) for m in {**a._terms, **b._terms}}
    negated = {m: -c for m, c in b._terms.items()}
    expected = [
        (a + b, summed),
        (a - b, {m: a._terms.get(m, 0) + negated.get(m, 0) for m in {**a._terms, **negated}}),
        (-a, {m: -c for m, c in a._terms.items()}),
        (a + k, {**a._terms, (): a._terms.get((), 0) + k}),
        (SymExpr.integer(k), {(): k}),
    ]
    if abs(k) != 1:  # a product with +-1 is a itself or its kept negation: below
        scaled = {m: c * k for m, c in a._terms.items()}
        expected += [(a * k, scaled), (k * a, scaled)]
    for e, terms in expected:
        assert e._terms == _reference_terms(terms) and 0 not in e._terms.values()
        assert e._hash is None  # the first hash finds the slot set, and raises nothing
        assert hash(e) == (hash(e.as_integer()) if e.is_integer() else hash(frozenset(e.items())))
        assert e._hash == hash(e)
    assert a * 1 is a and 1 * a is a
    assert a * -1 is a * -1 and -1 * a is a * -1
    assert a * -1 == -a and (a * -1) * -1 == a and 0 not in (a * -1)._terms.values()
    assert hash(a * -1) == hash(-a) and hash((a * -1) * -1) == hash(a)
    product = a * b  # built through the public constructor, which drops zeros
    assert 0 not in product._terms.values() and product._hash is None
