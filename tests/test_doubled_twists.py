"""The doubled-int twists against their ``Fraction`` references.

Grothendieck terms key their Xi slot, and mod-l collapses their twists, on
doubled ints; ``fraction_oracles`` computes the same values in ``Fraction``s.
These tests compare the two on random input, and guard that the mod-l paths
hash no ``Fraction`` at all.
"""

import copy
import itertools
import pickle
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest
from htgroth.cohomology import (
    ProfileEntry,
    SpectrumProfile,
    coh_shriek,
    conj2_predicate,
    rl_hi_balance,
)
from htgroth.jl_red import _run_data, r_tau_sign
from htgroth.jsonio import groth_from_json, groth_to_json
from htgroth.modl import (
    FieldData,
    SupercuspidalData,
    TowerLevel,
    collapse_label_key,
    collapse_segment_key,
    cuspidal_lifts,
    fraction_class_key,
    line_key,
    matched_strata,
    rl_collapse,
    rl_reduce,
    tower_cuspidal,
)
from htgroth.segments import (
    KIND_FORMAL,
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    Multisegment,
    OpaqueFactor,
    Segment,
    groth_product,
    half,
    speh_st_multisegment,
    steinberg_multisegment,
    twice,
)
from htgroth.symbolic import SymExpr, atom, integer

from fraction_oracles import (
    collapse_label_key_fraction,
    collapse_segment_key_fraction,
    fraction_terms,
    groth_from_json_fraction,
    groth_product_fraction,
    groth_to_json_fraction,
    r_tau_sign_fraction,
    rl_reduce_fraction,
    run_data_fraction,
)
from euler_oracles import table_euler
from htgroth_caches import clear_htgroth_caches

# (base id, q, l, epsilon, u): the line of each level has the stretch and
# period noted, so the lifts cover stretch 1, 2, 3 and 49 and epsilon 1, 2, 3
LEVELS = (
    ("rho", 2, 7, 3, -1),  # stretch 1, epsilon 3
    ("sigma", 2, 3, 2, 0),  # stretch 2, epsilon 2
    ("kappa", 2, 7, 3, 0),  # stretch 3, epsilon 3
    ("lam", 2, 3, 1, 0),  # stretch 3, epsilon 1
    ("mu", 2, 7, 1, 1),  # stretch 49, epsilon 1
)
LIFTS = {}
for base, q, l, eps, u in LEVELS:
    level = TowerLevel(SupercuspidalData(CuspidalLabel(base), FieldData(q, l), eps), u)
    for lift in cuspidal_lifts(level, 2):  # two lifts per level collapse alike
        LIFTS[lift.id] = level
LIFT_LINES = tuple(
    CuspidalLabel(id, g=level.base.g * line_key(id, LIFTS)[3]) for id, level in LIFTS.items()
)
# each lift line and the other lift of its level
PARTNER = {a: b for pair in zip(LIFT_LINES[::2], LIFT_LINES[1::2]) for a, b in (pair, pair[::-1])}
RAW_LINES = (CuspidalLabel("rho"), CuspidalLabel("tau", g=2))  # off the lift map
STARTS2 = st.integers(-9, 9)
COEFFS = st.sampled_from([integer(1), integer(-1), integer(2), atom("m"), -atom("m")])


def test_levels_cover_the_stretches_and_periods():
    lines = {line_key(id, LIFTS) for id in LIFTS}
    assert {line[3] for line in lines} == {1, 2, 3, 49}
    assert {line[4] for line in lines} == {1, 2, 3}


@st.composite
def lines(draw):
    """A ``line_key``: raw, or the base line of a stretch in {1, 2, 3, 49} and a period in {1, 2, 3}."""
    if draw(st.booleans()):
        return ("raw", draw(st.sampled_from(["rho", "tau"])))
    stretch, eps = draw(st.sampled_from([1, 2, 3, 49])), draw(st.sampled_from([1, 2, 3]))
    return ("base", draw(st.sampled_from(["rho", "sigma"])), draw(st.integers(-1, 1)), stretch, eps)


@given(start2=STARTS2, length=st.integers(1, 4), line=lines())
def test_collapse_segment_key_halves_to_the_fraction_fold(start2, length, line):
    key = collapse_segment_key(start2, length, line)
    assert type(key[-1]) is int
    expected = collapse_segment_key_fraction(half(start2), length, line)
    assert key[:-1] + (half(key[-1]),) == expected
    assert repr(key[:-1] + (half(key[-1]),)) == repr(expected)


@st.composite
def labels(draw):
    """A formal label: multisegments on lifted and raw lines, and opaque tails."""
    factors = [
        OpaqueFactor(draw(st.sampled_from(["tail", "rem"])), draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        segs = [
            Segment(
                draw(st.sampled_from(LIFT_LINES + RAW_LINES)),
                half(draw(STARTS2)),
                draw(st.integers(1, 3)),
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        factors.append(Multisegment(segs))
    return IrreducibleLabel(factors, KIND_FORMAL)


@st.composite
def elements(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[(draw(labels()), half(draw(STARTS2)))] = draw(COEFFS)
    return GrothElement(terms)


@settings(max_examples=300, deadline=None)
@given(label=labels(), xi2=STARTS2)
def test_collapse_label_key_halves_to_the_fraction_key(label, xi2):
    key = collapse_label_key(label, LIFTS)
    expected = (collapse_label_key_fraction(label, LIFTS), half(xi2))
    assert fraction_class_key((key, xi2)) == expected
    assert repr(fraction_class_key((key, xi2))) == repr(expected)
    assert all(type(part[-1]) is int for part in key)


def _moved(label: IrreducibleLabel) -> IrreducibleLabel:
    """The label with each lifted segment moved to the other lift of its level, one period up."""

    def moved(seg: Segment) -> Segment:
        if seg.cuspidal not in PARTNER:
            return seg
        period = LIFTS[seg.cuspidal.id].base.epsilon
        return Segment(PARTNER[seg.cuspidal], seg.start + period, seg.length)

    factors = [
        Multisegment(map(moved, f.segments)) if isinstance(f, Multisegment) else f
        for f in label.factors
    ]
    return IrreducibleLabel(factors, label.kind)


@settings(max_examples=300, deadline=None)
@given(x=elements(), data=st.data())
def test_rl_reduce_matches_the_fraction_reference(x, data):
    # add moved copies of some terms, which collapse into the same classes,
    # so classes merge and coefficients cancel
    moved = {}
    for (label, xi2), c in x.terms.items():
        sign = data.draw(st.sampled_from([0, 1, -1]))
        if sign:
            moved[(_moved(label), half(xi2))] = c * sign
    y = x + GrothElement(moved)
    for z in (x, y):
        reduced, expected = rl_reduce(z, LIFTS), rl_reduce_fraction(fraction_terms(z), LIFTS)
        assert reduced == expected
        assert sorted(map(repr, reduced.items())) == sorted(map(repr, expected.items()))
        # the boundary map is injective: as many int classes as Fraction ones
        assert len(rl_collapse(z, LIFTS)) == len(expected)


def test_rl_reduce_merges_lifts_and_periods():
    # two lifts of one level, and starts one period apart, fall in one class
    for a, b in PARTNER.items():
        eps = LIFTS[a.id].base.epsilon
        for start2 in range(-9, 10):
            x = GrothElement.of(IrreducibleLabel((Multisegment([Segment(a, half(start2), 2)]),)))
            y = GrothElement.of(
                IrreducibleLabel((Multisegment([Segment(b, half(start2 + 2 * eps), 2)]),))
            )
            assert rl_collapse(x, LIFTS) == rl_collapse(y, LIFTS)
            assert rl_reduce(x - y, LIFTS) == {} == rl_reduce_fraction(fraction_terms(x - y), LIFTS)


@settings(max_examples=200, deadline=None)
@given(a=elements(3), b=elements(3))
def test_groth_product_matches_the_fraction_reference(a, b):
    product = groth_product(a, b)
    assert fraction_terms(product) == groth_product_fraction(fraction_terms(a), fraction_terms(b))
    assert all(type(xi2) is int for _, xi2 in product.terms)


@settings(max_examples=200, deadline=None)
@given(x=elements())
def test_jsonio_round_trip_matches_the_fraction_reference(x):
    cuspidals = {c.id: c for c in LIFT_LINES + RAW_LINES}
    data = groth_to_json(x)
    assert data == groth_to_json_fraction(fraction_terms(x))
    back = groth_from_json(data, cuspidals)
    assert back == x
    assert fraction_terms(back) == groth_from_json_fraction(data, cuspidals)


# ---------------------------------------------------------------------------
# segments store their doubled start once; runs are read off it
# ---------------------------------------------------------------------------


@given(line=st.sampled_from(LIFT_LINES + RAW_LINES), start2=STARTS2, length=st.integers(1, 4))
def test_a_segment_stores_only_its_doubled_start(line, start2, length):
    assert "start" not in Segment.__slots__
    for start in [half(start2)] + ([start2 // 2] if start2 % 2 == 0 else []):
        seg = Segment(line, start, length)
        assert seg.start2 == twice(seg.start) == start2 and seg.end2 == twice(seg.end)
        assert seg.end - seg.start == length - 1
        slots = [getattr(seg, name) for name in Segment.__slots__]
        assert not any(isinstance(v, Fraction) for v in slots + list(seg._key)), slots
        assert seg.twist(half(-1)).start2 == start2 - 1


PI_RUN = CuspidalLabel("pi")


@st.composite
def run_candidates(draw):
    """1-4 segments tiling a run, then maybe a duplicate, a gap, an overlap, a half step or a second line."""
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    starts2 = [draw(STARTS2)]
    for length in lengths[:-1]:
        starts2.append(starts2[-1] + 2 * length)
    lines = [PI_RUN] * len(lengths)
    change = draw(st.sampled_from(["none", "duplicate", "gap", "overlap", "half step", "line"]))
    j = draw(st.integers(0, len(lengths) - 1))
    if change == "duplicate":
        starts2, lengths, lines = starts2 + [starts2[j]], lengths + [lengths[j]], lines + [PI_RUN]
    elif change in ("gap", "overlap", "half step"):
        step = {"gap": 2 * draw(st.integers(1, 2)), "overlap": -2, "half step": 1}[change]
        starts2 = starts2[:j] + [a + step for a in starts2[j:]]
    elif change == "line":
        lines[j] = draw(st.sampled_from([CuspidalLabel("rho"), CuspidalLabel("pi", g=2)]))
    segs = [Segment(line, half(a), k) for line, a, k in zip(lines, starts2, lengths)]
    return change, Multisegment(segs[:4])


@settings(max_examples=400, deadline=None)
@given(case=run_candidates())
def test_run_data_and_r_tau_sign_match_the_fraction_reference(case):
    change, ms = case
    run, expected = _run_data(ms), run_data_fraction(ms)
    if change == "none":
        assert run is not None
    if expected is None:
        assert run is None
        for sign in (r_tau_sign, r_tau_sign_fraction):
            with pytest.raises(ValueError, match="transfer vanishes"):
                sign(ms)
        return
    cuspidal, _, _, center = expected
    assert run == (cuspidal, twice(center)) and type(run[1]) is int
    assert r_tau_sign(ms) == r_tau_sign_fraction(ms)


# ---------------------------------------------------------------------------
# no Fraction hashed on the mod-l paths
# ---------------------------------------------------------------------------

HASH_SC = SupercuspidalData(CuspidalLabel("rho"), FieldData(2, 7), 3)


def _hash_problem(ids=None):
    """Two lifts of level 0, each with one profile of three entries, on half-integer twists.

    ``ids`` names the two lifts, as a fresh line never seen before; by default
    they are the first two ``cuspidal_lifts``.
    """
    level = TowerLevel(HASH_SC, 0)
    if ids is None:
        lift_a, lift_b = cuspidal_lifts(level, 2)
    else:
        lift_a, lift_b = (tower_cuspidal(level, id=name) for name in ids)
    lifts = {lift_a.id: level, lift_b.id: level}
    tail = IrreducibleLabel(
        (steinberg_multisegment(CuspidalLabel("sigma"), 2), OpaqueFactor("tau", 1))
    )
    lifted_tail = IrreducibleLabel((speh_st_multisegment(lift_a, 2, 1),))

    def profile(lift):
        return SpectrumProfile(
            (
                ProfileEntry(s=1, t=3, cuspidal=lift, mult=atom("a"), xi=half(1)),
                ProfileEntry(s=3, t=1, cuspidal=lift, mult=atom("b"), xi=half(-2), tail=tail),
                ProfileEntry(s=2, t=1, cuspidal=lift, mult=integer(2), xi=half(3), tail=lifted_tail),
            )
        )

    return lift_a, lift_b, lifts, profile(lift_a), profile(lift_b)


def _count_fraction_hashes(monkeypatch) -> list:
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    return calls


def test_balance_and_conj2_hash_no_fraction(monkeypatch):
    lift_a, lift_b, lifts, prof_a, prof_b = _hash_problem()
    strata = matched_strata(0, 0, 9, HASH_SC)  # r = r' = 1, 2, 3: g_0 = 3, blocks of up to 3 units
    clear_htgroth_caches()
    calls = _count_fraction_hashes(monkeypatch)
    for _ in range(2):  # cold caches, then warm
        constraints = list(
            itertools.chain.from_iterable(
                rl_hi_balance(prof_a, prof_b, HASH_SC, 0, 0, r, rp, lift_a, lift_b, lifts)
                for r, rp in strata
            )
        )
        assert constraints and all(c.is_tautology() for c in constraints)
    assert len(calls) == 0, "rl_hi_balance hashed a Fraction"
    assert any(type(c.class_key[1]) is Fraction for c in constraints)  # the public keys keep Fractions

    for _ in range(2):
        run_a = {r: coh_shriek(prof_a, lift_a, r) for r in range(1, 4)}
        run_b = {r: coh_shriek(prof_b, lift_b, r) for r in range(1, 4)}
        assert any(not table.is_zero() for table in run_a.values())
        assert conj2_predicate(run_a, run_b, lifts, lifts)
    assert len(calls) == 0, "coh_shriek or conj2_predicate hashed a Fraction"
    # the counter does count: the Fraction-keyed collapse hashes
    assert rl_reduce_fraction(fraction_terms(table_euler(run_a[1])), lifts) and calls


def _count_fraction_constructions(monkeypatch) -> list:
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(None)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls


def _balance_all_strata(lift_a, lift_b, lifts, prof_a, prof_b):
    return [
        c
        for r, rp in matched_strata(0, 0, 9, HASH_SC)
        for c in rl_hi_balance(prof_a, prof_b, HASH_SC, 0, 0, r, rp, lift_a, lift_b, lifts)
    ]


def _shriek_runs(lift_a, lift_b, lifts, prof_a, prof_b):
    run_a = {r: coh_shriek(prof_a, lift_a, r) for r in range(1, 4)}
    run_b = {r: coh_shriek(prof_b, lift_b, r) for r in range(1, 4)}
    return run_a, conj2_predicate(run_a, run_b, lifts, lifts)


def test_fresh_lifts_build_no_fraction_with_warm_caches(monkeypatch):
    # the towers path on two lift lines never seen before: after a warm-up
    # on two other lifts, the balance builds no Fraction (its public class
    # keys come from the warm half cache), and the shriek tables and their
    # collapse build none even with that cache cleared: their segments,
    # labels and twists stay doubled ints from the cut shapes on
    warm = _hash_problem(("rho[u=0]#warm.a", "rho[u=0]#warm.b"))
    _balance_all_strata(*warm)
    _shriek_runs(*warm)
    fresh = _hash_problem(("rho[u=0]#fresh.a", "rho[u=0]#fresh.b"))
    calls = _count_fraction_constructions(monkeypatch)
    constraints = _balance_all_strata(*fresh)
    assert constraints and all(c.is_tautology() for c in constraints)
    assert len(calls) == 0, "rl_hi_balance built a Fraction on fresh lifts"
    half.cache_clear()
    run_a, agree = _shriek_runs(*fresh)
    assert agree and any(not table.is_zero() for table in run_a.values())
    assert len(calls) == 0, "coh_shriek or conj2_predicate built a Fraction on fresh lifts"
    assert Fraction(1, 3) and calls  # the counter does count

    # an expression computes its hash once, however often it is hashed
    hashed = []
    is_integer = SymExpr.is_integer
    monkeypatch.setattr(SymExpr, "is_integer", lambda self: hashed.append(self) or is_integer(self))
    weight = atom("c0") * 3 + atom("c1")
    assert hash(weight) == hash(weight) and len(hashed) == 1

    # an entry keeps its twist doubled in a slot outside its fields
    pi = fresh[0]
    entry = ProfileEntry(s=2, t=1, cuspidal=pi, mult=atom("m"), xi=Fraction(3, 2))
    assert entry.xi2 == 3 and type(entry.xi2) is int and entry.xi == Fraction(3, 2)
    assert "xi2" not in ProfileEntry._fields and "xi2" not in repr(entry)
    assert repr(entry) == (
        "ProfileEntry(s=2, t=1, cuspidal=CuspidalLabel('rho[u=0]#fresh.a', g=3), mult=m, "
        "xi=Fraction(3, 2), tail=<1>, markers=frozenset())"
    )
    twin = ProfileEntry(s=2, t=1, cuspidal=pi, mult=atom("m"), xi=half(3))
    assert entry == twin and hash(entry) == hash(twin)
    assert entry != ProfileEntry(s=2, t=1, cuspidal=pi, mult=atom("m"), xi=1)
    for other in (copy.copy(entry), copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
        assert other == entry and repr(other) == repr(entry) and other.xi2 == 3
    with pytest.raises(AttributeError):
        entry.xi2 = 1


@pytest.mark.parametrize("markers", [frozenset(), frozenset({"nondegenerate-at-auxiliary-place", "a"})])
def test_an_entry_built_doubled_equals_the_keyword_one(markers):
    # the profile reader keeps the JSON twist numerator as xi2 and builds the
    # entry unchecked; it must be the entry the checked constructor builds
    pi = CuspidalLabel("rho[u=0]", g=2)
    for xi2 in range(-9, 10):
        mine = ProfileEntry._of2(2, 3, pi, atom("m"), xi2, markers)
        public = ProfileEntry(s=2, t=3, cuspidal=pi, mult=atom("m"), xi=half(xi2), markers=markers)
        assert mine == public and hash(mine) == hash(public) and repr(mine) == repr(public)
        assert mine.xi == public.xi == Fraction(xi2, 2) and mine.xi2 == xi2
        for other in (copy.copy(mine), copy.deepcopy(mine), pickle.loads(pickle.dumps(mine))):
            assert other == public and repr(other) == repr(public) and other.xi2 == xi2
