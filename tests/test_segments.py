import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_oracles import product_kind_pairwise

from htgroth.segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    KIND_FORMAL,
    KIND_GENERIC,
    KIND_SPEH_ST,
    Multisegment,
    OpaqueFactor,
    Partition,
    Segment,
    _product_kind,
    _rectangle_shape,
    box_partitions,
    cut_tuples,
    dominance_leq,
    ensure_half,
    groth_product,
    half,
    ladder_cuts,
    label_product,
    make_speh_st,
    _factor_key,
    make_steinberg,
    speh_st_multisegment,
    steinberg_multisegment,
    twice,
    twist,
)
from htgroth.symbolic import atom, integer

PI = CuspidalLabel("pi", g=1)
PI2 = CuspidalLabel("pi2", g=2)


class TestConstructors:
    def test_steinberg_center_zero(self):
        assert steinberg_multisegment(PI, 1) == Multisegment([Segment(PI, 0, 1)])
        assert steinberg_multisegment(PI, 2) == Multisegment([Segment(PI, half(-1), 2)])
        assert steinberg_multisegment(PI, 3) == Multisegment([Segment(PI, -1, 3)])

    def test_speh_st_ladder(self):
        assert speh_st_multisegment(PI, 1, 1) == Multisegment([Segment(PI, 0, 1)])
        assert speh_st_multisegment(PI, 2, 1) == Multisegment(
            [Segment(PI, half(-1), 1), Segment(PI, half(1), 1)]
        )
        assert speh_st_multisegment(PI, 2, 2) == Multisegment(
            [Segment(PI, -1, 2), Segment(PI, 0, 2)]
        )

    def test_speh_st_is_ladder_and_rank(self):
        for s in range(1, 5):
            for t in range(1, 5):
                ms = speh_st_multisegment(PI2, s, t)
                assert ms.is_ladder()
                assert ms.rank == s * t * PI2.g

    def test_label_rank(self):
        assert make_steinberg(PI2, 3).rank == 6
        assert make_speh_st(PI, 2, 3).rank == 6


class TestTwist:
    def test_twist_steinberg_shift(self):
        shifted = twist(make_steinberg(PI, 2), half(1))
        assert shifted.multisegments()[0] == Multisegment([Segment(PI, 0, 2)])

    def test_twist_identity(self):
        x = make_speh_st(PI, 2, 2)
        assert twist(x, 0) == x

    @given(
        num=st.integers(min_value=-8, max_value=8),
        s=st.integers(min_value=1, max_value=4),
        t=st.integers(min_value=1, max_value=4),
    )
    def test_twist_group_action(self, num, s, t):
        x = make_speh_st(PI, s, t)
        n = half(num)
        assert twist(twist(x, n), -n) == x

    def test_twist_groth_element_label_only(self):
        x = GrothElement.of(make_steinberg(PI, 2), half(1))
        y = x.twist(half(1))
        ((label, tw),) = y.terms.keys()
        assert tw == 1  # external slot untouched: Xi^(1/2), doubled
        assert label.multisegments()[0].segments[0].start == 0

    def test_xi_twist_slot(self):
        x = GrothElement.of(make_steinberg(PI, 2), 0)
        assert ((make_steinberg(PI, 2), 3),) == tuple(xi_twist(x, half(3)).terms)

    def test_terms_key_the_xi_slot_as_a_doubled_int(self):
        st2 = make_steinberg(PI, 2)
        for n in range(-5, 6):
            ((label, xi2),) = GrothElement.of(st2, half(n)).terms
            assert type(xi2) is int and xi2 == n and label == st2
        # an int, a whole Fraction and a half-integer Fraction all double once
        assert GrothElement.of(st2, 1).terms == GrothElement({(st2, Fraction(2, 2)): 1}).terms
        assert GrothElement.of(st2, 1).terms == {(st2, 2): 1}
        for bad in (Fraction(1, 3), 0.5, True, "1"):
            with pytest.raises(ValueError):
                GrothElement.of(st2, bad)
        # sums, negation, scaling, twists and products keep int keys
        x = GrothElement.of(st2, half(1), atom("a")) + GrothElement.of(st2, half(-3))
        for y in (x, -x, x.scale(3), x.twist(half(1)), groth_product(x, x), x - x.twist(1)):
            assert all(type(xi2) is int for _, xi2 in y.terms)
        assert {xi2 for _, xi2 in groth_product(x, x).terms} == {2, -2, -6}
        assert repr(GrothElement.of(st2, half(3))) == "(1)*{[-1/2,1/2]_pi} Xi^3/2"


def xi_twist(x: GrothElement, n) -> GrothElement:
    """Shift the external Xi exponent of every term of ``x`` by the half-integer n."""
    return GrothElement({(label, half(xi2 + twice(n))): c for (label, xi2), c in x.terms.items()})


def ladder_cuts_scan(lad, k_total):
    """Reference for ``ladder_cuts`` at k_total units: scan every suffix tuple and filter.

    A rectangle keeps the weakly increasing tuples, a general ladder those
    whose halves are again ladders.
    """
    rectangle = _rectangle_shape(lad) is not None
    out = []
    for ks in cut_tuples([seg.length for seg in lad.segments], k_total):
        if rectangle and any(a > b for a, b in zip(ks, ks[1:])):
            continue
        rows = list(zip(lad.segments, ks))
        a1 = Multisegment(Segment(sg.cuspidal, sg.end - k + 1, k) for sg, k in rows if k)
        a2 = Multisegment(Segment(sg.cuspidal, sg.start, sg.length - k) for sg, k in rows if k < sg.length)
        if rectangle or a1.is_ladder() and a2.is_ladder():
            out.append((a1, a2))
    return out


def test_box_partitions_match_a_brute_force_filter():
    for s, t in itertools.product(range(7), range(7)):
        by_size = {}
        for ks in itertools.product(range(t + 1), repeat=s):  # lexicographic
            if all(a <= b for a, b in zip(ks, ks[1:])):
                by_size.setdefault(sum(ks), []).append(ks)
        for k in range(-1, s * t + 2):
            assert box_partitions(s, t, k) == by_size.get(k, []), (s, t, k)


def test_cut_tuples_match_a_brute_force_filter():
    rng = random.Random(20261018)
    for _ in range(300):
        lengths = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        for total in range(-1, sum(lengths) + 2):
            brute = [
                ks
                for ks in itertools.product(*(range(k + 1) for k in lengths))  # lexicographic
                if sum(ks) == total
            ]
            assert list(cut_tuples(lengths, total)) == brute, (lengths, total)
    # any number of rows: the first of ~2 * 10^8 tuples comes at once
    assert next(iter(cut_tuples([1] * 1100, 3))) == (0,) * 1097 + (1, 1, 1)


class TestLadderCuts:
    def test_speh2_single_cut(self):
        lad = speh_st_multisegment(PI, 2, 1)
        cuts = ladder_cuts(lad, 1)
        assert cuts == [
            (
                Multisegment([Segment(PI, half(1), 1)]),
                Multisegment([Segment(PI, half(-1), 1)]),
            )
        ]

    def test_st2_single_cut(self):
        cuts = ladder_cuts(steinberg_multisegment(PI, 2), 1)
        assert cuts == [
            (
                Multisegment([Segment(PI, half(1), 1)]),
                Multisegment([Segment(PI, half(-1), 1)]),
            )
        ]

    def test_speh2_st2_two_cuts(self):
        cuts = ladder_cuts(speh_st_multisegment(PI, 2, 2), 2)
        assert len(cuts) == 2

    def test_extremes(self):
        lad = speh_st_multisegment(PI, 3, 2)
        assert ladder_cuts(lad, 0) == [(Multisegment(), lad)]
        assert ladder_cuts(lad, lad.rank) == [(lad, Multisegment())]

    def test_rank_conservation(self):
        lad = speh_st_multisegment(PI2, 3, 2)
        for k in range(0, 7):
            for a1, a2 in ladder_cuts(lad, 2 * k):
                assert a1.rank == 2 * k
                assert a1.rank + a2.rank == lad.rank

    def test_cuts_match_the_scan_in_order(self):
        # every rectangle with s, t <= 6 at every rank; on a line of rank g = 2,
        # s, t <= 3; and a general ladder
        ladders = [(speh_st_multisegment(PI, s, t), 1) for s in range(1, 7) for t in range(1, 7)]
        ladders += [(speh_st_multisegment(PI2, s, t), 2) for s in range(1, 4) for t in range(1, 4)]
        ladders.append((Multisegment([Segment(PI, 0, 1), Segment(PI, 1, 3)]), 1))
        for lad, g in ladders:
            for k in range(lad.rank // g + 1):
                assert ladder_cuts(lad, k * g) == ladder_cuts_scan(lad, k), (lad, k)

    def test_rejects_bad_rank(self):
        lad = speh_st_multisegment(PI2, 2, 2)
        with pytest.raises(ValueError):
            ladder_cuts(lad, 3)  # not a multiple of g=2
        with pytest.raises(ValueError):
            ladder_cuts(lad, 10)  # exceeds total

    def test_general_ladder_halves_are_ladders(self):
        # non-rectangle ladder: lengths 1 and 3
        lad = Multisegment([Segment(PI, 0, 1), Segment(PI, 1, 3)])
        assert lad.is_ladder()
        for k in range(0, 5):
            cuts = ladder_cuts(lad, k)
            for a1, a2 in cuts:
                assert a1.is_ladder() and a2.is_ladder()
                assert a1.rank == k
        assert ladder_cuts(lad, 0) == [(Multisegment(), lad)]
        assert ladder_cuts(lad, 4) == [(lad, Multisegment())]


class TestGrothProduct:
    def test_unit(self):
        x = GrothElement.of(make_steinberg(PI, 2))
        assert groth_product(x, GrothElement.one()) == x

    def test_bilinear(self):
        x = GrothElement.of(make_steinberg(PI, 2)).scale(2)
        y = GrothElement.of(make_steinberg(PI2, 1)).scale(3)
        prod = groth_product(x, y)
        ((_, _),) = prod.terms.keys()
        assert list(prod.terms.values())[0] == 6

    def test_unlinked_product_keeps_kind(self):
        a = GrothElement.of(make_speh_st(PI, 2, 1))
        b = GrothElement.of(make_speh_st(PI2, 2, 2))
        ((label, _),) = groth_product(a, b).terms.keys()
        assert label.kind == "speh-of-st-product"

    def test_linked_product_degrades_to_formal(self):
        a = GrothElement.of(make_speh_st(PI, 2, 1))
        b = GrothElement.of(make_speh_st(PI, 2, 2))
        ((label, _),) = groth_product(a, b).terms.keys()
        assert label.kind == "formal"

    @given(data=st.data())
    def test_commutative_associative(self, data):
        labels = [
            GrothElement.of(make_steinberg(PI, data.draw(st.integers(1, 3))))
            for _ in range(3)
        ]
        x, y, z = labels
        assert groth_product(x, y) == groth_product(y, x)
        assert groth_product(groth_product(x, y), z) == groth_product(
            x, groth_product(y, z)
        )


class TestPartition:
    def test_dominance_examples(self):
        assert dominance_leq(Partition((1, 1, 1)), Partition((3,)))
        assert dominance_leq(Partition((2, 2)), Partition((3, 1)))
        assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))

    def test_rejects_unequal_sums(self):
        with pytest.raises(ValueError):
            dominance_leq(Partition((2,)), Partition((3,)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_dominance_partial_order(self):
        parts = [Partition(p) for p in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]]
        for p in parts:
            assert dominance_leq(p, p)
        for p in parts:
            for q in parts:
                for r in parts:
                    if dominance_leq(p, q) and dominance_leq(q, r):
                        assert dominance_leq(p, r)


def test_groth_element_zero_pruning():
    x = GrothElement.of(make_steinberg(PI, 1), coeff=atom("a"))
    assert (x - x).is_zero()


def test_cuspidal_equality_by_id():
    assert CuspidalLabel("x", g=1) == CuspidalLabel("x", g=1)
    assert CuspidalLabel("x") != CuspidalLabel("y")


def test_segments_on_different_lines_differ():
    a = Segment(PI, 0, 2)
    b = Segment(PI2, 0, 2)
    assert a != b
    assert Multisegment([a]) != Multisegment([b])
    assert GrothElement.of(make_steinberg(PI, 2)) != GrothElement.of(
        make_steinberg(PI2, 2)
    )


SEGMENTS = st.builds(
    Segment,
    st.sampled_from([PI, PI2]),
    st.integers(-4, 4).map(half),
    st.integers(1, 3),
)


@given(st.lists(SEGMENTS, max_size=4), st.randoms())
def test_cached_hashes_agree_with_equality_and_the_key(segs, rnd):
    shuffled = list(segs)
    rnd.shuffle(shuffled)
    a, b = Multisegment(segs), Multisegment(shuffled)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(seg.sort_key() for seg in a.segments))
    factors = [a, OpaqueFactor("tail", 2), Multisegment(segs[:1])]
    la = IrreducibleLabel(factors, KIND_FORMAL)
    lb = IrreducibleLabel(reversed(factors), KIND_FORMAL)
    assert la == lb and hash(la) == hash(lb)
    assert hash(la) == hash((tuple(map(hash, la.factors)), la.kind))
    assert la.factors == tuple(sorted(factors, key=_factor_key))


def test_order_is_canonical_on_lines_sharing_an_id():
    # segments and factors on two lines of one id sort by the whole cuspidal
    # key, so equal values built in either order compare, hash and print alike
    for other in (CuspidalLabel("pi", g=2), CuspidalLabel("pi", e_pi=3)):
        s1, s2 = Segment(PI, 0, 2), Segment(other, 0, 2)
        assert Multisegment([s1, s2]) == Multisegment([s2, s1])
        assert hash(Multisegment([s1, s2])) == hash(Multisegment([s2, s1]))
        assert Multisegment([s1, s2]).segments == Multisegment([s2, s1]).segments == (s1, s2)
        a, b = make_steinberg(PI, 2), make_steinberg(other, 2)
        assert label_product(a, b) == label_product(b, a)
        assert hash(label_product(a, b)) == hash(label_product(b, a))
        x, y = GrothElement.of(a), GrothElement.of(b, half(1))
        assert groth_product(x, y) == groth_product(y, x)
        assert repr(groth_product(x, y)) == repr(groth_product(y, x))


PRODUCT_LINES = [
    CuspidalLabel("pi"), CuspidalLabel("pi", g=2), CuspidalLabel("rho"), CuspidalLabel("sigma", e_pi=2)
]


@st.composite
def product_labels(draw):
    """A label of any kind: 0-3 multisegments (possibly empty) on 1-3 lines, 0-2 opaque factors."""
    lines = draw(st.lists(st.sampled_from(PRODUCT_LINES), min_size=1, max_size=3, unique=True))
    factors = [
        Multisegment(
            Segment(draw(st.sampled_from(lines)), half(draw(st.integers(-3, 3))), draw(st.integers(1, 2)))
            for _ in range(draw(st.integers(0, 2)))
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    factors += [
        OpaqueFactor(draw(st.sampled_from(["tail", "rem"])), draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    if draw(st.booleans()) and not factors:
        return IrreducibleLabel.unit()
    return IrreducibleLabel(factors, draw(st.sampled_from([KIND_FORMAL, KIND_GENERIC, KIND_SPEH_ST])))


@settings(max_examples=300, deadline=None)
@given(a=product_labels(), b=product_labels())
def test_product_kind_matches_the_pairwise_rule(a, b):
    kind = product_kind_pairwise(a, b)
    assert _product_kind(a, b) == kind == _product_kind(b, a)
    ab = label_product(a, b)
    assert ab == label_product(b, a) and hash(ab) == hash(label_product(b, a))
    assert ab.factors == tuple(sorted(a.factors + b.factors, key=_factor_key))
    assert ab.kind == (kind if ab.factors else KIND_GENERIC)


def test_product_kind_reaches_every_kind():
    speh, st2 = make_speh_st(PI, 2, 1), make_steinberg(PI2, 2)
    opaque = IrreducibleLabel((OpaqueFactor("tail", 1),), KIND_GENERIC)
    cases = [
        (st2, opaque, KIND_GENERIC),
        (speh, st2, KIND_SPEH_ST),
        (speh, make_steinberg(PI, 3), KIND_FORMAL),  # one line: linked
        (speh, make_steinberg(CuspidalLabel("pi", g=3), 1), KIND_FORMAL),  # one id, another rank
        (IrreducibleLabel(st2.factors, KIND_FORMAL), opaque, KIND_FORMAL),
        (IrreducibleLabel.unit(), speh, KIND_SPEH_ST),
        (IrreducibleLabel.unit(), IrreducibleLabel.unit(), KIND_GENERIC),
    ]
    for a, b, kind in cases:
        assert _product_kind(a, b) == _product_kind(b, a) == product_kind_pairwise(a, b) == kind


def test_cancelling_sums_equal_zero():
    st2, st3 = make_steinberg(PI, 2), make_steinberg(PI, 3)
    x = GrothElement.of(st2, half(1), atom("a")) + GrothElement.of(st3, coeff=2)
    y = GrothElement.of(st2, half(1), -atom("a")) + GrothElement.of(st3, coeff=-2)
    assert x + y == GrothElement.zero() and (x + y).terms == {}
    assert x - x == GrothElement.zero()
    assert x.scale(integer(0)) == GrothElement.zero()
    assert xi_twist(x.twist(1), half(-1)) + xi_twist((-x).twist(1), half(-1)) == GrothElement.zero()
    assert hash(x + y) == hash(GrothElement.zero())


def test_twice_and_half_match_the_fraction_arithmetic():
    for n in range(-50, 51):
        x = Fraction(n, 2)
        assert twice(x) == int(2 * x) == n and type(twice(x)) is int
        assert half(n) == x and type(half(n)) is Fraction
        assert half(n) is half(n)  # built once
        assert twice(half(n)) == n and ensure_half(half(n)) is half(n)
        assert twice(n) == 2 * n and ensure_half(n) == Fraction(n)


@pytest.mark.parametrize("bad", [0.5, 1.0, "3/2", "1", True, False, None, Fraction(1, 3), Fraction(2, 3)])
def test_no_float_string_bool_or_third_passes_as_a_half_integer(bad):
    # 2 // 3 == 0: a third must not silently double to 0
    for fn in (twice, ensure_half):
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        Segment(PI, bad, 2)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "2"])
def test_half_refuses_non_int_numerators(bad):
    half(1)  # the entry of the int 1 is never served to 1.0 or True
    with pytest.raises(ValueError):
        half(bad)


def test_segment_is_immutable_and_tells_ranks_apart():
    seg = Segment(PI, half(1), 2)
    for name, value in [("start", 0), ("length", 3), ("cuspidal", PI2), ("other", 1)]:
        with pytest.raises(AttributeError):
            setattr(seg, name, value)
    with pytest.raises(AttributeError):
        del seg.start
    assert (seg.start, seg.length, seg.cuspidal) == (half(1), 2, PI)
    assert repr(seg) == "[1/2,3/2]_pi" and seg.sort_key() == ("pi", 1, 2, 1, 1)
    same = Segment(CuspidalLabel("pi"), Fraction(1, 2), 2)
    assert seg == same and hash(seg) == hash(same)
    for other in (CuspidalLabel("pi", g=2), CuspidalLabel("pi", e_pi=3)):
        assert Segment(other, half(1), 2) != seg
        assert Multisegment([Segment(other, half(1), 2)]) != Multisegment([seg])
    assert seg != Segment(PI, half(3), 2) and seg != Segment(PI, half(1), 3)


def test_multisegment_order_is_the_fraction_order():
    # the integer key (id, doubled start, length, g, e_pi) sorts as (id, start, length, g, e_pi) does
    rng = random.Random(20261018)
    lines = [CuspidalLabel(i, g=g, e_pi=e) for i in ("pi", "rho", "pi2") for g in (1, 2) for e in (1, 2)]
    for _ in range(300):
        segs = [
            Segment(rng.choice(lines), half(rng.randint(-6, 6)), rng.randint(1, 3))
            for _ in range(rng.randint(0, 7))
        ]
        expected = sorted(segs, key=lambda seg: (seg.cuspidal.id, seg.start, seg.length) + seg.cuspidal._key[1:])
        assert list(Multisegment(segs).segments) == expected  # ranks compared
