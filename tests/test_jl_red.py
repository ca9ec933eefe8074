import contextlib
import itertools
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from htgroth.cohomology import _shriek_core
from htgroth import jl_red
from htgroth.diagrams import m_support
from htgroth.jl_red import (
    LINE_LIMIT,
    R_cell,
    S_cell,
    Orientation,
    _label_in,
    _line_store,
    _run_cuts,
    _run_data,
    _transfer_terms,
    bind_shapes,
    marked_cells,
    multisegment_of_orientation,
    orientations,
    r_tau_sign,
    rectangle_cuts,
    rectangle_shape_groups,
    red_tau,
    run_cuts,
)
from htgroth.modl import FieldData, SupercuspidalData, TowerLevel, cuspidal_lifts, tower_cuspidal
from htgroth.segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    KIND_FORMAL,
    Multisegment,
    OpaqueFactor,
    Segment,
    _suffix_cut,
    groth_product,
    half,
    label_of_multisegment,
    label_product,
    make_speh_st,
    make_steinberg,
    speh_st_multisegment,
)
from htgroth.symbolic import atom, integer

from cut_pieces import cut_pieces, rectangle_group_cuts, shape_of, signed_sum
from fraction_oracles import fraction_terms, red_tau_fraction
from htgroth_caches import clear_htgroth_caches

PI = CuspidalLabel("pi", g=1)
RHO = CuspidalLabel("rho", g=1)
PI_G2 = CuspidalLabel("pi", g=2)


def orientation_of_run(ms: Multisegment) -> Orientation:
    """Inverse of ``multisegment_of_orientation`` on multiplicity-one consecutive-run multisegments."""
    run = _run_data(ms)
    if run is None:
        raise ValueError(f"{ms!r} is not a multiplicity-one consecutive run")
    size = sum(seg.length for seg in ms.segments)
    start2 = run[1] - (size - 1)  # the run spans size - 1 steps around its center
    edges = [True] * (size - 1)
    for seg in ms.segments:
        brk = (seg.end2 - start2) // 2  # edge after the last point of this segment
        if brk < size - 1:
            edges[brk] = False
    return Orientation(size, tuple(edges))


class TestOrientations:
    def test_counts(self):
        assert len(orientations(1)) == 1
        assert len(orientations(2)) == 2
        assert len(orientations(4)) == 8

    def test_extreme_orientations(self):
        full_right = [o for o in orientations(3) if all(o.edges)][0]
        assert multisegment_of_orientation(full_right, PI) == Multisegment(
            [Segment(PI, -1, 3)]
        )
        full_left = [o for o in orientations(3) if not any(o.edges)][0]
        assert multisegment_of_orientation(full_left, PI) == Multisegment(
            [Segment(PI, p, 1) for p in (-1, 0, 1)]
        )

    def test_t1(self):
        (o,) = orientations(1)
        assert multisegment_of_orientation(o, PI) == Multisegment([Segment(PI, 0, 1)])

    def test_bijection(self):
        for t in range(1, 7):
            images = {multisegment_of_orientation(o, PI) for o in orientations(t)}
            assert len(images) == 2 ** (t - 1)
            for o in orientations(t):
                assert orientation_of_run(multisegment_of_orientation(o, PI)) == o

    def test_t2_dichotomy(self):
        right, left = orientations(2)
        assert right.edges == (True,) and left.edges == (False,)
        assert multisegment_of_orientation(right, PI) == Multisegment(
            [Segment(PI, half(-1), 2)]
        )
        assert multisegment_of_orientation(left, PI) == Multisegment(
            [Segment(PI, half(-1), 1), Segment(PI, half(1), 1)]
        )

    def test_validation(self):
        import pytest
        from htgroth.jl_red import Orientation

        with pytest.raises(ValueError):
            Orientation(2, ())
        with pytest.raises(ValueError):
            orientations(0)


class TestSign:
    def test_steinberg_positive(self):
        for t in range(1, 6):
            sc = r_tau_sign(Multisegment([Segment(PI, half(1 - t), t)]))
            assert sc.sign == 1
            assert sc.k == 0

    def test_speh_two_negative(self):
        ms = Multisegment([Segment(PI, half(-1), 1), Segment(PI, half(1), 1)])
        sc = r_tau_sign(ms)
        assert sc.sign == -1
        assert sc.k == 0

    def test_center_offset_is_character(self):
        ms = Multisegment([Segment(PI, 2, 3)])  # centered at 3
        sc = r_tau_sign(ms)
        assert sc.sign == 1
        assert sc.exponent == 3

    def test_sign_independent_of_cuspidal(self):
        for o in orientations(4):
            a = r_tau_sign(multisegment_of_orientation(o, PI))
            b = r_tau_sign(multisegment_of_orientation(o, RHO))
            assert a.sign == b.sign and a.k == b.k

    def test_rejects_non_run(self):
        with pytest.raises(ValueError):
            r_tau_sign(Multisegment([Segment(PI, 0, 1), Segment(PI, 2, 1)]))  # gap
        with pytest.raises(ValueError):
            r_tau_sign(Multisegment([Segment(PI, 0, 2), Segment(PI, 1, 1)]))  # mult 2


class TestCells:
    def test_vertex_cell_nonzero_and_shared(self):
        for s in range(1, 7):
            for t in range(1, 7):
                if s * t > 12:
                    continue
                R = R_cell(s, t, s + t - 1, 0, PI)
                S = S_cell(s, t, s + t - 1, 0, PI)
                assert not R.is_zero()
                assert R == S

    def test_steinberg_single_point(self):
        for t in range(1, 5):
            for r in range(1, t + 1):
                for i in range(-t - 1, t + 2):
                    cell = R_cell(1, t, r, i, PI)
                    if (r, i) == (t, 0):
                        assert cell == GrothElement.one()
                    else:
                        assert cell.is_zero()

    def test_outside_support_vanishes(self):
        support = set(m_support(3, 2).points)
        for r in range(1, 7):
            for i in range(-6, 7):
                if (r, i) not in support:
                    assert R_cell(3, 2, r, i, PI).is_zero()

    def test_shriek_steinberg_row_nonzero(self):
        for t in range(1, 6):
            for r in range(1, t + 1):
                cell = S_cell(1, t, r, 0, PI)
                assert not cell.is_zero()
                if r < t:
                    ((label, _),) = cell.terms
                    # the remainder is the bottom prefix of the segment
                    (ms,) = label.multisegments()
                    assert ms == Multisegment([Segment(PI, half(1 - t), t - r)])

    def test_shriek_outside_support_vanishes(self):
        from htgroth.diagrams import n_support

        support = set(n_support(2, 3).points)
        for r in range(1, 8):
            for i in range(0, 8):
                if (r, i) not in support:
                    assert S_cell(2, 3, r, i, PI).is_zero()

    def test_every_support_cell_nonzero(self):
        for s in range(1, 6):
            for t in range(1, 6):
                for (r, i) in m_support(s, t):
                    assert not R_cell(s, t, r, i, PI).is_zero(), (s, t, r, i)

    def test_speh_column_values(self):
        # bottom-degree cell of the width-4 Speh block at stratum 2
        cell = R_cell(4, 1, 2, 2, PI)
        ((label, tw),) = cell.terms
        assert tw == 0
        assert label.multisegments()[0] == Multisegment(
            [Segment(PI, half(1), 1), Segment(PI, half(3), 1)]
        )

    def test_mod_l_stability_relabeling(self):
        # same cut data under a different cuspidal id, coefficients unchanged
        for (r, i) in m_support(2, 2):
            a = R_cell(2, 2, r, i, PI)
            b = R_cell(2, 2, r, i, RHO)
            assert sorted(repr(c) for _, c in a.sorted_terms()) == sorted(
                repr(c) for _, c in b.sorted_terms()
            )


class TestRedTau:
    def test_vanishes_off_line(self):
        x = GrothElement.of(make_steinberg(RHO, 2))
        assert red_tau(PI, 1, x).is_zero()

    def test_rank_exhausting_cut(self):
        x = GrothElement.of(make_steinberg(PI, 1))
        out = red_tau(PI, 1, x)
        assert out == GrothElement.of(IrreducibleLabel.unit(), 0, 1)

    def test_leibniz_two_factors(self):
        a = label_of_multisegment(speh_st_multisegment(PI, 2, 1), KIND_FORMAL)
        b = label_of_multisegment(speh_st_multisegment(PI, 1, 2), KIND_FORMAL)
        x = GrothElement.of(a)
        y = GrothElement.of(b)
        lhs = red_tau(PI, 1, groth_product(x, y))
        rhs = groth_product(red_tau(PI, 1, x), y) + groth_product(x, red_tau(PI, 1, y))
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_leibniz_random_products(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        factors = []
        for _ in range(n):
            line = data.draw(st.sampled_from([PI, RHO]))
            s = data.draw(st.integers(min_value=1, max_value=2))
            t = data.draw(st.integers(min_value=1, max_value=2))
            shift = half(data.draw(st.integers(min_value=-2, max_value=2)))
            factors.append(
                label_of_multisegment(
                    speh_st_multisegment(line, s, t).twist(shift), KIND_FORMAL
                )
            )
        depth = data.draw(st.integers(min_value=1, max_value=2))
        elements = [GrothElement.of(f) for f in factors]
        product = elements[0]
        for e in elements[1:]:
            product = groth_product(product, e)
        lhs = red_tau(PI, depth, product)
        rhs = GrothElement.zero()
        for idx in range(n):
            rest = [e for j, e in enumerate(elements) if j != idx]
            term = red_tau(PI, depth, elements[idx])
            for e in rest:
                term = groth_product(term, e)
            rhs = rhs + term
        assert lhs == rhs

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, data):
        # random formal products of multisegments on pi, a second line and a
        # g = 2 line, with opaque factors, twists and symbolic coefficients
        lines = (PI, PI, PI, RHO, PI_G2)
        terms = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            factors = [OpaqueFactor("tail", 2)] if data.draw(st.booleans()) else []
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                segs = [
                    Segment(
                        data.draw(st.sampled_from(lines)),
                        half(data.draw(st.integers(min_value=-3, max_value=3))),
                        data.draw(st.integers(min_value=1, max_value=3)),
                    )
                    for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
                ]
                factors.append(Multisegment(segs))
            tw = half(data.draw(st.integers(min_value=-3, max_value=3)))
            coeff = data.draw(st.sampled_from([integer(1), integer(-2), atom("m")]))
            terms[(IrreducibleLabel(factors, KIND_FORMAL), tw)] = coeff
        x = GrothElement(terms)
        pi = data.draw(st.sampled_from((PI, PI, PI_G2)))
        depth = data.draw(st.integers(min_value=1, max_value=3))
        assert fraction_terms(red_tau(pi, depth, x)) == red_tau_fraction(pi, depth, fraction_terms(x))



def test_rectangle_cut_rows_partition():
    # the pieces of a cut split every row of the rectangle between a1 and a2
    for s, t in [(2, 2), (3, 2), (2, 3)]:
        rows = sorted((j, 2 - s - t + 2 * j + 2 * k) for j in range(s) for k in range(t))
        lad = speh_st_multisegment(PI, s, t)
        for rank in range(0, s * t + 1):
            groups = rectangle_shape_groups(s, t, rank)
            assert list(rectangle_cuts(PI, s, t, rank)) == list(groups)
            cuts = rectangle_group_cuts(s, t, rank)  # one cut per term: none cancels
            assert cuts == tuple(run_cuts(lad, rank))
            by_center = {}
            for cut in cuts:
                by_center.setdefault(cut.center2, []).append(cut)
                a1, a2 = cut_pieces(lad, cut.ks)
                assert sum(length for _, length, _ in a1) == rank
                covered = sorted(
                    (row, p)
                    for start2, length, row in a1 + a2
                    for p in range(start2, start2 + 2 * length, 2)
                )
                assert covered == rows
                assert cut.a2 == shape_of(a2)
            assert sorted(by_center) == list(groups)
            for c2, center_cuts in by_center.items():
                assert groups[c2] == signed_sum(center_cuts, -1)


def test_a_returned_cell_cannot_change_the_cache():
    # R_cell, S_cell and rectangle_cuts hand out the values their cache keeps
    def cells():
        return [R_cell(2, 2, 2, -1, PI), S_cell(2, 2, 3, 0, PI), *rectangle_cuts(PI, 2, 2, 2).values()]

    for value in cells():
        with contextlib.suppress(AttributeError, TypeError):  # a read-only mapping refuses
            value.terms.clear()
    later = cells()
    clear_htgroth_caches()
    assert later == cells() and not any(value.is_zero() for value in later)


def test_rectangle_cuts_key_on_the_whole_label():
    rectangle_cuts(PI, 2, 2, 2)
    values = rectangle_cuts(CuspidalLabel("pi", g=3), 2, 2, 2)
    assert values
    for value in values.values():
        assert not value.is_zero()
        for label, _ in value.terms:
            (ms,) = label.multisegments()
            for seg in ms.segments:
                assert seg.cuspidal.g == 3


LIFT_LEVEL = TowerLevel(SupercuspidalData(CuspidalLabel("rho"), FieldData(2, 3), 2), 0)  # g = 2
LIFT, TWIN = cuspidal_lifts(LIFT_LEVEL, 2)


def red_tau_reference(pi, r_units, x):
    """``red_tau`` as it read before ``_transfer_terms``: the walk over each factor's rows, per call."""
    out = GrothElement.zero()
    for (label, tw2), coeff in x.terms.items():
        for idx, factor in enumerate(label.factors):
            if isinstance(factor, OpaqueFactor) or factor.cuspidal_lines() != [pi]:
                continue
            if r_units * pi.g > factor.rank:
                continue
            rest = IrreducibleLabel(label.factors[:idx] + label.factors[idx + 1 :], KIND_FORMAL)
            segs = factor.segments
            red = _run_cuts([seg.start2 for seg in segs], [seg.length for seg in segs], r_units, 1)
            terms = (((shape, xi2 + tw2), c) for (shape, xi2), c in red)
            out = out + bind_shapes(pi, terms, tail=rest, weight=coeff)
    return out


def one_line_ladders(pi):
    """1-4 segments on the line of pi, of random starts and lengths, twisted by half an integer."""
    rows = st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 4)), min_size=1, max_size=4)
    return st.builds(
        lambda rows, n2: Multisegment(Segment(pi, half(a), k) for a, k in rows).twist(half(n2)),
        rows,
        st.integers(-3, 3),
    )


@settings(max_examples=200, deadline=None)
@given(lad=one_line_ladders(PI), r=st.integers(1, 9))
def test_transfer_terms_match_the_cuts_of_the_ladder(lad, r):
    segs = lad.segments
    terms = _transfer_terms(tuple(seg.start2 for seg in segs), tuple(seg.length for seg in segs), r)
    assert terms == signed_sum(run_cuts(lad, r), 1)


@st.composite
def lift_products(draw):
    """Formal sums of products mixing factors on two lift lines, off-line factors and opaque ones."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(st.lists(st.sampled_from((LIFT, LIFT, TWIN)), min_size=1, max_size=3))
        factors = [draw(one_line_ladders(pi)) for pi in lines]
        if draw(st.booleans()):  # one factor on two lines, which transfers to zero
            factors.append(Multisegment((Segment(LIFT, 0, 1), Segment(TWIN, 1, 2))))
        if draw(st.booleans()):
            factors.insert(draw(st.integers(0, len(factors))), OpaqueFactor("tau", 2))
        tw = half(draw(st.integers(-3, 3)))
        coeff = draw(st.sampled_from([integer(1), integer(-2), atom("m")]))
        terms[(IrreducibleLabel(factors, KIND_FORMAL), tw)] = coeff
    return GrothElement(terms)


@settings(max_examples=150, deadline=None)
@given(x=lift_products(), r=st.integers(1, 4))
def test_red_tau_matches_the_per_factor_cuts(x, r):
    assert red_tau(LIFT, r, x) == red_tau_reference(LIFT, r, x)
    assert red_tau(TWIN, r, x) == red_tau_reference(TWIN, r, x)


def test_a_fresh_lift_reads_the_transfer_sums_of_the_first():
    # the same shapes on a lift line never seen before build no transfer sum
    def element(pi):
        a = label_of_multisegment(speh_st_multisegment(pi, 3, 2).twist(half(1)), KIND_FORMAL)
        b = label_of_multisegment(speh_st_multisegment(pi, 2, 2), KIND_FORMAL)
        return groth_product(GrothElement.of(a), GrothElement.of(b))

    first = tower_cuspidal(LIFT_LEVEL, id="rho[u=0]#fresh.0")
    assert not red_tau(first, 2, element(first)).is_zero()
    before = _transfer_terms.cache_info()
    second = tower_cuspidal(LIFT_LEVEL, id="rho[u=0]#fresh.1")
    out = red_tau(second, 2, element(second))
    after = _transfer_terms.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert out == red_tau_reference(second, 2, element(second)) and not out.is_zero()


def assert_matches_scan(lad, r):
    """The cuts of the scan ``run_cuts``, checked position by position against the Fraction pieces of their ks."""
    cuts = run_cuts(lad, r)
    rows = [seg.cuspidal for seg in lad.segments]
    for cut in cuts:
        a1, a2 = _suffix_cut(lad, cut.ks)
        a1_pieces, a2_pieces = cut_pieces(lad, cut.ks)
        for pieces, segs in ((a1_pieces, a1), (a2_pieces, a2)):
            ms = Multisegment(Segment(rows[row], half(start2), n) for start2, n, row in pieces)
            assert ms == segs
        assert cut.a2 == shape_of(a2_pieces)
        transfer = r_tau_sign(a1)
        assert (cut.sign, cut.center2) == (transfer.sign, transfer.k)
        run = [p for start2, n, _ in a1_pieces for p in range(start2, start2 + 2 * n, 2)]
        assert run == list(range(run[0], run[0] + 2 * len(run), 2))  # bottom to top
        for start2, length, row in a1_pieces:
            assert length == cut.ks[row]
            assert start2 + 2 * (length - 1) == 2 * lad.segments[row].end
        for start2, length, row in a2_pieces:
            assert length == lad.segments[row].length - cut.ks[row]
            assert start2 == 2 * lad.segments[row].start
    assert [cut.ks for cut in cuts] == sorted(cut.ks for cut in cuts)
    return cuts


def assert_walk_matches_scan(lad, r):
    """The walk over the rows of a one-line ``lad`` sums the scan's cuts, under both Xi signs."""
    cuts = assert_matches_scan(lad, r)
    starts2, lengths = [seg.start2 for seg in lad.segments], [seg.length for seg in lad.segments]
    for xi_sign in (1, -1):
        assert _run_cuts(starts2, lengths, r, xi_sign) == signed_sum(cuts, xi_sign), (r, xi_sign)
    return cuts


def test_run_cuts_matches_scan_on_rectangles():
    # the walk sums the scan's cuts, and the cuts read back from its sums are
    # the scan's; the scan costs about 0.3 ms per suffix tuple, (t + 1)^s
    # tuples per shape, so the larger rectangles are left out
    for s in range(1, 7):
        for t in range(1, 7):
            if s * t > 20:
                continue
            lad = speh_st_multisegment(PI, s, t)
            for r in range(0, s * t + 2):
                cuts = assert_walk_matches_scan(lad, r)
                assert rectangle_group_cuts(s, t, r) == tuple(cuts), (s, t, r)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_cuts_matches_scan_on_multisegments(data):
    # on two lines too, where a1 keeps to one line and the other rows stay whole
    n = data.draw(st.integers(min_value=1, max_value=4))
    segs = [
        Segment(
            data.draw(st.sampled_from((PI, PI, PI, RHO))),
            half(data.draw(st.integers(min_value=-4, max_value=4))),
            data.draw(st.integers(min_value=1, max_value=4)),
        )
        for _ in range(n)
    ]
    ms = Multisegment(segs)
    r = data.draw(st.integers(min_value=0, max_value=sum(seg.length for seg in segs) + 1))
    if len(ms.cuspidal_lines()) == 1:
        assert_walk_matches_scan(ms, r)
    else:
        assert_matches_scan(ms, r)


# one example per leaf build of _run_cuts.  Increasing starts and ends: a ladder,
# whose a2 is spliced in row order; here the cut 0, 2, 4 trims (-2, 2) to
# (-2, 1) and takes (2, 2) whole.  Rows (0, 2) and (0, 3) share a start: the
# cut taking the top two positions of the longer row leaves (0, 2) whole and
# (0, 1), which the sorted a2 lists first.  Decreasing starts: the sorted build.
@example(rows=[(-2, 2), (2, 2), (4, 2)], arrange="increasing", r=3)
@example(rows=[(0, 2), (0, 3)], arrange="increasing", r=2)
@example(rows=[(2, 2), (0, 3), (-2, 1)], arrange="decreasing", r=3)
@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 4)), min_size=1, max_size=5),
    arrange=st.sampled_from(("increasing", "as drawn", "decreasing")),
    r=st.integers(0, 21),
)
def test_walk_matches_the_summed_scan_on_one_line(rows, arrange, r):
    # starts drawn from five doubled values, so rows often share a start2:
    # only there does a trimmed row move in the sorted a2.  The walk takes the
    # rows in the drawn order, the scan the multisegment's sorted one.
    if arrange != "as drawn":
        rows = sorted(rows, reverse=arrange == "decreasing")
    lad = Multisegment(Segment(PI, half(start2), length) for start2, length in rows)
    r = min(r, sum(length for _, length in rows) + 1)
    cuts = assert_matches_scan(lad, r)
    starts2, lengths = [start2 for start2, _ in rows], [length for _, length in rows]
    for xi_sign in (1, -1):
        assert _run_cuts(starts2, lengths, r, xi_sign) == signed_sum(cuts, xi_sign), (r, xi_sign)


def _shape_data(pi, s, t, r):
    """The bound values with the label stripped off: centers, a2 shapes, twists, coefficients."""
    out = []
    for center2, value in rectangle_cuts(pi, s, t, r).items():
        terms = []
        for (label, tw), c in value.terms.items():
            segs = [seg for ms in label.multisegments() for seg in ms.segments]
            assert all(seg.cuspidal == pi for seg in segs)
            terms.append((tuple((int(2 * seg.start), seg.length) for seg in segs), tw, c))
        out.append((center2, sorted(terms, key=repr)))
    return out


def test_rectangle_shape_data_is_label_free():
    for s in range(1, 7):
        for t in range(1, 7):
            for r in range(0, s * t + 1):
                ref = _shape_data(PI, s, t, r)
                assert _shape_data(CuspidalLabel("pi", g=3), s, t, r) == ref, (s, t, r)
                assert _shape_data(RHO, s, t, r) == ref, (s, t, r)


def bind_shapes_reference(pi, terms, shift2=0, tail=IrreducibleLabel.unit(), weight=integer(1)):
    """``bind_shapes`` without a cache: every term's label built from fresh segments."""
    out = GrothElement.zero()
    for (shape, xi2), c in terms:
        ms = Multisegment(Segment(pi, Fraction(start2 + shift2, 2), n) for start2, n in shape)
        label = label_product(tail, label_of_multisegment(ms, KIND_FORMAL))
        out = out + GrothElement.of(label, Fraction(xi2 + shift2, 2), weight * c)
    return out


PI_G3 = CuspidalLabel("pi", g=3, e_pi=2)  # the id of PI on another line
TAIL = IrreducibleLabel((OpaqueFactor("tail", 2),), KIND_FORMAL)


def test_bind_shapes_matches_the_uncached_reference(monkeypatch):
    # every cell of both tables for s + t <= 8, at every doubled block twist
    # in -8..8, bare and with a tail, on two lines of one id; the lines
    # alternate per twist, so a label interned for one is asked for the
    # other right after; fewer labels are built than terms are bound
    _line_store.cache_clear()
    built, bound, label_in = [], 0, jl_red._label_in
    monkeypatch.setattr(jl_red, "_label_in", lambda *key: built.append(key) or label_in(*key))
    bindings = list(itertools.product(range(-8, 9), (PI, PI_G3), (IrreducibleLabel.unit(), TAIL)))
    for s in range(1, 8):
        for t in range(1, 9 - s):
            for r, kind in itertools.product(range(0, s * t + 2), ("M", "N")):
                cells = [sums for _, _, sums in marked_cells(s, t, r, kind) if sums]
                for (shift2, pi, tail), sums in itertools.product(bindings, cells):
                    expected = bind_shapes_reference(pi, sums, shift2, tail, atom("m"))
                    assert bind_shapes(pi, sums, shift2, tail, atom("m")) == expected, (s, t, r)
                    bound += len(sums)
    assert len(built) < bound


def test_bind_shapes_shares_one_label_per_line_shape_and_shift():
    sums = max(rectangle_shape_groups(3, 2, 3).values(), key=len)
    first, second = bind_shapes(PI, sums, 2), bind_shapes(PI, sums, 2, weight=atom("m"))
    assert len(first.terms) == len(sums) > 1
    shared = {label: label for label, _ in second.terms}
    assert all(shared[label] is label for label, _ in first.terms)
    interned = {id(_label_in(_line_store(PI._key), shape, 2)) for (shape, _), _ in sums}
    assert {id(label) for label, _ in first.terms} == interned


def test_bound_labels_never_leak_across_lines_of_one_id():
    # PI and PI_G3 share their id, but not g or e_pi: a label interned for
    # one must never be returned for the other
    _line_store.cache_clear()
    for s, t in [(2, 2), (3, 2), (1, 4)]:
        for r in range(1, s * t + 1):
            for sums in rectangle_shape_groups(s, t, r).values():
                for pi in (PI, PI_G3, PI):
                    for label, _ in bind_shapes(pi, sums, 1).terms:
                        assert all(seg.cuspidal == pi for ms in label.multisegments() for seg in ms)


def test_formal_label_is_interned_on_its_shifted_shape():
    # a label reached under two (shape, shift2) keys is one object, on each line
    _line_store.cache_clear()
    for pi in (PI, PI_G3):
        store = _line_store(pi._key)
        for shape in (((0, 2),), ((-2, 1), (0, 2), (4, 1))):
            for shift2 in (2, -3):
                shifted = tuple((start2 + shift2, length) for start2, length in shape)
                assert _label_in(store, shape, shift2) is _label_in(store, shifted, 0)
                assert _label_in(store, shifted, 0) == public_formal_label(pi, shape, shift2)
    stores = _line_store(PI._key), _line_store(PI_G3._key)
    assert _label_in(stores[0], ((0, 2),), 0) is not _label_in(stores[1], ((0, 2),), 0)


def test_the_line_store_keeps_a_few_lines_of_fresh_lifts():
    # every towers op transfers on fresh lift lines, named as cuspidal_lifts
    # names them; the store keeps at most its bound of lines, and drops the
    # others whole
    _line_store.cache_clear()
    for lift in cuspidal_lifts(LIFT_LEVEL, 1000):
        assert not red_tau(lift, 1, GrothElement.of(make_speh_st(lift, 2, 2))).is_zero()
    info = _line_store.cache_info()
    assert info.misses == 1000 and info.currsize <= info.maxsize == 8


def test_a_line_holds_at_most_line_limit_labels_and_segments():
    _line_store.cache_clear()
    shapes = [((2 * j, 1), (2 * j + 4, 2)) for j in range(LINE_LIMIT + 100)]
    store = _line_store(PI._key)
    for shape in shapes:
        _label_in(store, shape, 1)
    _, segments, labels = store
    assert 0 < len(labels) <= LINE_LIMIT and 0 < len(segments) <= LINE_LIMIT
    # a line that emptied its dicts still binds, and interns again
    for shape in shapes[:3]:
        assert _label_in(store, shape, 1) is _label_in(store, shape, 1)
        assert _label_in(store, shape, 1) == public_formal_label(PI, shape, 1)


def test_fresh_labels_of_one_line_read_one_label_object():
    # every cohomology query builds its own CuspidalLabel("pi"): the tables'
    # hits are across queries, on the line's key
    first, second = CuspidalLabel("pi"), CuspidalLabel("pi")
    assert first is not second
    terms = [((((-2, 2), (0, 2)), 0), 1), ((((0, 1),), 0), -1)]
    read = [[label for label, _ in bind_shapes(pi, terms).terms] for pi in (first, second)]
    assert len(read[0]) == 2 and all(map(operator.is_, *read))


def test_segments_of_one_line_share_one_cuspidal_label():
    _line_store.cache_clear()
    for r in range(1, 10):
        for sums in rectangle_shape_groups(3, 3, r).values():
            bind_shapes(CuspidalLabel("pi"), sums, r % 3)
    pi, segments, labels = _line_store(PI._key)
    bound = [seg for label in labels.values() for ms in label.multisegments() for seg in ms]
    assert len(segments) > 10 and {id(seg.cuspidal) for seg in [*bound, *segments.values()]} == {id(pi)}


# ---------------------------------------------------------------------------
# the trusted constructors against the public, checked ones
# ---------------------------------------------------------------------------


def public_formal_label(pi, shape, shift2):
    """The formal label of a shape built through the checked constructors only."""
    ms = Multisegment(Segment(pi, half(start2 + shift2), length) for start2, length in shape)
    return label_of_multisegment(ms, KIND_FORMAL)


def _same_value(mine, public):
    return mine == public and hash(mine) == hash(public) and repr(mine) == repr(public)


def test_formal_label_matches_the_public_constructors():
    # every shape a rectangle with s + t <= 8 sums at any stratum, and every
    # shape of its shriek Euler expansion, at every doubled shift in -4..4, on
    # two lines of one id: wrapped unsorted from the trusted constructors,
    # the label is the one the checked path sorts
    _line_store.cache_clear()
    shapes = set()
    for s in range(1, 8):
        for t in range(1, 9 - s):
            for r in range(0, s * t + 1):
                for sums in rectangle_shape_groups(s, t, r).values():
                    shapes.update(shape for (shape, _), _ in sums)
                shapes.update(shape for (shape, _), _ in _shriek_core(s, t, r))
    assert () in shapes and len(shapes) > 500
    for shape, shift2, pi in itertools.product(shapes, range(-4, 5), (PI, PI_G3)):
        mine, public = _label_in(_line_store(pi._key), shape, shift2), public_formal_label(pi, shape, shift2)
        assert _same_value(mine, public), (shape, shift2, pi)
        for ms, twin in zip(mine.multisegments(), public.multisegments(), strict=True):
            assert ms._key == twin._key and all(map(_same_value, ms, twin))


@settings(max_examples=200, deadline=None)
@given(start2=st.integers(-30, 30), length=st.integers(1, 9), pi=st.sampled_from([PI, PI_G3, RHO]))
def test_trusted_segment_matches_the_public_one(start2, length, pi):
    mine, public = Segment._of2(pi, start2, length), Segment(pi, half(start2), length)
    assert _same_value(mine, public) and mine._key == public._key
    fields = ("cuspidal", "start2", "length")
    assert [getattr(mine, f) for f in fields] == [getattr(public, f) for f in fields]
    assert _same_value(pickle.loads(pickle.dumps(mine)), public)
    assert _same_value(mine.twist(half(3)), public.twist(Fraction(3, 2)))


segment_lists = st.lists(
    st.builds(
        lambda pi, start2, length: Segment(pi, half(start2), length),
        st.sampled_from([PI, RHO, PI_G2]),
        st.integers(-9, 9),
        st.integers(1, 4),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(segs=segment_lists, n2=st.integers(-5, 5))
def test_trusted_multisegments_match_the_public_ones(segs, n2):
    public = Multisegment(segs)
    ordered = tuple(sorted(segs, key=lambda seg: seg._key))
    mine = Multisegment._in_order(ordered)
    assert _same_value(mine, public) and mine._key == public._key
    assert mine.segments == public.segments
    # a twist shifts every start alike, so it keeps the key order it wraps
    twisted = Multisegment(Segment(seg.cuspidal, seg.start + half(n2), seg.length) for seg in segs)
    for n in [half(n2)] + ([n2 // 2] if n2 % 2 == 0 else []):  # a Fraction, or an int
        assert _same_value(public.twist(n), twisted) and public.twist(n)._key == twisted._key


def test_speh_st_multisegment_matches_the_public_path():
    for s, t, pi in itertools.product(range(1, 7), range(1, 7), (PI, PI_G2)):
        public = Multisegment(Segment(pi, half(2 - s - t + 2 * j), t) for j in range(s))
        mine = speh_st_multisegment(pi, s, t)
        assert _same_value(mine, public) and mine._key == public._key, (s, t)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            speh_st_multisegment(PI, bad, 2)
        with pytest.raises(ValueError, match="must be an integer"):
            speh_st_multisegment(PI, 2, bad)


def test_bind_shapes_adds_into_a_row_what_the_elements_sum_to():
    # one row fed by several bindings equals the sum of the bound elements
    groups = rectangle_shape_groups(3, 2, 3)
    row: dict = {}
    expected = GrothElement.zero()
    for shift2, weight in [(0, atom("m")), (2, integer(1)), (0, -atom("m")), (-1, atom("n"))]:
        for sums in groups.values():
            assert bind_shapes(PI, sums, shift2, TAIL, weight, row) is None
            expected = expected + bind_shapes(PI, sums, shift2, TAIL, weight)
    assert GrothElement._checked(row) == expected and not expected.is_zero()
