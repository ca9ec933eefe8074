import random
from fractions import Fraction

import pytest

from htgroth.diagrams import (
    LocalComponent,
    _column_ranges,
    _m_hull_columns,
    convex_hull,
    m_coeff,
    m_coeff_hull,
    m_column,
    m_column_hull,
    m_polygon_vertices,
    m_support,
    n_coeff,
    n_column,
    n_support,
    render,
    superpose,
)
from htgroth.segments import CuspidalLabel

from diagram_oracles import (
    _column_interval,
    _in_hull,
    hull_column_max_i,
    hull_contains,
    n_polygon_vertices,
    svg_point_set,
)

PI = CuspidalLabel("pi")
RHO = CuspidalLabel("rho")


def two_case_m_column(s, t, r, degrees):
    """The bullet conditions of the M diagram on a degree window: two cases plus parity."""
    lo = max(1, s + t - 1 - 2 * (s - 1))
    if not (lo <= r <= s + t - 1):
        return []
    if t <= r:
        bound = s + t - 1 - r
        parity = (s + t - 1 - r) % 2
    else:
        # here lo <= r <= t
        bound = s - 1 - (t - r)
        parity = (s - t - 1 + r) % 2
    return [i for i in degrees if abs(i) <= bound and i % 2 == parity]


def inequality_n_column(s, t, r, degrees):
    """The parallelogram inequalities of the N diagram on a degree window."""
    return [i for i in degrees if 0 <= i <= s - 1 and s <= r + i <= s + t - 1]


def scanned_support(column, s, t):
    """The support of a diagram, scanned point by point over a window wider than it."""
    return {
        (r, i)
        for r in range(1, s + t)
        for i in range(-(s + t) - 2, s + t + 3)
        if column(s, t, r, (i,))
    }


class TestMCoeff:
    def test_point_block(self):
        assert m_coeff(1, 1, 1, 0) == 1
        assert sum(
            m_coeff(1, 1, r, i) for r in range(1, 4) for i in range(-3, 4)
        ) == 1

    def test_speh_triangle(self):
        expected = {
            (r, i)
            for r in range(1, 5)
            for i in range(-4, 5)
            if abs(i) <= 4 - r and (i - (4 - r)) % 2 == 0
        }
        assert set(m_support(4, 1).points) == expected
        assert m_coeff(4, 1, 2, 2) == 1
        assert m_coeff(4, 1, 2, 1) == 0

    def test_steinberg_point(self):
        for t in range(1, 7):
            assert set(m_support(1, t).points) == {(t, 0)}

    def test_2_3_block(self):
        assert set(m_support(2, 3).points) == {(2, 0), (3, -1), (3, 1), (4, 0)}

    def test_symmetry_in_i(self):
        for s in range(1, 7):
            for t in range(1, 7):
                for r in range(1, s + t):
                    for i in range(0, s + t + 1):
                        assert m_coeff(s, t, r, i) == m_coeff(s, t, r, -i)

    def test_shared_vertex(self):
        for s in range(1, 7):
            for t in range(1, 7):
                assert m_coeff(s, t, s + t - 1, 0) == 1
                assert n_coeff(s, t, s + t - 1, 0) == 1

    def test_hull_oracle_agreement_full(self):
        for s in range(1, 13):
            for t in range(1, 13):
                for r in range(1, s + t):
                    for i in range(-(s + t), s + t + 1):
                        assert m_coeff(s, t, r, i) == m_coeff_hull(s, t, r, i), (
                            s,
                            t,
                            r,
                            i,
                        )

    def test_prebuilt_hull_matches_hull_contains(self):
        # the hull and the sweep's column table behind m_column_hull, and the
        # closed form m_column, against the per-column reference and the
        # per-point public oracle, which rebuilds the hull on every call, on
        # strata and degrees beyond the polygon
        for s in range(1, 13):
            for t in range(1, 13):
                verts = m_polygon_vertices(s, t)
                hull = convex_hull(verts)
                ranges = _column_ranges(hull)
                degrees = range(-(s + t) - 2, s + t + 3)
                for r in range(-1, s + t + 2):
                    inside = [i for i in degrees if hull_contains(verts, (r, i))]
                    assert [i for i in degrees if _in_hull(hull, (r, i))] == inside
                    top = inside[-1] if inside else None
                    assert hull_column_max_i(verts, r) == top, (s, t, r)
                    interval = (inside[0], top) if inside else None
                    assert _column_interval(hull, r) == interval, (s, t, r)
                    assert ranges.get(r) == interval, (s, t, r)
                    marked = [i for i in inside if (top - i) % 2 == 0]
                    assert list(_m_hull_columns(s, t).get(r, ())) == marked, (s, t, r)
                    assert list(m_column_hull(s, t, r)) == marked, (s, t, r)
                    assert list(m_column(s, t, r)) == marked, (s, t, r)
                assert set(ranges) <= set(range(-1, s + t + 2))  # every column is checked above

    def test_column_oracle_matches_points(self):
        for s, t in [(1, 1), (2, 5), (5, 2), (4, 4), (7, 3)]:
            for r in range(-1, s + t + 2):
                degrees = range(-(s + t) - 1, s + t + 2)
                column = list(m_column_hull(s, t, r))
                assert column == [i for i in degrees if m_coeff_hull(s, t, r, i)]
                assert column == [i for i in degrees if m_coeff(s, t, r, i)]

    def test_column_interval_on_random_polygons(self):
        # the diagram polygons have edge slopes 0 and +-1, so their column
        # ends are always integers; these polygons also cross columns
        # between lattice points, where the floor and ceiling matter; the
        # sweep takes any hull, degenerate ones included
        rng = random.Random(20261018)
        for _ in range(100):
            verts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))]
            hull = convex_hull(verts)
            ranges = _column_ranges(hull)
            assert set(ranges) <= set(range(-7, 8))
            for r in range(-7, 8):
                inside = [i for i in range(-8, 9) if hull_contains(verts, (r, i))]
                top = inside[-1] if inside else None
                assert hull_column_max_i(verts, r) == top, (verts, r)
                interval = (inside[0], top) if inside else None
                assert _column_interval(hull, r) == interval, (verts, r)
                assert ranges.get(r) == interval, (verts, r)

    def test_closed_form_matches_two_case_rule(self):
        # the range -b, -b + 2, ..., b against the two-case inequalities plus
        # parity, on a degree window reaching two past |i| = s + t
        for s in range(1, 13):
            for t in range(1, 13):
                degrees = range(-(s + t) - 2, s + t + 3)
                for r in range(-1, s + t + 2):
                    column = m_column(s, t, r)
                    assert list(column) == two_case_m_column(s, t, r, degrees), (s, t, r)
                    assert column == m_column_hull(s, t, r), (s, t, r)
                assert set(m_support(s, t).points) == scanned_support(two_case_m_column, s, t)

    def test_column_is_empty_left_of_the_first_stratum(self):
        # b = s - 1 - |t - r| would be 3 here; the diagram starts at r = 1
        assert list(m_column(5, 1, 0)) == []
        assert m_coeff(5, 1, 0, 1) == 0

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            m_coeff(0, 1, 1, 0)
        for support in (m_support, n_support):
            with pytest.raises(ValueError):
                support(0, 1)


class TestNCoeff:
    def test_point(self):
        assert set(n_support(1, 1).points) == {(1, 0)}

    def test_horizontal_steinberg(self):
        for t in range(1, 7):
            assert set(n_support(1, t).points) == {(r, 0) for r in range(1, t + 1)}

    def test_antidiagonal_speh(self):
        for s in range(1, 7):
            assert set(n_support(s, 1).points) == {(r, s - r) for r in range(1, s + 1)}

    def test_3_3_block(self):
        expected = {
            (3, 0), (4, 0), (5, 0),
            (2, 1), (3, 1), (4, 1),
            (1, 2), (2, 2), (3, 2),
        }
        assert set(n_support(3, 3).points) == expected
        assert len(n_support(3, 3)) == 9

    def test_hull_oracle_agreement_full(self):
        for s in range(1, 13):
            for t in range(1, 13):
                verts = n_polygon_vertices(s, t)
                for r in range(-1, s + t + 2):
                    degrees = range(-(s + t), s + t + 1)
                    inside = [i for i in degrees if hull_contains(verts, (r, i))]
                    assert list(n_column(s, t, r)) == inside, (s, t, r)
                    for i in degrees:
                        assert n_coeff(s, t, r, i) == int(i in inside), (s, t, r, i)

    def test_closed_form_matches_inequalities(self):
        for s in range(1, 13):
            for t in range(1, 13):
                degrees = range(-(s + t) - 2, s + t + 3)
                for r in range(-1, s + t + 2):
                    assert list(n_column(s, t, r)) == inequality_n_column(s, t, r, degrees)
                assert set(n_support(s, t).points) == scanned_support(inequality_n_column, s, t)

    def test_vanishes_below_axis(self):
        for s in range(1, 6):
            for t in range(1, 6):
                for r in range(1, s + t):
                    for i in range(-3, 0):
                        assert n_coeff(s, t, r, i) == 0


class TestSuperpose:
    def test_single_block_is_plain_support(self):
        comp = LocalComponent(3, ((PI, 2, Fraction(0)),))
        overlay = superpose(comp, PI, "M")
        assert set(overlay) == set(m_support(3, 2).points)

    def test_three_blocks_at_4_0(self):
        comp = LocalComponent(
            4, ((PI, 1, Fraction(0)), (PI, 3, Fraction(0)), (PI, 5, Fraction(0)))
        )
        overlay = superpose(comp, PI, "M")
        contribs = overlay[(4, 0)]
        assert [c.block for c in contribs] == [0, 1, 2]
        assert [c.source for c in contribs] == [(4, 0), (6, 0), (8, 0)]
        assert [c.from_higher for c in contribs] == [False, True, True]

    def test_inertial_filter(self):
        comp = LocalComponent(4, ((RHO, 3, Fraction(0)),))
        assert superpose(comp, PI, "M") == {}

    def test_higher_source_for_off_axis(self):
        comp = LocalComponent(
            4, ((PI, 1, Fraction(0)), (PI, 3, Fraction(0)), (PI, 5, Fraction(0)))
        )
        overlay = superpose(comp, PI, "M")
        for (r, i), contribs in overlay.items():
            if i != 0:
                assert any(c.source[0] > r for c in contribs)


class TestRender:
    def test_ascii_row_count(self):
        text = render(n_support(1, 3), "ascii")
        marks = text.count("#")
        assert marks == 3

    def test_empty_canvas(self):
        comp = LocalComponent(2, ((RHO, 1, Fraction(0)),))
        text = render(superpose(comp, PI, "M"), "ascii")
        assert "empty" in text

    def test_svg_point_extraction(self):
        svg = render(m_support(4, 1), "svg")
        assert svg_point_set(svg) == set(m_support(4, 1).points)
        assert len(svg_point_set(svg)) == 1 + 2 + 3 + 4

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(m_support(2, 2), "postscript")

    def test_deterministic(self):
        a = render(n_support(3, 3), "svg")
        b = render(n_support(3, 3), "svg")
        assert a == b
