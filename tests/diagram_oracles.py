"""Test-side readers of the diagrams module's output, and per-point and per-column hull oracles."""

from __future__ import annotations

import re
from typing import Sequence

from htgroth.diagrams import Point, _cross, convex_hull


def svg_point_set(svg_text: str) -> set[tuple[int, int]]:
    """Extract the marked cells back out of a rendered SVG (golden-file keys)."""
    pts = set()
    for m in re.finditer(r'data-r="(-?\d+)" data-i="(-?\d+)"', svg_text):
        pts.add((int(m.group(1)), int(m.group(2))))
    return pts


def n_polygon_vertices(s: int, t: int) -> list[Point]:
    """The vertices of the N diagram's polygon, whose closed hull ``n_column`` reads in closed form."""
    return [(s + t - 1, 0), (s, 0), (1, s - 1), (t, s - 1)]


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(
        a[1], b[1]
    )


def hull_contains(vertices: Sequence[Point], p: Point) -> bool:
    """Closed-hull membership of the integer point p, decided exactly."""
    return _in_hull(convex_hull(vertices), p)


def _in_hull(hull: Sequence[Point], p: Point) -> bool:
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        return _on_segment(hull[0], hull[1], p)
    sign = 0
    for a, b in zip(hull, hull[1:] + hull[:1]):
        c = _cross(a, b, p)
        if c == 0:
            return _on_segment(a, b, p)
        if sign == 0:
            sign = 1 if c > 0 else -1
        elif (c > 0) != (sign > 0):
            return False
    return True


def _column_interval(hull: Sequence[Point], r: int) -> tuple[int, int] | None:
    """(bottom, top): the integers i with (r, i) in the closed hull, or None; one column at a time.

    The per-column reference of the sweep ``diagrams._column_ranges``.  The
    hull meets the vertical line at r in one closed interval, whose ends lie
    on the hull's vertices and edges; each edge crossing is the exact
    quotient num / den, rounded by integer floor and ceiling division.
    """
    tops = [y for x, y in hull if x == r]
    bottoms = list(tops)
    for (ax, ay), (bx, by) in zip(hull, list(hull[1:]) + list(hull[:1])):
        if ax != bx and min(ax, bx) <= r <= max(ax, bx):
            num, den = ay * (bx - ax) + (by - ay) * (r - ax), bx - ax
            if den < 0:
                num, den = -num, -den
            tops.append(num // den)
            bottoms.append(-(-num // den))
    if not tops or max(tops) < min(bottoms):
        return None
    return min(bottoms), max(tops)


def hull_column_max_i(vertices: Sequence[Point], r: int) -> int | None:
    """Largest integer i with (r, i) in the hull, or None when the column is empty."""
    interval = _column_interval(convex_hull(vertices), r)
    return None if interval is None else interval[1]
