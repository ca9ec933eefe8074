"""The 0/1 coefficient diagrams on the (stratum, degree) lattice.

Two families of lattice diagrams drive the cohomology bookkeeping.  Each is
read one column r at a time, and a column is a closed range of degrees:

* ``m_column(s, t, r)`` marks the cells carrying intermediate-extension
  cohomology: the degrees -b, -b + 2, ..., b with b = s - 1 - |t - r|, for
  r >= 1 (empty when b < 0).  Its independent oracle is ``m_column_hull``:
  the closed convex hull of the (s, t) polygon cut at r, keeping the degrees
  at even distance from the top (exact integer arithmetic, no floats).

* ``n_column(s, t, r)`` marks the shriek-extension cells: the lattice
  points of the parallelogram 0 <= i <= s-1, s <= r+i <= s+t-1.  Its oracle
  is the closed convex hull of the vertices (s+t-1,0), (s,0), (1,s-1),
  (t,s-1), which lives in the tests, not here: ``n_polygon_vertices`` and
  ``hull_contains`` in ``tests/diagram_oracles.py``.

``m_coeff``/``n_coeff`` test one cell against its column.  Superposition
glues the per-block diagrams of a product local component, remembering for
every cell which blocks contribute and from which source vertex the
contribution descends.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .segments import CuspidalLabel, Value, require_int

Point = tuple[int, int]


# ---------------------------------------------------------------------------
# the closed forms
# ---------------------------------------------------------------------------


def m_column(s: int, t: int, r: int) -> range:
    """The degrees i, ascending, that mark intermediate-extension cells (r, i)."""
    _check_st(s, t)
    b = s - 1 - abs(t - r) if r >= 1 else -1
    return range(-b, b + 1, 2)


def m_coeff(s: int, t: int, r: int, i: int) -> int:
    """1 when (r, i) is a marked intermediate-extension cell, else 0."""
    return int(i in m_column(s, t, r))


def n_column(s: int, t: int, r: int) -> range:
    """The degrees i, ascending, that mark shriek-extension cells (r, i)."""
    _check_st(s, t)
    return range(max(0, s - r), min(s - 1, s + t - 1 - r) + 1)


def n_coeff(s: int, t: int, r: int, i: int) -> int:
    """1 when (r, i) is a marked shriek-extension cell, else 0."""
    return int(i in n_column(s, t, r))


def _check_st(s: int, t: int):
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")


def m_polygon_vertices(s: int, t: int) -> list[Point]:
    if s >= t:
        return [(s + t - 1, 0), (t, s - 1), (1, s - t), (1, t - s), (t, 1 - s)]
    return [(s + t - 1, 0), (t, s - 1), (t - s + 1, 0), (t, 1 - s)]


# ---------------------------------------------------------------------------
# exact convex hulls (the oracle side)
# ---------------------------------------------------------------------------


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Monotone-chain hull over integer points; handles degenerate input."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear
        hull = [pts[0], pts[-1]]
    return hull


def _column_ranges(hull: Sequence[Point]) -> dict[int, tuple[int, int]]:
    """r -> (bottom, top): the integers i with (r, i) in the closed hull, for every column it meets.

    One sweep over the edges of a hull in the order ``convex_hull`` gives:
    counterclockwise, so an edge running right bounds its columns from below
    and one running left bounds them from above (a segment's two edges do
    both).  Each crossing is the exact quotient num / den, rounded by
    integer ceiling and floor division; at a vertex the two edges meeting
    there agree.  A column the hull crosses between two lattice points holds
    no integer and is left out.
    """
    bottoms: dict[int, int] = {}
    tops: dict[int, int] = {}
    for (ax, ay), (bx, by) in zip(hull, list(hull[1:]) + list(hull[:1])):
        if ax < bx:
            den, rise = bx - ax, by - ay
            for r in range(ax, bx + 1):
                bottoms[r] = -(-(ay * den + rise * (r - ax)) // den)
        elif bx < ax:
            den, rise = ax - bx, ay - by
            for r in range(bx, ax + 1):
                tops[r] = (by * den + rise * (r - bx)) // den
    if not tops:  # a point, or a vertical segment
        ys = [y for _, y in hull]
        return {hull[0][0]: (min(ys), max(ys))}
    return {r: (bottoms[r], tops[r]) for r in tops if bottoms[r] <= tops[r]}


# Saves ~20 ms of a `verify --max 12` run: the hull oracle reads each (s, t) table per column (1,584 hits).
@lru_cache(maxsize=1024)
def _m_hull_columns(s: int, t: int) -> dict[int, range]:
    """r -> the hull-plus-parity degrees of column r, for each column the (s, t) hull meets.

    Built from the polygon and its hull alone, never from ``m_column``: a
    degree is marked when it lies in the column's hull interval at even
    distance from its top.  The cached table is shared, so it is read-only.
    """
    columns = _column_ranges(convex_hull(m_polygon_vertices(s, t)))
    return {r: range(bottom + (top - bottom) % 2, top + 1, 2) for r, (bottom, top) in columns.items()}


def m_column_hull(s: int, t: int, r: int) -> range:
    """The degrees i, ascending, that hull-plus-parity marks in column r (oracle).

    Read off the (s, t) hull's column table, built once per shape by one
    sweep over the hull's edges.
    """
    _check_st(s, t)
    return _m_hull_columns(s, t).get(r, range(0))


def m_coeff_hull(s: int, t: int, r: int, i: int) -> int:
    """Hull-plus-parity evaluation of the intermediate diagram (oracle)."""
    return int(i in m_column_hull(s, t, r))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


class DiagramSupport(Value):
    """The frozenset ``points`` of the (r, i) cells of the ``kind`` "M" or "N" diagram of Speh_s(St_t)."""

    __slots__ = _fields = ("kind", "s", "t", "points")

    def __iter__(self):
        return iter(sorted(self.points))

    def __len__(self):
        return len(self.points)


def m_support(s: int, t: int) -> DiagramSupport:
    _check_st(s, t)
    pts = {(r, i) for r in range(1, s + t) for i in m_column(s, t, r)}
    return DiagramSupport("M", s, t, frozenset(pts))


def n_support(s: int, t: int) -> DiagramSupport:
    _check_st(s, t)
    pts = {(r, i) for r in range(1, s + t) for i in n_column(s, t, r)}
    return DiagramSupport("N", s, t, frozenset(pts))


# ---------------------------------------------------------------------------
# superposition of block diagrams
# ---------------------------------------------------------------------------


class LocalComponent(Value):
    """A product of rectangle blocks Speh_s(St_{t_k}(pi_k)) with twist tags."""

    __slots__ = _fields = ("s", "blocks")

    def __init__(self, s: int, blocks: tuple[tuple[CuspidalLabel, int, Fraction], ...]):
        # blocks: (cuspidal, t_k, xi_k)
        if require_int("s", s) < 1 or any(require_int("t", t) < 1 for _, t, _ in blocks):
            raise ValueError("block sizes must be >= 1")
        super().__init__(s, blocks)


class BlockContribution(Value):
    """Block ``block`` (an index into ``LocalComponent.blocks``) marking a cell.

    ``source`` is the vertex (s + t_k - 1, 0) the mark descends from, and
    ``from_higher`` tells whether that source lies strictly deeper than the cell.
    """

    __slots__ = _fields = ("block", "source", "from_higher")


def superpose(
    comp: LocalComponent, target: CuspidalLabel, kind: str
) -> dict[Point, list[BlockContribution]]:
    """Overlay the diagrams of all blocks inertially equivalent to target.

    Every marked cell lists the contributing block indices; each contribution
    back-references its source vertex (s + t_k - 1, 0), flagged when that
    source sits at a strictly deeper stratum.
    """
    if kind not in ("M", "N"):
        raise ValueError("kind must be 'M' or 'N'")
    support_fn = m_support if kind == "M" else n_support
    out: dict[Point, list[BlockContribution]] = {}
    for k, (cusp, t_k, _xi) in enumerate(comp.blocks):
        if cusp != target:
            continue
        src = (comp.s + t_k - 1, 0)
        for pt in support_fn(comp.s, t_k):
            out.setdefault(pt, []).append(BlockContribution(k, src, src[0] > pt[0]))
    return {pt: contribs for pt, contribs in sorted(out.items())}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _points_of(obj) -> list[Point]:
    if isinstance(obj, DiagramSupport):
        return sorted(obj.points)
    if isinstance(obj, dict):
        return sorted(obj.keys())
    raise TypeError("expected a DiagramSupport or a superposition mapping")


def render_ascii(obj) -> str:
    """Plot with r on the horizontal axis and i vertical (larger i on top)."""
    pts = _points_of(obj)
    if not pts:
        return "(empty diagram)\n  r ->\n"
    rs = [p[0] for p in pts]
    is_ = [p[1] for p in pts]
    r_min, r_max = min(rs + [1]), max(rs)
    i_min, i_max = min(is_ + [0]), max(is_ + [0])
    marks = set(pts)
    lines = []
    for i in range(i_max, i_min - 1, -1):
        row = "".join("# " if (r, i) in marks else ". " for r in range(r_min, r_max + 1))
        axis = "i=0 |" if i == 0 else f"{i:>3} |"
        lines.append(f"{axis} {row.rstrip()}")
    lines.append("     " + "--" * (r_max - r_min + 1))
    lines.append("      " + " ".join(str(r % 10) for r in range(r_min, r_max + 1)) + "   (r)")
    return "\n".join(lines) + "\n"


SVG_SCALE = 24


def _svg(width: int, height: int, elements: Sequence[str]) -> str:
    head = f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">'
    return "\n".join([head, *elements, "</svg>"]) + "\n"


def _svg_panel(obj) -> tuple[int, int, list[str]]:
    """(width, height, elements) of one diagram: one circle per marked cell, light axis lines."""
    pts = _points_of(obj)
    rs = [p[0] for p in pts] or [1]
    is_ = [p[1] for p in pts] or [0]
    r_min, r_max = min(rs + [1]), max(rs)
    i_min, i_max = min(is_ + [0]), max(is_ + [0])
    pad = SVG_SCALE

    def x(r: int) -> int:
        return pad + (r - r_min) * SVG_SCALE

    def y(i: int) -> int:
        return pad + (i_max - i) * SVG_SCALE

    width = x(r_max) + pad
    height = y(i_min) + pad
    parts = [
        f'<line x1="{x(r_min)}" y1="{y(0)}" x2="{x(r_max)}" y2="{y(0)}" '
        f'stroke="#999" stroke-width="1"/>',
    ]
    for r in range(r_min, r_max + 1):
        parts.append(
            f'<text x="{x(r)}" y="{height - 4}" font-size="10" '
            f'text-anchor="middle">{r}</text>'
        )
    for r, i in pts:
        parts.append(f'<circle cx="{x(r)}" cy="{y(i)}" r="5" fill="#c22" data-r="{r}" data-i="{i}"/>')
    return width, height, parts


def render_svg(obj) -> str:
    """Hand-written SVG 1.1: one circle per marked cell, light axis lines."""
    return _svg(*_svg_panel(obj))


def render_svg_panels(objs: Sequence) -> str:
    """Several diagrams side by side in one SVG (multi-panel figures)."""
    panels = [_svg_panel(obj) for obj in objs]
    groups, x = [], 0
    for width, _, elements in panels:
        body = "\n".join(elements)
        groups.append(f'<g transform="translate({x},0)">\n{body}\n</g>')
        x += width + SVG_SCALE
    return _svg(x - SVG_SCALE, max(height for _, height, _ in panels), groups)


def render(obj, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(obj)
    if format == "svg":
        return render_svg(obj)
    raise ValueError(f"unknown format {format!r}")
