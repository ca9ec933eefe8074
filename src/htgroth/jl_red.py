"""Transfer maps to the division-algebra side and the R/S cell representations.

The trace of an irreducible against a twisted pseudo-coefficient vanishes
unless the irreducible's support is a multiplicity-one consecutive run on
the cuspidal line; on such a run the subquotients of the full induced
product biject with orientations of the linear graph on its points.  The
value is then a sign depending only on the orientation (pinned here as
(-1)^(number of segments - 1), Steinberg positive) times the unramified
character cut out by the run's center.

A cell (stratum r, degree i) of the intermediate or shriek table is the
signed sum of the cuts of a rectangle ladder at left rank r whose center is
-i_m/2, masked by the M or N diagram of :mod:`htgroth.diagrams`.  The cuts
come in two layers.  The shape layer, ``rectangle_shape_groups`` keyed on
(s, t, r), enumerates a rectangle's cuts once, label-free, in doubled
integers, and groups them by center: they depend only on the shape.  The
bound layer, ``rectangle_cuts`` keyed on (pi, s, t, r), sums each center's
signed a2 shapes and binds the cuspidal pi to them once (``bind_shapes``).
``marked_cells`` is the one iterator over these cells, and label-free; the
Euler oracle reads its cuts directly, while the tables and
``R_cell``/``S_cell`` read the bound values through ``cell_values``.  The two
tables read off the same underlying cut data: the shriek cell of degree i
reads the sheared intermediate degree i_m = 2 i + r - (s + t - 1), which also
makes the two twist conventions agree on the nose, and the endpoint identity
at (s + t - 1, 0) exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .diagrams import m_column, n_column
from .segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    KIND_FORMAL,
    Multisegment,
    OpaqueFactor,
    Segment,
    cut_tuples,
    label_of_multisegment,
)
from .symbolic import integer


# ---------------------------------------------------------------------------
# orientations of the linear graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orientation:
    """Orientation of the path graph on t vertices; True = rightward edge."""

    t: int
    edges: tuple[bool, ...]

    def __post_init__(self):
        if self.t < 1 or len(self.edges) != self.t - 1:
            raise ValueError("need t-1 edges for t vertices")


def orientations(t: int) -> list[Orientation]:
    """All 2^(t-1) orientations of the linear graph on 1..t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return [Orientation(t, edges) for edges in itertools.product((True, False), repeat=t - 1)]


def multisegment_of_orientation(o: Orientation, pi: CuspidalLabel) -> Multisegment:
    """Zelevinsky bijection: rightward runs become segments on the line.

    Vertices 1..t sit at the twists (1-t)/2, ..., (t-1)/2, so the fully
    rightward orientation maps to the Steinberg segment and the fully
    leftward one to the t singleton segments.
    """
    base = Fraction(1 - o.t, 2)
    segs = []
    run_start = 0
    for k in range(o.t - 1):
        if not o.edges[k]:  # leftward edge breaks the run
            segs.append(Segment(pi, base + run_start, k + 1 - run_start))
            run_start = k + 1
    segs.append(Segment(pi, base + run_start, o.t - run_start))
    return Multisegment(segs)


def orientation_of_run(ms: Multisegment) -> Orientation:
    """Inverse bijection on multiplicity-one consecutive-run multisegments."""
    run = _run_data(ms)
    if run is None:
        raise ValueError(f"{ms!r} is not a multiplicity-one consecutive run")
    _, start, size, _ = run
    edges = [True] * (size - 1)
    for seg in ms.segments:
        brk = seg.end - start  # edge after the last point of this segment
        if brk < size - 1:
            edges[int(brk)] = False
    return Orientation(size, tuple(edges))


# ---------------------------------------------------------------------------
# pseudo-coefficient traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedCharacter:
    """A sign and the unramified character |.|^{k/2} of F_v^x."""

    sign: int
    k: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.k, 2)


def _run_data(ms: Multisegment):
    """(cuspidal, start, size, center) when ms covers a run once, else None."""
    if ms.is_empty():
        return None
    lines = ms.cuspidal_lines()
    if len(lines) > 1:
        return None
    support = ms.support()
    if any(mult != 1 for mult in support.values()):
        return None
    points = sorted(p for _, p in support.keys())
    if any(b - a != 1 for a, b in zip(points, points[1:])):
        return None
    center = (points[0] + points[-1]) / 2
    return lines[0], points[0], len(points), center


def r_tau_sign(a1: Multisegment) -> SignedCharacter:
    """Sign and character of the transfer on a consecutive-run multisegment.

    The sign is (-1)^(#segments - 1), normalized so a single segment (the
    Steinberg shape) gives +1; it depends only on the orientation, never on
    the cuspidal.  The character is |.|^c for c the run's center offset.
    """
    run = _run_data(a1)
    if run is None:
        raise ValueError(
            f"transfer vanishes: {a1!r} is not a multiplicity-one consecutive run"
        )
    _, _, _, center = run
    k2 = 2 * center
    if k2.denominator != 1:
        raise ValueError("run center is not half-integral")
    return SignedCharacter(sign=(-1) ** (len(a1.segments) - 1), k=int(k2))


# ---------------------------------------------------------------------------
# the cut engine: label-free shapes, then bound cells
# ---------------------------------------------------------------------------

Piece = tuple[int, int, int]  # (2 * start, length, ladder row)
Shape = tuple[tuple[int, int], ...]  # sorted (2 * start, length) of the segments of one line
TermKey = tuple[Shape, int]  # (shape, 2 * Xi exponent) of a label-free term


@dataclass(frozen=True)
class Cut:
    """One surviving Jacquet cut of a ladder, label-free, in doubled integers.

    The cut takes the top ``ks[j]`` positions of ladder row j into a1, which
    then tiles one run once, and leaves the rest of the row in a2.  Positions
    are doubled so they stay integers: a piece ``(start2, length, row)``
    covers the doubled positions start2, start2 + 2, ..., start2 + 2(length - 1)
    of ladder row ``row``.  ``a1_pieces`` run bottom to top, so their
    positions in order are the run; ``a2_pieces`` follow the ladder rows.
    ``sign`` = (-1)^(#a1 pieces - 1) and ``center2`` (twice the run's center;
    the attached character is |.|^(center2/2)) are the transfer data.

    A cut carries no cuspidal label.  In the shape layer
    (``rectangle_shape_groups``, keyed on (s, t, r)) a rectangle's cuts are
    enumerated once per shape; the bound layer (``rectangle_cuts``, keyed on
    (pi, s, t, r)) binds pi to their summed a2 shapes, one ``CutGroup`` per
    center.  The Euler calculus of the cohomology tables reads the pieces
    and their rows directly.
    """

    ks: tuple[int, ...]
    sign: int
    center2: int
    a1_pieces: tuple[Piece, ...]
    a2_pieces: tuple[Piece, ...]


def _run_cuts(
    starts2: Sequence[int], lengths: Sequence[int], lines: Sequence, left_units: int
) -> list[Cut]:
    """The cuts whose a1 tiles one run once, of rows given as doubled starts, lengths, lines.

    Sorted by end, the nonzero pieces of such a cut are a chain of rows
    j_1, ..., j_n with strictly increasing ends on one cuspidal line.  The
    bottom piece k(j_1) is free in 1..len(j_1); every later piece starts just
    above the previous top, so k(j_(m+1)) = end(j_(m+1)) - end(j_m) is forced
    and must be an integer in 1..len(j_(m+1)); the ks sum to left_units.
    The cuts come in the lexicographic order of their ks.
    """
    n = len(lengths)
    ends2 = [a + 2 * (k - 1) for a, k in zip(starts2, lengths)]
    order = sorted(range(n), key=ends2.__getitem__)
    ks = [0] * n
    chain: list[int] = []  # the rows of the a1 pieces, bottom to top
    out = []

    def extend(nxt: int, top2: int, remaining: int, bottom2: int, line):
        if remaining == 0:
            a1 = tuple((ends2[j] - 2 * ks[j] + 2, ks[j], j) for j in chain)
            a2 = tuple((starts2[j], lengths[j] - ks[j], j) for j in range(n) if ks[j] < lengths[j])
            out.append(Cut(tuple(ks), (-1) ** (len(chain) - 1), (bottom2 + top2) // 2, a1, a2))
            return
        for idx in range(nxt, n):
            j = order[idx]
            gap2 = ends2[j] - top2
            if gap2 > 2 * remaining:
                break  # ends only grow along the order
            if gap2 < 2 or gap2 % 2 or gap2 > 2 * lengths[j] or lines[j] != line:
                continue
            ks[j] = gap2 // 2
            chain.append(j)
            extend(idx + 1, ends2[j], remaining - ks[j], bottom2, line)
            chain.pop()
            ks[j] = 0

    for idx, j in enumerate(order):
        chain.append(j)
        for k in range(1, min(lengths[j], left_units) + 1):
            ks[j] = k
            extend(idx + 1, ends2[j], left_units - k, ends2[j] - 2 * k + 2, lines[j])
        ks[j] = 0
        chain.pop()
    out.sort(key=lambda cut: cut.ks)  # ks are distinct
    return out


def run_cuts(lad: Multisegment, left_units: int) -> list[Cut]:
    """All suffix cuts of the ladder whose first half survives the transfer.

    Unlike the public ``ladder_cuts`` (which lists the Jacquet-module terms),
    this lists exactly the suffix tuples whose a1 is a multiplicity-one
    consecutive run, i.e. the terms with a nonzero pseudo-coefficient trace
    that the cohomology cells aggregate.  The tuples are generated directly
    as chains of rows tiling the run (see ``_run_cuts``, after Kret-Lapid's
    description of the Jacquet modules of ladders) instead of being filtered
    out of all suffix tuples; the cuts come in the lexicographic order of
    their ks, the order of ``run_cuts_scan``.  The rows of a piece index
    ``lad.segments``.
    """
    segs = lad.segments
    return _run_cuts(
        [int(2 * seg.start) for seg in segs],
        [seg.length for seg in segs],
        [seg.cuspidal for seg in segs],
        left_units,
    )


def _suffix_pieces(lad: Multisegment, ks: Sequence[int]):
    """The a1 and a2 pieces of a suffix tuple, as (Segment, row) pairs."""
    a1, a2 = [], []
    for j, (seg, k) in enumerate(zip(lad.segments, ks)):
        if k:
            a1.append((Segment(seg.cuspidal, seg.end - k + 1, k), j))
        if seg.length - k:
            a2.append((Segment(seg.cuspidal, seg.start, seg.length - k), j))
    return a1, a2


def run_cuts_scan(lad: Multisegment, left_units: int) -> list[Cut]:
    """Reference for ``run_cuts``: scan every suffix tuple in Fractions, keep the runs."""
    lengths = [seg.length for seg in lad.segments]
    if left_units > sum(lengths) or left_units < 0:
        return []
    out = []
    for ks in cut_tuples(lengths, left_units):
        a1, a2 = _suffix_pieces(lad, ks)
        run = _run_data(Multisegment(seg for seg, _ in a1))
        if run is None:
            continue
        a1.sort(key=lambda piece: piece[0].start)
        doubled = [tuple((int(2 * sg.start), sg.length, j) for sg, j in half) for half in (a1, a2)]
        out.append(Cut(tuple(ks), (-1) ** (len(a1) - 1), int(2 * run[3]), *doubled))
    return out


def rectangle_shape_cuts(s: int, t: int, left_units: int) -> tuple[Cut, ...]:
    """The cuts of the s-by-t rectangle ladder at left rank ``left_units``, label-free.

    Row j of ``speh_st_multisegment`` starts at the doubled position
    2 - s - t + 2 j; the rows index that ladder's segments.
    """
    return tuple(
        _run_cuts([2 - s - t + 2 * j for j in range(s)], [t] * s, [None] * s, left_units)
    )


@lru_cache(maxsize=1024)
def rectangle_shape_groups(s: int, t: int, left_units: int) -> Mapping[int, tuple[Cut, ...]]:
    """``rectangle_shape_cuts`` grouped by ``center2``, enumerated once per shape.

    Every caller shares the cached mapping, so it is read-only.
    """
    groups: dict[int, list[Cut]] = {}
    for cut in rectangle_shape_cuts(s, t, left_units):
        groups.setdefault(cut.center2, []).append(cut)
    return MappingProxyType({center2: tuple(cuts) for center2, cuts in sorted(groups.items())})


def a2_shape(cut: Cut) -> Shape:
    """The (start2, length) of the cut's a2 pieces, as a shape key.

    The rows of a rectangle start at increasing positions, so the pieces in
    row order are already sorted.
    """
    return tuple((start2, length) for start2, length, _ in cut.a2_pieces)


@lru_cache(maxsize=4096)
def _segment(cuspidal: CuspidalLabel, start2: int, length: int) -> Segment:
    """The segment of a piece, built once: a row's remainders recur across its cuts."""
    return Segment(cuspidal, Fraction(start2, 2), length)


def _pieces_multisegment(lines: Sequence[CuspidalLabel], pieces: Iterable[Piece]) -> Multisegment:
    """The segments of integer pieces, on the line of the row each came from."""
    return Multisegment(_segment(lines[row], start2, length) for start2, length, row in pieces)


def bind_shapes(pi: CuspidalLabel, terms: Iterable[tuple[TermKey, int]]) -> GrothElement:
    """Bind label-free terms ``((shape, xi2), c)`` to the line of pi.

    A shape becomes the formal label of its segments on pi (the empty shape
    the unit label), ``xi2`` the Xi exponent xi2/2, and ``c`` an integer
    coefficient.  On one line a multisegment sorts its segments by
    (start, length), so distinct sorted shapes bind to distinct labels: the
    binding is injective, and the keys must be distinct with nonzero ``c``.
    """
    out = {}
    for (shape, xi2), c in terms:
        ms = Multisegment(_segment(pi, start2, length) for start2, length in shape)
        out[(label_of_multisegment(ms, KIND_FORMAL), Fraction(xi2, 2))] = integer(c)
    return GrothElement._checked(out)


@dataclass(frozen=True)
class CutGroup:
    """One center of a rectangle column, bound to a cuspidal.

    ``value``, the signed sum of the a2 labels of the cuts with this center,
    is the value of every table cell that reads it.
    """

    center2: int
    value: GrothElement


@lru_cache(maxsize=4096)
def rectangle_cuts(pi: CuspidalLabel, s: int, t: int, left_units: int) -> tuple[CutGroup, ...]:
    """The cuts of the s-by-t rectangle on the line of pi, grouped by center.

    Reads the groups of ``rectangle_shape_groups`` and only binds the label:
    each group's signed a2 shapes are summed as integers, then bound once.
    """
    groups = []
    for center2, cuts in rectangle_shape_groups(s, t, left_units).items():
        terms: dict[TermKey, int] = {}
        for cut in cuts:
            key = (a2_shape(cut), 0)
            terms[key] = terms.get(key, 0) + cut.sign
        groups.append(CutGroup(center2, bind_shapes(pi, ((k, c) for k, c in terms.items() if c))))
    return tuple(groups)


# ---------------------------------------------------------------------------
# cell representations
# ---------------------------------------------------------------------------


def marked_cells(s: int, t: int, r: int, kind: str) -> Iterator[tuple[int, int, tuple[Cut, ...]]]:
    """(degree, i_m, cuts) for every cell of column r marked by the M or N diagram.

    ``degree`` indexes the cell in its own diagram and ``i_m`` is the
    intermediate degree behind it: i_m = degree on the M side, and the shear
    i_m = 2 degree + r - (s + t - 1) on the N side.  ``cuts`` are the
    label-free cuts of the s-by-t rectangle at left rank r whose center is
    -i_m/2; the signed sum of their a2 labels is the value of the cell.  The
    only walk over the cells of a column.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    if kind == "M":
        cells = [(i, i) for i in m_column(s, t, r, range(-(s + t), s + t + 1))]
    elif kind == "N":
        cells = [(i, 2 * i + r - (s + t - 1)) for i in n_column(s, t, r, range(0, s + t + 1))]
    else:
        raise ValueError("kind must be 'M' or 'N'")
    if not cells:
        return
    groups = rectangle_shape_groups(s, t, r)
    for degree, i_m in cells:
        yield degree, i_m, groups.get(-i_m, ())


def cell_values(
    pi: CuspidalLabel, s: int, t: int, r: int, kind: str
) -> Iterator[tuple[int, int, GrothElement]]:
    """(degree, i_m, value) for the cells of ``marked_cells`` with a nonzero value on pi.

    The values are the bound ``CutGroup.value`` of each cell's center.
    """
    values = None
    for degree, i_m, cuts in marked_cells(s, t, r, kind):
        if not cuts:
            continue
        if values is None:
            values = {group.center2: group.value for group in rectangle_cuts(pi, s, t, r)}
        if not values[-i_m].is_zero():
            yield degree, i_m, values[-i_m]


def _cell(pi: CuspidalLabel, s: int, t: int, r: int, kind: str, i: int) -> GrothElement:
    for degree, _, value in cell_values(pi, s, t, r, kind):
        if degree == i:
            return value
    return GrothElement.zero()


def R_cell(s: int, t: int, r: int, i: int, pi: CuspidalLabel) -> GrothElement:
    """Intermediate-extension cell: signed cuts of center -i/2, masked by m.

    Returns the bare sum of signed a2-labels; the caller supplies the
    external twist (the block twist times Xi^{i/2}).
    """
    return _cell(pi, s, t, r, "M", i)


def S_cell(s: int, t: int, r: int, i: int, pi: CuspidalLabel) -> GrothElement:
    """Shriek-extension cell: the sheared cut sum, masked by n.

    The cell (r, i) of the shriek table reads the cuts of center
    -(2 i + r - s - t + 1)/2; with the diagrams' twist conventions this
    makes the shriek twist Xi^{(2i + r - s - t + 1)/2} literally equal to
    the intermediate twist Xi^{i_m/2} on matching cells, and the shared
    vertex (s + t - 1, 0) carries identical cells on both sides.
    """
    return _cell(pi, s, t, r, "N", i)


# ---------------------------------------------------------------------------
# the multiplicative transfer on formal products
# ---------------------------------------------------------------------------


def _red_factor(pi: CuspidalLabel, r_units: int, factor) -> GrothElement | None:
    """Transfer of a single factor, or None when it vanishes identically."""
    if isinstance(factor, OpaqueFactor):
        return None
    assert isinstance(factor, Multisegment)
    lines = factor.cuspidal_lines()
    if len(lines) != 1 or lines[0] != pi:
        return None
    if r_units * pi.g > factor.rank:
        return None
    rows = [seg.cuspidal for seg in factor.segments]
    acc: dict = {}
    for cut in run_cuts(factor, r_units):
        label = label_of_multisegment(_pieces_multisegment(rows, cut.a2_pieces), KIND_FORMAL)
        key = (label, Fraction(cut.center2, 2))
        acc[key] = acc.get(key, integer(0)) + integer(cut.sign)
    return GrothElement(acc)


def red_tau(pi: CuspidalLabel, r_units: int, x: GrothElement) -> GrothElement:
    """The transfer against the depth-r pseudo-coefficient, extended by Leibniz.

    Terms of the output live over F_v^x times a smaller linear group: the
    character exponent of F_v^x rides in the Xi slot of each term, and the
    label collects the untouched factors times the cut remainder.  Factors
    on other cuspidal lines transfer to zero, so a product label expands as
    the usual one-factor-at-a-time sum.
    """
    if r_units < 1:
        raise ValueError("r_units must be >= 1")
    out = GrothElement.zero()
    for (label, tw), coeff in x.terms.items():
        for idx, factor in enumerate(label.factors):
            red = _red_factor(pi, r_units, factor)
            if red is None:
                continue
            rest = IrreducibleLabel(
                label.factors[:idx] + label.factors[idx + 1 :], KIND_FORMAL
            )
            for (cut_label, char), c in red.terms.items():
                merged = IrreducibleLabel(
                    rest.factors + cut_label.factors, KIND_FORMAL
                )
                out = out + GrothElement.of(merged, tw + char, coeff * c)
    return out
