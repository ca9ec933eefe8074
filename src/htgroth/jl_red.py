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
-i_m/2, masked by the M or N diagram of :mod:`htgroth.diagrams`.
``marked_cells`` is the one iterator over these cells; the tables, the
Euler oracle and ``R_cell``/``S_cell`` all read them through it.  The two
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
from typing import Iterable, Iterator, Sequence

from .diagrams import m_coeff, n_coeff
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
    speh_st_multisegment,
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
# the cut engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cut:
    """One surviving Jacquet cut of a ladder: the transfer data of a1 plus a2.

    Besides the halves and the transfer sign/character, a cut remembers which
    ladder row each a1 position and each a2 piece came from, and which a1
    position pairs sit inside one a1 segment; the coefficient-block calculus
    of the cohomology tables is driven by this row structure.
    """

    ks: tuple[int, ...]
    a1: Multisegment
    a2: Multisegment
    sign: int
    center: Fraction  # center offset of a1; the attached character is |.|^center
    a1_rows: tuple[tuple[Fraction, int], ...] = ()  # position -> source row
    a2_rows: tuple[int, ...] = ()  # row of each a2 segment, in sorted order
    inside: frozenset = frozenset()  # a1 position pairs inside one segment

    def positions(self) -> list[Fraction]:
        return [p for p, _ in self.a1_rows]


def _suffix_pieces(lad: Multisegment, ks: Sequence[int]):
    a1, a2, a2_rows = [], [], []
    rows: dict[Fraction, int] = {}
    for j, (seg, k) in enumerate(zip(lad.segments, ks)):
        if k:
            piece = Segment(seg.cuspidal, seg.end - k + 1, k)
            a1.append(piece)
            for p in piece.positions():
                rows[p] = j
        if seg.length - k:
            piece = Segment(seg.cuspidal, seg.start, seg.length - k)
            a2.append(piece)
            a2_rows.append(j)
    order = sorted(range(len(a2)), key=lambda idx: a2[idx].sort_key())
    return Multisegment(a1), Multisegment(a2), rows, tuple(a2_rows[idx] for idx in order)


def _make_cut(lad: Multisegment, ks: Sequence[int], center: Fraction) -> Cut:
    a1, a2, rows, a2_rows = _suffix_pieces(lad, ks)
    inside = set()
    for seg in a1.segments:
        ppos = seg.positions()
        inside.update(zip(ppos, ppos[1:]))
    return Cut(
        ks=tuple(ks),
        a1=a1,
        a2=a2,
        sign=(-1) ** (len(a1.segments) - 1),
        center=center,
        a1_rows=tuple(sorted(rows.items())),
        a2_rows=a2_rows,
        inside=frozenset(inside),
    )


def _run_tuples(lad: Multisegment, left_units: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """(ks, center) of every suffix tuple whose a1 tiles one run once, ks ascending.

    Sorted by end, the nonzero pieces of such a tuple are a chain of rows
    j_1, ..., j_n with strictly increasing ends on one cuspidal line.  The
    bottom piece k(j_1) is free in 1..len(j_1); every later piece starts just
    above the previous top, so k(j_(m+1)) = end(j_(m+1)) - end(j_m) is forced
    and must be an integer in 1..len(j_(m+1)); the ks sum to left_units.
    Ends are kept doubled so the walk stays in integers.
    """
    segs = lad.segments
    ends2 = [int(2 * seg.end) for seg in segs]
    order = sorted(range(len(segs)), key=ends2.__getitem__)
    ks = [0] * len(segs)
    out = []

    def extend(nxt: int, top2: int, remaining: int, bottom2: int, cuspidal: CuspidalLabel):
        if remaining == 0:
            out.append((tuple(ks), Fraction(bottom2 + top2, 4)))
            return
        for idx in range(nxt, len(order)):
            j = order[idx]
            gap2 = ends2[j] - top2
            if gap2 > 2 * remaining:
                break  # ends only grow along the order
            if gap2 < 2 or gap2 % 2 or gap2 > 2 * segs[j].length or segs[j].cuspidal != cuspidal:
                continue
            ks[j] = gap2 // 2
            extend(idx + 1, ends2[j], remaining - ks[j], bottom2, cuspidal)
            ks[j] = 0

    for idx, j in enumerate(order):
        for k in range(1, min(segs[j].length, left_units) + 1):
            ks[j] = k
            extend(idx + 1, ends2[j], left_units - k, ends2[j] - 2 * k + 2, segs[j].cuspidal)
        ks[j] = 0
    out.sort()  # ks are distinct, so this is their lexicographic order
    return out


def run_cuts(lad: Multisegment, left_units: int) -> list[Cut]:
    """All suffix cuts of the ladder whose first half survives the transfer.

    Unlike the public ``ladder_cuts`` (which lists the Jacquet-module terms),
    this lists exactly the suffix tuples whose a1 is a multiplicity-one
    consecutive run, i.e. the terms with a nonzero pseudo-coefficient trace
    that the cohomology cells aggregate.  The tuples are generated directly
    as chains of rows tiling the run (see ``_run_tuples``, after Kret-Lapid's
    description of the Jacquet modules of ladders) instead of being filtered
    out of all suffix tuples; the cuts come in the lexicographic order of
    their ks, the order of ``run_cuts_scan``.
    """
    return [_make_cut(lad, ks, center) for ks, center in _run_tuples(lad, left_units)]


def run_cuts_scan(lad: Multisegment, left_units: int) -> list[Cut]:
    """Reference for ``run_cuts``: scan every suffix tuple, keep the runs."""
    lengths = [seg.length for seg in lad.segments]
    if left_units > sum(lengths) or left_units < 0:
        return []
    out = []
    for ks in cut_tuples(lengths, left_units):
        run = _run_data(_suffix_pieces(lad, ks)[0])
        if run is not None:
            out.append(_make_cut(lad, ks, run[3]))
    return out


@lru_cache(maxsize=4096)
def rectangle_cuts(pi: CuspidalLabel, s: int, t: int, left_units: int) -> tuple[Cut, ...]:
    return tuple(run_cuts(speh_st_multisegment(pi, s, t), left_units))


# ---------------------------------------------------------------------------
# cell representations
# ---------------------------------------------------------------------------


def marked_cells(
    pi: CuspidalLabel, s: int, t: int, r: int, kind: str
) -> Iterator[tuple[int, int, tuple[Cut, ...]]]:
    """(degree, i_m, cuts) for every cell of column r marked by the M or N diagram.

    ``degree`` indexes the cell in its own diagram and ``i_m`` is the
    intermediate degree behind it: i_m = degree on the M side, and the shear
    i_m = 2 degree + r - (s + t - 1) on the N side.  ``cuts`` are the cuts of
    the s-by-t rectangle at left rank r whose center is -i_m/2, grouped once
    per column.  The only walk over the cells of a column.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    if kind == "M":
        cells = [(i, i) for i in range(-(s + t), s + t + 1) if m_coeff(s, t, r, i)]
    elif kind == "N":
        cells = [
            (i, 2 * i + r - (s + t - 1)) for i in range(0, s + t + 1) if n_coeff(s, t, r, i)
        ]
    else:
        raise ValueError("kind must be 'M' or 'N'")
    if not cells:
        return
    by_center: dict[Fraction, list[Cut]] = {}
    for cut in rectangle_cuts(pi, s, t, r):
        by_center.setdefault(cut.center, []).append(cut)
    for degree, i_m in cells:
        yield degree, i_m, tuple(by_center.get(Fraction(-i_m, 2), ()))


def cut_sum(cuts: Iterable[Cut]) -> GrothElement:
    """The signed sum of the a2-labels of the cuts: the value of a cell."""
    acc = GrothElement.zero()
    for cut in cuts:
        acc = acc + GrothElement.of(
            label_of_multisegment(cut.a2, KIND_FORMAL), Fraction(0), integer(cut.sign)
        )
    return acc


def _cell(pi: CuspidalLabel, s: int, t: int, r: int, kind: str, i: int) -> GrothElement:
    for degree, _, cuts in marked_cells(pi, s, t, r, kind):
        if degree == i:
            return cut_sum(cuts)
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
    acc: dict = {}
    for cut in run_cuts(factor, r_units):
        label = label_of_multisegment(cut.a2, KIND_FORMAL)
        key = (label, cut.center)
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
