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
-i_m/2, masked by the M or N diagram of :mod:`htgroth.diagrams`.  One walk,
``_run_cuts``, sums the signed a2 shapes of the cuts of rows on one line,
label-free, in doubled integers, and keeps no cut.  The shape layer,
``rectangle_shape_groups`` keyed on (s, t, r), walks a rectangle once and
keeps each center's sums: they depend only on the shape.  Likewise
``red_tau`` reads a factor's transfer sums from ``_transfer_terms``, keyed on
the factor's doubled starts, lengths and depth, not on its line.
``marked_cells`` is the one iterator over these cells, and label-free; the
tables and the Euler sums read its sums directly, and the Euler identity
hands it one uncached walk for both of its sides.  ``bind_shapes`` is the
one place that turns shapes into labels: it binds a cell, an Euler sum or
a transfer term to the line of pi once, with the block twist and the tail.
Labels are interned per line and shifted shape: each is built once and
shared by every table, while the product with a tail is built per call.
``rectangle_cuts``, keyed on (pi, s, t, r), keeps the bare bound values
that ``R_cell``/``S_cell`` read.  The two tables read off the same
underlying cut data: the shriek cell of degree i reads the sheared
intermediate degree i_m = 2 i + r - (s + t - 1), which also makes the two
twist conventions agree on the nose, and the endpoint identity at
(s + t - 1, 0) exact.
"""

from __future__ import annotations

import itertools
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
    Value,
    _suffix_cut,
    cut_tuples,
    label_product,
    require_int,
)
from .symbolic import SymExpr, integer


# ---------------------------------------------------------------------------
# orientations of the linear graph
# ---------------------------------------------------------------------------


class Orientation(Value):
    """Orientation of the path graph on t vertices; True = rightward edge."""

    __slots__ = _fields = ("t", "edges")

    def __init__(self, t: int, edges: tuple[bool, ...]):
        if require_int("t", t) < 1 or len(edges) != t - 1:
            raise ValueError("need t-1 edges for t vertices")
        super().__init__(t, edges)


def orientations(t: int) -> list[Orientation]:
    """All 2^(t-1) orientations of the linear graph on 1..t."""
    if require_int("t", t) < 1:
        raise ValueError("t must be >= 1")
    return [Orientation(t, edges) for edges in itertools.product((True, False), repeat=t - 1)]


def multisegment_of_orientation(o: Orientation, pi: CuspidalLabel) -> Multisegment:
    """Zelevinsky bijection: rightward runs become segments on the line.

    Vertices 1..t sit at the twists (1-t)/2, ..., (t-1)/2, so the fully
    rightward orientation maps to the Steinberg segment and the fully
    leftward one to the t singleton segments.
    """
    segs = []
    run_start = 0
    for k in range(o.t - 1):
        if not o.edges[k]:  # leftward edge breaks the run
            segs.append(Segment._of2(pi, 1 - o.t + 2 * run_start, k + 1 - run_start))
            run_start = k + 1
    segs.append(Segment._of2(pi, 1 - o.t + 2 * run_start, o.t - run_start))
    return Multisegment(segs)


# ---------------------------------------------------------------------------
# pseudo-coefficient traces
# ---------------------------------------------------------------------------


class SignedCharacter(Value):
    """A sign and the unramified character |.|^{k/2} of F_v^x."""

    __slots__ = _fields = ("sign", "k")

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.k, 2)


def _run_data(ms: Multisegment):
    """(cuspidal, center2) when ms covers a run once, else None; center2 is twice the run's center.

    On one line the segments come sorted by start, so they tile a run once
    exactly when each starts one step above the end of the one before.
    """
    if ms.is_empty() or len(ms.cuspidal_lines()) > 1:
        return None
    segs = ms.segments
    if any(b.start2 != a.end2 + 2 for a, b in zip(segs, segs[1:])):
        return None
    return segs[0].cuspidal, (segs[0].start2 + segs[-1].end2) // 2


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
    return SignedCharacter((-1) ** (len(a1.segments) - 1), run[1])


# ---------------------------------------------------------------------------
# the cut engine: label-free shapes, then bound cells
# ---------------------------------------------------------------------------

Shape = tuple[tuple[int, int], ...]  # sorted (2 * start, length) of the segments of one line
TermKey = tuple[Shape, int]  # (shape, 2 * Xi exponent) of a label-free term
Terms = tuple[tuple[TermKey, int], ...]  # (key, c), sorted by key, c != 0


class Cut(Value):
    """One Jacquet cut of a ladder whose a1 tiles one run once, label-free, in doubled integers.

    Row j of the ladder gives its top ``ks[j]`` positions to a1 and keeps the
    rest in a2, whose sorted (start2, length) shape is ``a2``.  ``sign`` =
    (-1)^(#a1 pieces - 1) and ``center2``, twice the run's center, are the
    transfer data.  Only the scan ``run_cuts`` builds cuts.
    """

    __slots__ = _fields = ("ks", "sign", "center2", "a2")


def frozen_terms(terms: dict[TermKey, int]) -> Terms:
    """The nonzero terms of an integer sum, sorted by key."""
    return tuple(sorted((key, c) for key, c in terms.items() if c))


def _run_cuts(starts2: Sequence[int], lengths: Sequence[int], left_units: int, xi_sign: int) -> Terms:
    """The signed a2 shapes of the cuts whose a1 tiles one run once, summed, of rows on one line.

    The rows are doubled starts and lengths.  Sorted by end, the nonzero
    pieces of such a cut are a chain of rows with strictly increasing ends:
    the bottom piece is free in 1..its row's length, and every later piece
    starts just above the previous top, so its length, the gap between the
    two ends, is forced and must fit its row; the pieces sum to left_units.
    The run is contiguous, so it ends 2 * (left_units - 1) above the bottom
    piece's bottom, whatever the chain above it: a bottom piece whose run
    cannot end on some row's end is never pushed.

    Each cut adds its sign (-1)^(#a1 pieces - 1) under (a2, xi_sign *
    center2), a2 being the chain's rows trimmed and the other rows whole,
    sorted.  On a ladder, whose starts and ends both strictly increase (every
    rectangle is one), the rows are already in a2's order and so is the
    chain: a leaf splices its trimmed rows in, with no sort.  Other rows
    (shared or falling starts) sort each a2.  The transfer takes xi_sign 1
    (the Xi slot carries the run's character |.|^(center2/2)); a table cell
    takes -1 (its cuts of center -i_m/2 carry the twist Xi^(i_m/2)).

    On the s-by-t rectangle at rank s + t - 1 only the bottom piece (0, t)
    reaches center 0, and the forced ks above it are a composition of s - 1
    into parts <= t.  So center 0 has C_t(s - 1) cuts, C_t(N) counting the
    compositions of N into parts <= t, and their signs sum to f_t(s - 1), the
    x^N coefficient of (1 - x)/(1 - x^(t+1)): 1 for N = 0 mod t + 1, -1 for
    N = 1, else 0.  ``verify`` checks the walk against both counts.
    """
    n = len(lengths)
    ends2 = [a + 2 * (k - 1) for a, k in zip(starts2, lengths)]
    row_ends2 = set(ends2)
    order = sorted(range(n), key=ends2.__getitem__)
    reach2 = 2 * max(lengths, default=0)  # no piece spans a wider gap
    ladder = all(a < b for a, b in zip(starts2, starts2[1:])) and all(
        a < b for a, b in zip(ends2, ends2[1:])
    )
    whole = tuple(zip(starts2, lengths))  # a2 of a ladder's cut, before its chain rows are trimmed
    terms: dict[TermKey, int] = {}
    chain: list[int] = []  # the rows of the a1 pieces, bottom to top
    # depth first with an explicit stack, in the order a recursion would take, at
    # any depth; a frame is (its row's depth in the chain, row, next position in
    # order, units left, bottom2); a chain's frames share its run's end, so the
    # bottom piece alone is tested against the rows' ends
    stack = []
    for idx in reversed(range(n)):  # the bottom piece is free in 1 .. its length
        j = order[idx]
        for k in range(min(lengths[j], left_units), 0, -1):
            if ends2[j] + 2 * (left_units - k) in row_ends2:
                stack.append((0, j, idx + 1, left_units - k, ends2[j] - 2 * k + 2))
    while stack:
        depth, j, nxt, remaining, bottom2 = stack.pop()
        top2 = ends2[j]
        del chain[depth:]
        chain.append(j)
        if remaining == 0:
            below2 = bottom2 - 2
            if ladder:
                a2, last = (), 0
                for row in chain:  # the piece of a chain row runs from below2 + 2 to its end
                    k = (below2 + 2 - starts2[row]) // 2
                    a2 += whole[last:row] + (((starts2[row], k),) if k else ())
                    last, below2 = row + 1, ends2[row]
                a2 += whole[last:]
            else:
                rest = list(lengths)
                for row in chain:
                    rest[row], below2 = (below2 + 2 - starts2[row]) // 2, ends2[row]
                a2 = tuple(sorted((starts2[i], k) for i, k in enumerate(rest) if k))
            key = (a2, xi_sign * ((bottom2 + top2) // 2))
            terms[key] = terms.get(key, 0) + (-1) ** depth
            continue
        limit2, above = min(2 * remaining, reach2), []
        for idx in range(nxt, n):
            i = order[idx]
            gap2 = ends2[i] - top2
            if gap2 > limit2:
                break  # ends only grow along the order
            if gap2 < 2 or gap2 % 2 or gap2 > 2 * lengths[i]:
                continue
            above.append((depth + 1, i, idx + 1, remaining - gap2 // 2, bottom2))
        stack.extend(reversed(above))
    return frozen_terms(terms)


def run_cuts(lad: Multisegment, left_units: int) -> list[Cut]:
    """All suffix cuts of the ladder whose a1 survives the transfer, by scan: the tests' reference.

    Unlike ``ladder_cuts`` (every Jacquet-module term), this keeps exactly
    the suffix tuples, in the lexicographic order of ``cut_tuples``, whose a1
    is a multiplicity-one consecutive run: the terms with a nonzero
    pseudo-coefficient trace.  Its cost grows with the number of tuples; the
    walk ``_run_cuts`` sums the same cuts without them.
    """
    out = []
    for ks in cut_tuples([seg.length for seg in lad.segments], left_units):
        a1, a2 = _suffix_cut(lad, ks)
        run = _run_data(a1)
        if run is None:
            continue
        shape = tuple(sorted((seg.start2, seg.length) for seg in a2.segments))
        out.append(Cut(tuple(ks), (-1) ** (len(a1.segments) - 1), run[1], shape))
    return out


# Saves ~30 us per `tables` op, ~3 us per `towers` op and ~3.4 ms of a `verify --max 12` run (93 hits).
@lru_cache(maxsize=1024)
def rectangle_shape_groups(s: int, t: int, left_units: int) -> Mapping[int, Terms]:
    """``_run_cuts`` of the s-by-t rectangle at xi_sign -1, keyed on (a2, i_m), per center2 = -i_m.

    Row j of ``speh_st_multisegment`` starts at 2 - s - t + 2 j, doubled, so
    a cut's a2 shape fixes its ks (a row with no remainder is taken whole):
    no two cuts share a key, no term cancels, and a center has a sum, the
    value of every table cell that reads it, exactly when it has a cut.  The
    cached mapping is shared, so it is read-only.
    """
    groups: dict[int, list[tuple[TermKey, int]]] = {}
    for term in _run_cuts([2 - s - t + 2 * j for j in range(s)], [t] * s, left_units, -1):
        groups.setdefault(-term[0][1], []).append(term)
    return MappingProxyType({c2: tuple(terms) for c2, terms in sorted(groups.items())})


LINE_LIMIT = 4096  # the labels, and the segments, that one line's store holds


# Saves ~90 us per `tables` op against a fresh store per call, and ~8 us per `towers` op (1.4 label
# hits, ~6 us a build).  Shared segments keep 10 s `tables` runs at 31.0-31.3 MB, not 32.5-32.6 MB, and
# dropping dead lift lines whole cut `towers` peak RSS 35.8 -> 32.1 MB (30 s runs; 3.11, 2 vCPUs).
@lru_cache(maxsize=8)
def _line_store(line: tuple) -> tuple[CuspidalLabel, dict, dict]:
    """The store of a line, keyed on its cuspidal's ``_key``: (its label, its segments, its labels).

    Segments are keyed on (start2, length) and formal labels on (shape,
    shift2); a dict of ``LINE_LIMIT`` entries is emptied before it takes
    another.  A query's fresh ``CuspidalLabel`` reads the store by tuple
    equality.  Every workload binds on one line per op, so a few lines keep
    every live hit, and a line no caller asks for again is dropped whole.
    """
    return CuspidalLabel(*line), {}, {}


def _kept(table: dict, key, value):
    if len(table) >= LINE_LIMIT:
        table.clear()
    table[key] = value
    return value


def _label_in(store: tuple, shape: Shape, shift2: int) -> IrreducibleLabel:
    """The formal label of ``shape`` on the store's line, every start moved by shift2/2, built once.

    Every caller shares one label object per line and shifted shape: at
    shift2 != 0 it is the shifted shape's at shift 0, so sums of bound terms
    compare their keys by identity.  On one line a shape sorted by (start2,
    length) is in its segments' key order: it is wrapped, not sorted.
    """
    pi, segments, labels = store
    label = labels.get((shape, shift2))
    if label is not None:
        return label
    if shape and shift2:
        label = _label_in(store, tuple((start2 + shift2, length) for start2, length in shape), 0)
    elif shape:
        segs = []
        for piece in shape:
            seg = segments.get(piece)
            segs.append(_kept(segments, piece, Segment._of2(pi, *piece)) if seg is None else seg)
        label = IrreducibleLabel((Multisegment._in_order(tuple(segs)),), KIND_FORMAL)
    else:
        label = IrreducibleLabel.unit()
    return _kept(labels, (shape, shift2), label)


def bind_shapes(
    pi: CuspidalLabel,
    terms: Iterable[tuple[TermKey, int]],
    shift2: int = 0,
    tail: IrreducibleLabel = IrreducibleLabel.unit(),
    weight: SymExpr = integer(1),
    row: dict | None = None,
) -> GrothElement | None:
    """Bind label-free terms ``((shape, xi2), c)`` to the line of pi, twisted, times a tail and a weight.

    The one place where shapes become labels.  A shape becomes the formal
    label of its segments on pi (the empty shape the unit label), every
    start moved by the block twist shift2/2, times ``tail``
    (``label_product``); ``xi2`` becomes the doubled Xi exponent xi2 + shift2,
    and ``c`` the coefficient ``weight * c``, which for c = +-1 is ``weight``
    itself or its kept negation, one object across calls.  The label of a
    shape is interned in the store of pi's line (``_line_store``, keyed on
    pi's ``_key``, read once per call) and shared by every table, Euler
    sum and transfer term; the product with the tail is built per call, so
    the cache holds no tail.  On one line a multisegment sorts its segments
    by (start, length), so distinct sorted shapes bind to distinct labels:
    the binding is injective, and the keys must be distinct with nonzero
    ``c``.  Given a dict ``row``, it adds the terms there and returns None.
    """
    out = {} if row is None else row
    store = _line_store(pi._key)
    labels = store[2]
    for (shape, xi2), c in terms:
        label = labels.get((shape, shift2))
        if label is None:
            label = _label_in(store, shape, shift2)
        if tail.factors:  # the product with the unit is the label itself
            label = label_product(tail, label)
        key, c = (label, xi2 + shift2), weight * c
        old = out.get(key)
        out[key] = c if old is None else old + c
    return GrothElement._checked(out) if row is None else None


# Saves nothing: no benchmark op calls it; kept for `R_cell`/`S_cell` and the benchmark's cut-cache metrics.
@lru_cache(maxsize=4096)
def rectangle_cuts(
    pi: CuspidalLabel, s: int, t: int, left_units: int
) -> Mapping[int, GrothElement]:
    """The bare cell values of the s-by-t rectangle on the line of pi, by ``center2``.

    Binds each center's summed a2 shapes from ``rectangle_shape_groups``
    with the Xi exponent 0, as ``R_cell`` and ``S_cell`` return them.  Every
    caller gets the cached values, so their terms are read-only.
    """
    values = {}
    for c2, sums in rectangle_shape_groups(s, t, left_units).items():
        terms = bind_shapes(pi, (((shape, 0), c) for (shape, _), c in sums)).terms
        values[c2] = GrothElement._checked(MappingProxyType(terms))
    return MappingProxyType(values)


# ---------------------------------------------------------------------------
# cell representations
# ---------------------------------------------------------------------------


def marked_cells(
    s: int, t: int, r: int, kind: str, groups: Mapping[int, Terms] | None = None
) -> Iterator[tuple[int, int, Terms]]:
    """(degree, i_m, sums) for every cell of column r marked by the M or N diagram.

    ``degree`` indexes the cell in its own diagram and ``i_m`` is the
    intermediate degree behind it: i_m = degree on the M side, and the shear
    i_m = 2 degree + r - (s + t - 1) on the N side.  ``sums`` are the signed
    a2 shapes, keyed on (shape, i_m), of the cuts of the s-by-t rectangle at
    left rank r whose center is -i_m/2: the value of the cell, empty when
    no cut has that center.  They are read from ``groups``, the stratum's
    ``rectangle_shape_groups`` when a caller has walked it already, and
    from the cache otherwise.  The only walk over the cells of a column.
    """
    if kind == "M":
        cells = [(i, i) for i in m_column(s, t, r)]
    elif kind == "N":
        cells = [(i, 2 * i + r - (s + t - 1)) for i in n_column(s, t, r)]
    else:
        raise ValueError("kind must be 'M' or 'N'")
    if not cells:
        return
    if groups is None:
        groups = rectangle_shape_groups(s, t, r)
    for degree, i_m in cells:
        yield degree, i_m, groups.get(-i_m, ())


def _cell(pi: CuspidalLabel, s: int, t: int, r: int, kind: str, i: int) -> GrothElement:
    for degree, i_m, sums in marked_cells(s, t, r, kind):
        if degree == i and sums:
            return rectangle_cuts(pi, s, t, r)[-i_m]
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


# Saves ~13 us per `towers` op: fresh lift lines share a factor's shapes (1.7 hits per op, 7.8 us a call).
@lru_cache(maxsize=1024)
def _transfer_terms(starts2: tuple[int, ...], lengths: tuple[int, ...], r_units: int) -> Terms:
    """The summed transfer terms of a factor on one line, from its rows: ``_run_cuts`` at xi_sign 1.

    The rows are passed line-free, as ``rectangle_shape_groups`` passes a
    rectangle's, so factors on different lines with the same rows share one sum.
    """
    return _run_cuts(starts2, lengths, r_units, 1)


def red_tau(pi: CuspidalLabel, r_units: int, x: GrothElement) -> GrothElement:
    """The transfer against the depth-r pseudo-coefficient, extended by Leibniz.

    Terms of the output live over F_v^x times a smaller linear group: the
    character exponent of F_v^x rides in the Xi slot of each term, and the
    label collects the untouched factors times the cut remainder.  Factors
    on other cuspidal lines transfer to zero, so a product label expands as
    the usual one-factor-at-a-time sum.  A factor's transfer is summed
    label-free from its doubled starts and lengths (``_transfer_terms``, all
    its rows lie on pi), once per process and shape, and each of its terms
    is bound once per call, with the untouched factors as the tail.
    """
    if r_units < 1:
        raise ValueError("r_units must be >= 1")
    out: dict = {}
    for (label, tw2), coeff in x.terms.items():
        for idx, factor in enumerate(label.factors):
            if (
                isinstance(factor, OpaqueFactor)
                or factor.cuspidal_lines() != [pi]
                or r_units * pi.g > factor.rank
            ):
                continue  # the transfer vanishes identically
            segs = factor.segments
            starts2, lengths = tuple(seg.start2 for seg in segs), tuple(seg.length for seg in segs)
            red = _transfer_terms(starts2, lengths, r_units)
            rest = IrreducibleLabel(label.factors[:idx] + label.factors[idx + 1 :], KIND_FORMAL)
            terms = (((shape, xi2 + tw2), c) for (shape, xi2), c in red)
            bind_shapes(pi, terms, tail=rest, weight=coeff, row=out)
    return GrothElement._checked(out)
