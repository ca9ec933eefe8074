"""The label-free combinatorics: Jacquet cuts summed as shapes, table cells and the Euler identity.

Everything here is an integer sum on doubled integers that knows no
cuspidal label.  The module imports only :mod:`htgroth.symbolic` and
:mod:`htgroth.diagrams`, so ``htgroth verify``, which checks nothing else,
loads no labelled layer.  :mod:`htgroth.jl_red` binds these sums to the
line of a cuspidal and :mod:`htgroth.cohomology` to profiles; each
re-exports, under its old path, the names that moved here from it.

A term is keyed by (shape, xi2): ``shape`` is the sorted tuple of (start2,
length) of its segments, positions doubled as in the cuts (the empty shape
is the unit label), and ``xi2`` is twice its Xi exponent; coefficients are
plain ints.  One walk, ``_run_cuts``, sums the signed a2 shapes of the cuts
of rows on one line and keeps no cut.  ``rectangle_shape_groups``, keyed on
(s, t, r), walks a rectangle once and keeps each center's sums: they depend
only on the shape.  ``marked_cells`` is the one iterator over the cells of
a table column, and holds the degree conventions: the intermediate table of
a block is indexed by the degrees i of the M diagram, the shriek table by
the sheared degrees of the N diagram, whose cell of degree i reads the
intermediate degree i_m = 2 i + r - (s + t - 1).  So the twists of the two
tables coincide cut for cut and the vertex (s + t - 1, 0) carries one cell
on both sides.

The stratified base changes ``hij_expand`` and ``se2_expand`` are inverse
to each other (``check_se2``, ``check_hij``).  The master identity (the
alternating-sum consequence of the two triangular base changes) reads, per
block and stratum r:

    sum_i (-1)^i [intermediate table](r)[i]
        = sum_{m >= 0} (-1)^m * (attached shriek Euler term at stratum r+m)

``_euler_core`` sums the left side.  ``_shriek_core`` defines the attached
terms, which peel m run positions off the cuts behind the shriek cells, and
sums them in closed form, peeling no cut; the tests keep the peeling as its
oracle.  These conventions are frozen here.  Under them the identity holds
at every stratum r >= 1 on exactly the one-row, one-column and square
blocks; on a non-square mixed block it fails at r = 1 .. max(s, t) - 1,
because the sheared shriek column starts below the M column when s < t and
above it when s > t, and the groups of cuts between the two starts are left
over.  ``euler_oracle_violations`` proves this and lists those strata; the
tests check the list against the sums.  ``euler_master_identity`` walks its
stratum once, uncached, builds both sides from that walk and compares the
integer sums themselves, since binding to one line is injective: a sweep
over strata keeps nothing.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .diagrams import m_column, n_column
from .symbolic import SymExpr, atom, integer


# ---------------------------------------------------------------------------
# the cut walk: label-free shapes
# ---------------------------------------------------------------------------


Shape = tuple[tuple[int, int], ...]  # sorted (2 * start, length) of the segments of one line
TermKey = tuple[Shape, int]  # (shape, 2 * Xi exponent) of a label-free term
Terms = tuple[tuple[TermKey, int], ...]  # (key, c), sorted by key, c != 0


def frozen_terms(terms: dict[TermKey, int]) -> Terms:
    """The nonzero terms of an integer sum, sorted by key."""
    return tuple(sorted((key, c) for key, c in terms.items() if c))


def _run_cuts(starts2: Sequence[int], lengths: Sequence[int], left_units: int, xi_sign: int) -> Terms:
    """The signed a2 shapes of the cuts whose a1 tiles one run once, summed, of rows on one line.

    The rows are doubled starts and lengths, taken in the order of their
    ends.  The nonzero pieces of such a cut are then a chain of rows with
    strictly increasing ends: the bottom piece is free in 1..its row's
    length, and every later piece starts just above the previous top, so
    its length, the gap between the two ends, is forced and must fit its
    row; the pieces sum to left_units.  The run is contiguous, so it ends
    2 * (left_units - 1) above the bottom piece's bottom, whatever the chain
    above it: a bottom piece whose run cannot end on some row's end is never
    pushed.

    Each cut adds its sign (-1)^(#a1 pieces - 1) under (a2, xi_sign *
    center2), a2 being the chain's rows trimmed and the other rows whole,
    sorted.  A leaf splices its trimmed rows into the whole rows, in end
    order.  A trimmed row keeps its start, so when the starts strictly rise
    along that order, as on every ladder, the splice is already sorted;
    other rows (shared or falling starts) sort each a2.  The transfer takes
    xi_sign 1 (the Xi slot carries the run's character |.|^(center2/2)); a
    table cell takes -1 (its cuts of center -i_m/2 carry the twist
    Xi^(i_m/2)).

    On the s-by-t rectangle at rank s + t - 1 only the bottom piece (0, t)
    reaches center 0, and the forced ks above it are a composition of s - 1
    into parts <= t.  So center 0 has C_t(s - 1) cuts, C_t(N) counting the
    compositions of N into parts <= t, and their signs sum to f_t(s - 1), the
    x^N coefficient of (1 - x)/(1 - x^(t+1)): 1 for N = 0 mod t + 1, -1 for
    N = 1, else 0.  ``verify`` checks the walk against both counts.
    """
    whole = tuple(sorted(zip(starts2, lengths), key=lambda row: row[0] + 2 * row[1]))  # in end order
    n = len(whole)
    starts2 = [a for a, _ in whole]
    lengths = [k for _, k in whole]
    ends2 = [a + 2 * (k - 1) for a, k in whole]
    row_ends2 = set(ends2)
    reach2 = 2 * max(lengths, default=0)  # no piece spans a wider gap
    in_order = all(a < b for a, b in zip(starts2, starts2[1:]))  # then every a2 is sorted as spliced
    terms: dict[TermKey, int] = {}
    chain: list[int] = []  # the rows of the a1 pieces, bottom to top
    # depth first with an explicit stack, at any depth; a frame is (its row's depth
    # in the chain, row, units left, bottom2), and the pieces above it lie on later
    # rows; a chain's frames share its run's end, so the bottom piece alone is
    # tested against the rows' ends
    stack = [
        (0, j, left_units - k, ends2[j] - 2 * k + 2)
        for j in range(n)
        for k in range(1, min(lengths[j], left_units) + 1)
        if ends2[j] + 2 * (left_units - k) in row_ends2
    ]
    while stack:
        depth, j, remaining, bottom2 = stack.pop()
        top2 = ends2[j]
        del chain[depth:]
        chain.append(j)
        if remaining == 0:
            below2, a2, last = bottom2 - 2, (), 0
            for row in chain:  # the piece of a chain row runs from below2 + 2 to its end
                k = (below2 + 2 - starts2[row]) // 2
                a2 += whole[last:row] + (((starts2[row], k),) if k else ())
                last, below2 = row + 1, ends2[row]
            a2 += whole[last:]
            key = (a2 if in_order else tuple(sorted(a2)), xi_sign * ((bottom2 + top2) // 2))
            terms[key] = terms.get(key, 0) + (-1) ** depth
            continue
        limit2 = min(2 * remaining, reach2)
        for i in range(j + 1, n):
            gap2 = ends2[i] - top2
            if gap2 > limit2:
                break  # ends only grow along the order
            if gap2 < 2 or gap2 % 2 or gap2 > 2 * lengths[i]:
                continue
            stack.append((depth + 1, i, remaining - gap2 // 2, bottom2))
    return frozen_terms(terms)


# Saves ~35 us per `tables` op (1.03 hits), ~1 us per `towers` op (0.067 hits) and ~0.8 ms of a fresh
# `verify --max 12` run, whose endpoint suite reads the top stratum of each s-by-t with s t <= 12 once per
# diagram (35 hits, 35 misses).
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


# ---------------------------------------------------------------------------
# the stratified base changes and their round trip
# ---------------------------------------------------------------------------


# A stratified class is a pair (stratum, attachment orientation); the
# attachment accumulated while descending from the base stratum t to the
# stratum h occupies an abstract run of h - t positions and is stored as its
# edge tuple.  Appending a width-i Steinberg block fixes the new internal
# edges rightward and leaves the junction edge free; a Speh block fixes them
# leftward.

StratState = tuple[int, tuple[bool, ...]]
StratVector = dict[StratState, int]


def _expand(state: StratState, base: int, s_max: int, rightward: bool) -> StratVector:
    """Append a block of every width 0 .. s_max - h to one class.

    Width 0 is the class itself.  A Steinberg block (``rightward``) fixes its
    internal edges rightward and enters with +1; a Speh block fixes them
    leftward and carries (-1)^width.  The junction edge to a nonempty
    attachment is free, so it gives one class per orientation.
    """
    h, edges = state
    out: StratVector = {state: 1}
    junctions = [()] if h == base else [edges + (True,), edges + (False,)]
    for width in range(1, s_max - h + 1):
        sign = 1 if rightward or width % 2 == 0 else -1
        for junction in junctions:  # the keys are distinct
            out[(h + width, junction + (rightward,) * (width - 1))] = sign
    return out


def hij_expand(state: StratState, base: int, s_max: int) -> StratVector:
    """One shriek class as intermediate classes: Y_h = X_h + deeper St-terms."""
    return _expand(state, base, s_max, rightward=True)


def se2_expand(state: StratState, base: int, s_max: int) -> StratVector:
    """One intermediate class as shriek classes: alternating Speh-terms."""
    return _expand(state, base, s_max, rightward=False)


def _round_trip(first, then, t: int, s_max: int) -> bool:
    """``then`` after ``first`` is the identity on the base class (t, ())."""
    if not (1 <= t <= s_max):
        raise ValueError("need 1 <= t <= s_max")
    start: StratState = (t, ())
    acc: StratVector = {}
    for mid, c1 in first(start, t, s_max).items():
        for end, c2 in then(mid, t, s_max).items():
            acc[end] = acc.get(end, 0) + c1 * c2
    return {key: c for key, c in acc.items() if c} == {start: 1}


def check_se2(t: int, s_max: int) -> bool:
    """Round trip se2 then hij is the identity on every base class."""
    return _round_trip(se2_expand, hij_expand, t, s_max)


def check_hij(t: int, s_max: int) -> bool:
    """Round trip hij then se2 is the identity on every base class."""
    return _round_trip(hij_expand, se2_expand, t, s_max)


# ---------------------------------------------------------------------------
# the Euler-characteristic master identity
# ---------------------------------------------------------------------------


def _alternating_sum(cells) -> Terms:
    """The sum of (-1)^n sums over the pairs (n, sums) of ``cells``."""
    terms: dict[TermKey, int] = {}
    for n, sums in cells:
        parity = -1 if n % 2 else 1
        for key, c in sums:
            terms[key] = terms.get(key, 0) + parity * c
    return frozen_terms(terms)


def _euler_core(s: int, t: int, r: int, groups: Mapping[int, Terms] | None = None) -> Terms:
    """The alternating sum of the intermediate table of the block, label-free.

    The cell of degree i adds its summed a2 shapes, keyed with the twist
    xi2 = i of the cuts behind it, with the sign (-1)^i.
    """
    return _alternating_sum((i, sums) for i, _, sums in marked_cells(s, t, r, "M", groups))


def _shriek_core(s: int, t: int, r: int, groups: Mapping[int, Terms] | None = None) -> Terms:
    """The se2 expansion of the s-by-t block from shriek-side data, label-free, in closed form.

    The expansion sums (-1)^m T_m over m >= 0.  T_m peels the bottom m run
    positions of each cut behind the shriek cells at stratum r+m as a
    Speh_m block: its positions become singletons, a2 keeps its segments,
    an a2 segment ending just below the block on its row joins it (+1) or
    breaks from it (-1), and a2 holding a block position or meeting it
    across rows kills the term.  The weight is the column parity (-1)^{i_m}
    times the peel sign, (-1)^(kept a1 pieces - 1) (1 with none kept),
    flipped when the peel cuts a piece; xi2 = i_m - m compensates the Tate
    twist.  T_0 is the cells' summed a2 shapes.  Below stratum 0 or above
    s t the sum is empty; the tests run this calculus position by position.

    For s, t >= 2 every T_m with m >= 1 vanishes, so the sum is T_0.
    Row j has the doubled start a_j = a_0 + 2j, a_0 = 2 - s - t, and end
    e_j = a_j + 2(t-1).  A run cut's bottom piece is the top k_1 of row j_1,
    and its lowest position p = e_(j_1) - 2(k_1 - 1) lies in every peeled
    block; the block survives only when no a2 segment holds p and no
    junction at its ends crosses rows.  By the cases of (j_1, k_1):

    - j_1 >= 1 and k_1 >= 2: the chain rises from row j_1, so all of row
      j_1 - 1, [a_(j_1) - 2, e_(j_1) - 2], is in a2; it holds p.
    - k_1 = 1 with j_1 < s-1, or j_1 = 0 with k_1 < t: the a2 part of row
      j_1 + 1 holds [a_(j_1) + 2, e_(j_1)], which holds p.  It is the
      whole row, or, when row j_1 + 1 is the next chain row (its forced k
      is 1), that interval.
    - j_1 = 0 and k_1 = t: p = a_0, and the a2 part of row 1 starts at
      p + 2.  It lies inside the block when m >= 2, and is a junction
      across rows when m = 1.
    - j_1 = s-1 and k_1 = 1: the rank is 1, and the a2 rows s-2 and s-1
      overlap.

    One row (s = 1): stratum R = r+m in 1..t marks one cell, i_m = R - t,
    with one cut: the top R positions, sign 1, and a2 = [a_0, a_0 + 2(t-R-1)].
    The weight (-1)^(m + i_m) = (-1)^(r-t) and xi2 = r - t do not depend on
    m; the peel sign is -1 for R > m, +1 for R = m.  The block gives J_m - B_m,
    joined and broken, for R < t, and S, the t-r singletons from a_0, for
    R = t.  B_m = J_(m+1) (a2 of length t-R, m singletons above) and B_m = S
    at R = t-1: for 1 <= r < t the sum (-1)^(r-t) (J_1 - (J_1 - B_1) - ... - S)
    telescopes to 0, and for r = t only T_0 is left, the unit at xi2 = 0.
    At r = 0 (no cell, peel signs +1, weight (-1)^t, xi2 = -t) J_1 is left.

    One column (t = 1, row j the position a_0 + 2j): stratum R in 1..s marks
    one cell, i_m = s - R, with one cut: rows 0..R-1 in a1, sign (-1)^(R-1).
    Peeling m < R keeps R - m whole pieces, sign (-1)^(R-m-1), and no a2
    segment meets the block: T_m is the singletons of the rows outside
    m..R-1 at xi2 = s - r - 2m, weighed (-1)^(s-1), for m in 0..s-r.
    Peeling m = R leaves a2 row R just above the block, across rows, unless
    R = s: at r = 0 only T_s, the s singletons at xi2 = -s, is left, with
    (-1)^s.  So at r = 0 either block leaves itself at xi2 = -s t, (-1)^(s t).
    """
    if r < 0 or r > s * t:
        return ()
    if s > 1 and t > 1:  # T_0 alone: every peeled block vanishes
        return _alternating_sum((i_m, sums) for _, i_m, sums in marked_cells(s, t, r, "N", groups))
    a0 = 2 - s - t
    if r == 0:  # the whole block
        shape = ((a0, t),) if s == 1 else tuple((a0 + 2 * j, 1) for j in range(s))
        return (((shape, -s * t), (-1) ** (s * t)),)
    if s == 1:  # the telescoped row
        return ((((), 0), 1),) if r == t else ()
    terms: dict[TermKey, int] = {}
    for m in range(s - r + 1):  # one column: one shape per m
        shape = tuple((a0 + 2 * j, 1) for j in range(s) if not m <= j < r + m)
        terms[shape, s - r - 2 * m] = (-1) ** (s - 1)
    return frozen_terms(terms)


def euler_master_identity(s: int, t: int, r: int) -> bool:
    """The master sign oracle for the block of shape (s, t) and one stratum.

    Compares the two label-free integer sums: binding to the line of any
    cuspidal pi is injective (a multisegment on one cuspidal sorts by (start, length)), so
    they agree exactly when ``cohomology.euler_intermediate`` and
    ``cohomology.euler_shriek_expansion`` do.  Both sides read one uncached walk of the
    stratum, so a sweep over strata keeps nothing.  Its domain is r >= 1:
    at r = 0 it is False on every one-row and one-column block and True for
    s, t >= 2 (see ``euler_oracle_violations``, which catalogues where it fails).
    """
    groups = rectangle_shape_groups.__wrapped__(s, t, r)
    return _euler_core(s, t, r, groups) == _shriek_core(s, t, r, groups)


def euler_shape_established(s: int, t: int) -> bool:
    """Shapes where the master identity is exact at every stratum r >= 1.

    One-row and one-column blocks (the cases the source combinatorics treats
    directly) and square blocks: ``euler_oracle_violations`` proves it.  On a
    non-square mixed rectangle the identity fails at r = 1 .. max(s, t) - 1,
    because the sheared shriek column starts below the M column when s < t
    and above it when s > t; those strata are reported by
    euler_oracle_violations rather than silently resolved.
    """
    return s == 1 or t == 1 or s == t


def euler_oracle_violations(max_sum: int) -> list[tuple[int, int, int]]:
    """Every (s, t, r) with s + t <= max_sum and r >= 1 where the master identity fails.

    They are the proved rule 2 <= s != t >= 2 and 1 <= r <= max(s, t) - 1,
    listed by s, t, r; the tests compare the list with the sum-based
    ``euler_master_identity``.  Stratum 0 is outside the catalogue: there
    the identity fails on every one-row and one-column block, whose shriek
    side leaves the whole block while the M diagram has no column 0, and
    holds for s, t >= 2, where both sides are empty.

    The proof.  Ranges step by 2; b = s - 1 - |t - r|.  The bottom piece of
    a run cut at rank r is the top k_1 of row j_1, with 1 <= k_1 <= min(t, r)
    and j_1 + r - k_1 <= s - 1 (``_run_cuts``), and its center gives
    i_m = -center2 = s - t - r - 1 + 2 (k_1 - j_1).  As k_1 - j_1 takes every
    value in r - s + 1 .. min(t, r), for 1 <= r <= s + t - 1 the centers with
    a cut are exactly i_m = r - s - t + 1 .. b; above s + t - 1 there are
    none.  The M column, -b .. b, has their parity and meets them on
    |t - r| - s + 1 .. b.  The sheared N column, i_m = 2 i + r - (s + t - 1),
    meets them on |s - r| - t + 1 .. b, which is empty only for r >= s + t.

    For s, t >= 2 each side is the sum over its range of (-1)^(i_m) times
    the group at center2 = -i_m (``_shriek_core``).  Groups of different
    centers have different xi2, so they never cancel, and the group of a
    center with a cut is never empty (``rectangle_shape_groups``).  So the
    sides are equal exactly when both ranges start at the same place, as
    they do where both are empty: when |t - r| + t = |s - r| + s, that is
    when s = t or r >= max(s, t).

    For s = 1 or t = 1 and r >= 1, ``_shriek_core``'s closed forms are the
    M cells, term for term: on one row the unit at r = t, the only r where
    the M column is nonempty; on one column the cell i = s - r - 2m reads
    rows m .. m + r - 1, with sign (-1)^(s-1).
    """
    return [
        (s, t, r)
        for s in range(1, max_sum)
        for t in range(1, max_sum + 1 - s)
        if not euler_shape_established(s, t)
        for r in range(1, max(s, t))
    ]


# ---------------------------------------------------------------------------
# inclusion-exclusion over ramification sets
# ---------------------------------------------------------------------------


def inclusion_exclusion_ramified(s1_size_max: int) -> bool:
    """Symbolic telescoping of the ramification-set recurrence.

    The level identity for a set S1 of auxiliary places reads
    n + sum_{empty != S subset S1} m_S = n' + sum m'_S, where m_S counts the
    families ramified exactly at S.  Solving the identities size by size
    pins every difference m_S - m'_S to (-1)^{|S|} (n - n'), the binomial
    cancellation; the solved recurrence and the closed form are compared
    exactly in the symbolic ring up to the requested size.  Size 0 is the
    base identity itself.
    """
    if s1_size_max < 0:
        raise ValueError("size bound must be >= 0")
    n, n2 = atom("n"), atom("n'")
    diffs: dict[int, SymExpr] = {}
    for size in range(1, s1_size_max + 1):
        solved = n2 - n
        for k in range(1, size):
            solved = solved - integer(comb(size, k)) * diffs[k]
        diffs[size] = solved
        closed = (n - n2) if size % 2 == 0 else (n2 - n)
        if solved != closed:
            return False
        # the derived congruence identity at this size: with
        # m_S = m'_S + D_size, the signed difference recovers n' - n
        m2 = atom(f"m'[{size}]")
        m1 = m2 + solved
        signed = (m2 - m1) if size % 2 == 0 else (m1 - m2)
        if signed != (n2 - n):
            return False
    return True
