"""Cohomology tables, stratified base-change identities, torsion and balance.

A spectrum profile is user input: finitely many entries, each declaring that
automorphic representations with a given rectangle block Speh_s(St_t) at the
distinguished place exist with some (opaque) total multiplicity.  The package
then derives what the stratified bookkeeping forces: the degree-resolved tables
of the intermediate and shriek extensions, the Euler-characteristic identity
tying them together, mod-l balance constraints across cuspidal towers, and
torsion certificates.

Degree conventions.  The intermediate table of a block is indexed by the
degrees i of the intermediate diagram, the shriek table by the sheared
degrees i_n = (i_m + s + t - 1 - r)/2 of the shriek diagram, so the twists
of the two tables coincide cut for cut and the vertex (s+t-1, 0) carries
one cell on both sides.  Both tables and both Euler sides read their cells
through :func:`htgroth.jl_red.marked_cells`, where the conventions live.

The master identity (the alternating-sum consequence of the two triangular
base changes) reads, per block and stratum r:

    sum_i (-1)^i [intermediate table](r)[i]
        = sum_{m >= 0} (-1)^m * (attached shriek Euler term at stratum r+m)

``_shriek_core`` defines the attached terms, which peel m run positions off
the cuts behind the shriek cells, and sums them in closed form, peeling no
cut; the tests keep the peeling as its oracle.  These conventions are
frozen here.  Under them the identity holds at every stratum r >= 1 on
exactly the one-row, one-column and square blocks; on a non-square mixed
block it fails at r = 1 .. max(s, t) - 1, because the sheared shriek column
starts below the M column when s < t and above it when s > t, and the
groups of cuts between the two starts are left over.
``euler_oracle_violations`` proves this and lists those strata; the tests
check the list against the sums.

Both sides are integer sums that know no cuspidal label.  A term is keyed
by (shape, xi2): ``shape`` is the sorted tuple of (start2, length) of its
segments, positions doubled as in the cuts (the empty shape is the unit
label), and ``xi2`` is twice its Xi exponent; coefficients are plain ints.
Each side is computed once per (s, t, r) and cached, for every label alike.
``euler_intermediate`` and ``euler_shriek_expansion`` bind each surviving
term to the line of pi once; ``euler_master_identity`` compares the integer
sums themselves, since binding to one line is injective.  A table keeps
the profile entries on the line of pi with their weights and walks no
cell until a caller first reads its rows; it then binds them cell by cell
through :func:`htgroth.jl_red.bind_shapes`.  The profile Euler sums bind
one cached column per entry (``_euler_core``, or ``_shriek_core``).  One
cached label-free mod-l collapse per entry's column, ``_column_classes``,
reads each piece off its ``collapse_segment_key`` and gives each marked
cell its integer classes.  The balance signs them by (-1)^degree, and
``conj2_predicate`` adds them into the cell's degree, so comparing two
lifts binds no label.  Both sum the class integers times the entry's
weight into integer vectors over the weight monomials.  The balance feeds
both sides into one accumulator: each class holds, per side, such a vector
(the tower factor folded in) and the entries feeding it, and becomes a
constraint with its coefficients built once, unless it cancels on both
sides.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter

from .jl_red import TermKey, Terms, bind_shapes, frozen_terms, marked_cells
from .modl import (
    LiftMap,
    SupercuspidalData,
    chgt_cuspi_factor,
    collapse_label_key,
    collapse_segment_key,
    fraction_class_key,
    level_rank,
    line_key,
    rl_collapse,
)
from .segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    Value,
    half,
    require_int,
    twice,
)
from .symbolic import Immutable, SymExpr, atom, integer

KER1_ATOM = "ker1(Q,G)/d"


# ---------------------------------------------------------------------------
# profiles and tables
# ---------------------------------------------------------------------------


class ProfileEntry(Value):
    """One family of automorphic contributors with local block Speh_s(St_t).

    ``mult`` is the total symbolic weight m(Pi) d_xi(Pi_oo) of the family;
    ``xi`` the unramified twist tag of the block relative to the reference
    cuspidal, stored only doubled, in ``xi2``, which is no field; ``tail``
    the untouched complementary factor at the place.
    """

    _fields = ("s", "t", "cuspidal", "mult", "xi", "tail", "markers")
    __slots__ = ("s", "t", "cuspidal", "mult", "xi2", "tail", "markers")

    def __init__(
        self,
        s: int,
        t: int,
        cuspidal: CuspidalLabel,
        mult: SymExpr,
        xi: Fraction = Fraction(0),
        tail: IrreducibleLabel = IrreducibleLabel.unit(),
        markers: frozenset[str] = frozenset(),
    ):
        if require_int("s", s) < 1 or require_int("t", t) < 1:
            raise ValueError("s and t must be >= 1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "cuspidal", cuspidal)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "xi2", twice(xi))
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "markers", markers)

    @property
    def xi(self) -> Fraction:
        return half(self.xi2)

    @property
    def r(self) -> int:
        return self.s + self.t - 1


class SpectrumProfile(Value):
    """The entries of a spectrum profile, immutable.

    ``_on_line``, a slot outside the fields, maps the ``_key`` of each
    cuspidal pi asked about to its ``_line_entries``, computed on the first
    call for that line; equality, hash, repr, copy and pickle read
    ``entries`` only, so a copy starts with an empty map.
    """

    _fields = ("entries",)
    __slots__ = ("entries", "_on_line")

    def __init__(self, entries: tuple[ProfileEntry, ...]):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_on_line", {})

    def __iter__(self):
        return iter(self.entries)


class CohomologyTable(Immutable):
    """Finitely supported map degree -> Grothendieck element, immutable.

    ``CohomologyTable(rows)`` holds its rows.  A table built by ``_table``
    holds its profile entries instead, as (pi, r, kind, the entries on pi's
    line with their weights), and binds them into rows the first time
    ``rows`` is read; everything public reads ``rows``, so both kinds
    compare, print, copy and pickle alike.  ``conj2_predicate`` collapses the entries unbound.
    """

    __slots__ = ("_rows", "_parts")

    def __init__(self, rows: dict[int, GrothElement] | None = None):
        pruned = {i: g for i, g in (rows or {}).items() if not g.is_zero()}
        object.__setattr__(self, "_rows", pruned)
        object.__setattr__(self, "_parts", None)

    @classmethod
    def _of_parts(cls, pi: CuspidalLabel, r: int, kind: str, entries: tuple) -> "CohomologyTable":
        table = object.__new__(cls)
        object.__setattr__(table, "_rows", None)
        object.__setattr__(table, "_parts", (pi, r, kind, entries))
        return table

    @property
    def rows(self) -> dict[int, GrothElement]:
        """Degree -> its nonzero row; the entries are bound cell by cell on the first read, and kept."""
        rows = self._rows
        if rows is None:
            pi, r, kind, entries = self._parts
            terms: dict[int, dict] = {}
            for entry, (weight, _) in entries:
                for degree, _, sums in marked_cells(entry.s, entry.t, r, kind):
                    bind_shapes(pi, sums, entry.xi2, entry.tail, weight, terms.setdefault(degree, {}))
            rows = {i: g for i, row in terms.items() if not (g := GrothElement._checked(row)).is_zero()}
            object.__setattr__(self, "_rows", rows)
        return rows

    def degree(self, i: int) -> GrothElement:
        row = self.rows.get(i)
        return GrothElement.zero() if row is None else row  # a default argument builds a zero per call

    def degrees(self) -> list[int]:
        return sorted(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        return isinstance(other, CohomologyTable) and self.rows == other.rows

    def __reduce__(self):
        return CohomologyTable, (self.rows,)

    def __repr__(self):
        if not self.rows:
            return "CohomologyTable(0)"
        lines = [f"  H^{i}: {g!r}" for i, g in sorted(self.rows.items())]
        return "CohomologyTable(\n" + "\n".join(lines) + "\n)"


# Saves ~35 us per `towers` op and ~14 us per `tables` op: few (mult, e_pi) pairs recur (6.6 us a call).
@lru_cache(maxsize=1024)
def _weight(mult: SymExpr, e_pi: int) -> tuple[SymExpr, tuple]:
    """``mult`` times the global scalar e_pi * ker1, and its sorted (monomial, int) items."""
    weight = mult * (integer(e_pi) * atom(KER1_ATOM))
    return weight, tuple(weight.items())


def _line_entries(
    profile: SpectrumProfile, pi: CuspidalLabel
) -> tuple[tuple[ProfileEntry, tuple], ...]:
    """The entries on the line of pi, each with its ``_weight``; an entry of weight zero is left out.

    Computed once per (profile, pi) and kept on the profile: every table and
    balance side of the profile on that line shares the one tuple.
    """
    on_line, line = profile._on_line, pi._key
    entries = on_line.get(line)
    if entries is None:
        entries = on_line[line] = tuple(
            (entry, weight)
            for entry in profile
            # a query's entries hold its pi itself: the identity test spares the __eq__ call
            if (entry.cuspidal is pi or entry.cuspidal == pi)
            and (weight := _weight(entry.mult, pi.e_pi))[1]
        )
    return entries


def _table(profile: SpectrumProfile, pi: CuspidalLabel, r: int, kind: str) -> CohomologyTable:
    """The intermediate ("M") or shriek ("N") table at stratum r, unbound.

    Keeps the entries on the line of ``pi`` with their weights
    (``_line_entries``) and walks no cell.  Reading the table's rows binds
    them, once, entry by entry over the cells their diagram marks in column
    r (``marked_cells``), through ``bind_shapes``: the sum of the cell
    values bound with twist and tail, times the symbolic weight and the
    global scalar.
    """
    return CohomologyTable._of_parts(pi, r, kind, _line_entries(profile, pi))


def coh_intermediate(profile: SpectrumProfile, pi: CuspidalLabel, r: int) -> CohomologyTable:
    """Degree-resolved intermediate-extension table at stratum r."""
    return _table(profile, pi, r, "M")


def coh_shriek(profile: SpectrumProfile, pi: CuspidalLabel, r: int) -> CohomologyTable:
    """Degree-resolved shriek-extension table at stratum r.

    Same cut data as the intermediate table, indexed through the sheared
    degrees of the shriek diagram; the twist exponent of a cell equals the
    intermediate exponent of the cut behind it.
    """
    return _table(profile, pi, r, "N")


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


# Saves ~1.6 us per `tables` op, from the op's Euler check; a fresh `verify` asks each key once.
@lru_cache(maxsize=1024)
def _euler_core(s: int, t: int, r: int) -> Terms:
    """The alternating sum of the intermediate table of the block, label-free.

    The cell of degree i adds its summed a2 shapes, keyed with the twist
    xi2 = i of the cuts behind it, with the sign (-1)^i.
    """
    return _alternating_sum((i, sums) for i, _, sums in marked_cells(s, t, r, "M"))


# Saves ~1.7 us per `tables` op, from the op's Euler check; a fresh `verify` asks each key once.
@lru_cache(maxsize=1024)
def _shriek_core(s: int, t: int, r: int) -> Terms:
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
        return _alternating_sum((i_m, sums) for _, i_m, sums in marked_cells(s, t, r, "N"))
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


def euler_intermediate(entry: ProfileEntry, pi: CuspidalLabel, r: int) -> GrothElement:
    """Alternating sum of the intermediate table of one block at stratum r."""
    return bind_shapes(pi, _euler_core(entry.s, entry.t, r))


def euler_shriek_expansion(entry: ProfileEntry, pi: CuspidalLabel, r: int) -> GrothElement:
    """The se2-expanded Euler characteristic built from shriek-side data."""
    return bind_shapes(pi, _shriek_core(entry.s, entry.t, r))


def euler_master_identity(s: int, t: int, r: int) -> bool:
    """The master sign oracle for the block of shape (s, t) and one stratum.

    Compares the two label-free integer sums: binding to the line of any
    cuspidal pi is injective (a multisegment on one cuspidal sorts by (start, length)), so
    they agree exactly when ``euler_intermediate`` and
    ``euler_shriek_expansion`` do.  Its domain is r >= 1: at r = 0 it is
    False on every one-row and one-column block and True for s, t >= 2
    (see ``euler_oracle_violations``, which catalogues where it fails).
    """
    return _euler_core(s, t, r) == _shriek_core(s, t, r)


def _profile_euler(profile: SpectrumProfile, pi: CuspidalLabel, column) -> GrothElement:
    """Sum over the entries on pi's line of ``column(s, t)``, bound with twist, tail and weight."""
    row: dict = {}
    for entry, (weight, _) in _line_entries(profile, pi):
        bind_shapes(pi, column(entry.s, entry.t), entry.xi2, entry.tail, weight, row)
    return GrothElement._checked(row)


def euler_intermediate_profile(profile: SpectrumProfile, pi: CuspidalLabel, r: int) -> GrothElement:
    """Euler characteristic of the full intermediate table of a profile, built entry by entry."""
    return _profile_euler(profile, pi, lambda s, t: _euler_core(s, t, r))


def euler_shriek_profile_expansion(
    profile: SpectrumProfile, pi: CuspidalLabel, r: int
) -> GrothElement:
    """Profile-level se2 expansion assembled from shriek-side data.

    Dresses the per-block expansion with the entry twist, tail and weight, so
    equality with the intermediate Euler characteristic exercises linearity,
    twists and products too.
    """
    return _profile_euler(profile, pi, lambda s, t: _shriek_core(s, t, r))


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
# degree support of the archimedean multiplicities
# ---------------------------------------------------------------------------


def dxi_support(s: int) -> set[int]:
    """Degrees with nonvanishing archimedean multiplicity: |i| < s, i != s mod 2."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return {i for i in range(-s + 1, s) if (i - s) % 2 != 0}


# ---------------------------------------------------------------------------
# torsion certificates
# ---------------------------------------------------------------------------


class TorsionCertificate(Value):
    """Outcome of the torsion criterion for a shriek/star extension pair.

    ``shriek_degree`` and ``star_degree`` are the torsion degrees of the !-
    and the *-extension; the last six fields are None when none is emitted.
    """

    __slots__ = _fields = (
        "d", "u_prime", "r_prime", "g_base", "g_up", "emitted",
        "r", "s", "s_prime", "i0_lower_bound", "shriek_degree", "star_degree",
    )

    def __init__(
        self, d: int, u_prime: int, r_prime: int, g_base: int, g_up: int, emitted: bool,
        r: int | None = None, s: int | None = None, s_prime: int | None = None,
        i0_lower_bound: int | None = None, shriek_degree: int | None = None, star_degree: int | None = None,
    ):
        super().__init__(
            d, u_prime, r_prime, g_base, g_up, emitted,
            r, s, s_prime, i0_lower_bound, shriek_degree, star_degree,
        )

    @property
    def lower_bound_only(self) -> bool:
        """Only a lower bound on i0 is ever certified."""
        return self.emitted


# Saves ~91 us per `towers` op: problems ask the same few certificates (30 hits per op, 3.3 us a call).
@lru_cache(maxsize=1024, typed=True)  # typed: a float or bool argument misses the int's entry
def torsion_detect(d: int, sc: SupercuspidalData, u_prime: int, r_prime: int) -> TorsionCertificate:
    """Certify torsion for the depth-r' extensions of the level-u' tower sheaf.

    A certificate is emitted exactly when r' g_{u'} <= d - g_{-1}; it then
    carries r = r' g_{u'} / g_{-1}, s = floor(d / g_{-1}), s' = floor(d / g_{u'}),
    checks the pivot inequality s - r > s' - r', and reports torsion in degree
    i0 >= s - r for the shriek extension and -i0 + 1 for the star extension.
    Only that lower bound is certified.  d, u' and r' must be ints; calls
    are cached, and a call that raises is not.
    """
    require_int("d", d)
    if require_int("r'", r_prime) < 1:
        raise ValueError("r' must be >= 1")
    if require_int("u'", u_prime) < 0:
        raise ValueError("the tower level u' must be >= 0")
    g_base = sc.g
    g_up = level_rank(sc, u_prime)
    emitted = r_prime * g_up <= d - g_base
    degrees = {}
    if emitted:
        if (r_prime * g_up) % g_base:
            raise ValueError("stratum ranks do not match across the tower")
        r = r_prime * g_up // g_base
        s = d // g_base
        s_prime = d // g_up
        if not (s - r > s_prime - r_prime):
            raise AssertionError("pivot inequality s - r > s' - r' failed")
        i0 = s - r
        degrees = dict(
            r=r, s=s, s_prime=s_prime, i0_lower_bound=i0, shriek_degree=i0, star_degree=-i0 + 1
        )
    return TorsionCertificate(
        d=d, u_prime=u_prime, r_prime=r_prime, g_base=g_base, g_up=g_up, emitted=emitted, **degrees
    )


# ---------------------------------------------------------------------------
# mod-l balance across tower levels
# ---------------------------------------------------------------------------


class CongruenceConstraint(Value):
    """One homogeneous linear equation between spectrum multiplicities.

    ``lhs_entries`` and ``rhs_entries`` are the (s, t, markers) of the
    entries feeding each side.
    """

    __slots__ = _fields = ("class_key", "lhs", "rhs", "lhs_entries", "rhs_entries")

    def holds(self) -> bool:
        return self.lhs == self.rhs

    def is_tautology(self) -> bool:
        return self.holds()


# Saves ~111 us per `towers` op: the balance and `conj2_predicate` share each column (3.2 us a call).
@lru_cache(maxsize=4096)
def _column_classes(s: int, t: int, r: int, kind: str, shift2: int, line: tuple, tail_key: tuple) -> tuple:
    """The integer mod-l classes of the cells of column r, label-free, as (degree, ((class key, c), ...)).

    One pair per cell that ``marked_cells`` marks for the M or N diagram,
    in its order: ``rl_collapse`` of the cell's sums bound with the twist
    shift2/2 to the line of ``line_key`` ``line``, lifted or not, with a
    tail of collapse key ``tail_key``.  Each piece is read off its
    ``collapse_segment_key``, and the class key is that of
    ``rl_collapse``.  No two cells of a column share a class key,
    since a cell's twist xi2 = i_m + shift2 differs from cell to cell; so
    the cells' classes signed by (-1)^degree are the collapse of the
    alternating column, which the balance reads, and each cell's are the
    collapse of its row, which ``conj2_predicate`` reads.
    """
    out = []
    for degree, _, sums in marked_cells(s, t, r, kind):
        classes: dict = {}
        for (shape, xi2), c in sums:
            pieces = tuple(collapse_segment_key(a + shift2, k, line) for a, k in shape)
            key = (tuple(sorted(tail_key + pieces)), xi2 + shift2)
            classes[key] = classes.get(key, 0) + c
        out.append((degree, tuple((key, c) for key, c in classes.items() if c)))
    return tuple(out)


# doubled-int class key -> its lhs and rhs sides, each (coefficient vector over the weight
# monomials, the (s, t, markers) of the entries feeding it)
BalanceAccumulator = dict[object, tuple[tuple[dict, list], tuple[dict, list]]]


def _balance_side(
    acc: BalanceAccumulator,
    side: int,
    profile: SpectrumProfile,
    pi: CuspidalLabel,
    r: int,
    lifts: LiftMap,
    factor: int,
) -> None:
    """Add ``factor`` times the mod-l classes of a profile's alternating shriek sum to ``acc``.

    ``side`` is 0 for the lhs, 1 for the rhs.  Linear in the entries: each
    entry's shriek column collapses label-free into integer classes
    (``_column_classes``, on or off the lift map alike), each class key is
    hashed once per entry, and its integer times (-1)^degree and the entry's
    weight is added monomial by monomial.  A zero weight adds no class and
    no provenance.
    """
    line = line_key(pi.id, lifts)
    for entry, (_, monomials) in _line_entries(profile, pi):
        weight = [(mono, w * factor) for mono, w in monomials]
        tail_key = collapse_label_key(entry.tail, lifts) if entry.tail.factors else ()
        source = (entry.s, entry.t, entry.markers)
        for degree, classes in _column_classes(entry.s, entry.t, r, "N", entry.xi2, line, tail_key):
            sign = -1 if degree % 2 else 1
            for key, c in classes:
                sides = acc.get(key) or acc.setdefault(key, (({}, []), ({}, [])))  # built on a miss
                vector, provenance = sides[side]
                for mono, w in weight:
                    vector[mono] = vector.get(mono, 0) + sign * c * w
                provenance.append(source)


# Saves ~22 us per `towers` op: fresh lift lines collapse onto shared keys (9.4 hits per op, 2.5 us a call).
@lru_cache(maxsize=4096)
def _public_key(key: tuple) -> tuple[str, tuple]:
    """The ``repr`` of the public class key of a doubled-int class key, and that key.

    A class key is collapsed onto the base line, so fresh lift lines share it.
    """
    class_key = fraction_class_key(key)
    return repr(class_key), class_key


def rl_hi_balance(
    profile_u: SpectrumProfile,
    profile_up: SpectrumProfile,
    sc: SupercuspidalData,
    u: int,
    u_prime: int,
    r: int,
    r_prime: int,
    pi_u: CuspidalLabel,
    pi_up: CuspidalLabel,
    lifts: LiftMap,
) -> list[CongruenceConstraint]:
    """Balance equations between two tower levels at matched strata.

    Forms the alternating shriek sums on both sides, collapses every label to
    its mod-l class under the configured lift relation, scales the lower
    level by the tower change factor, and emits one constraint per class
    that is nonzero on some side, with the entries feeding each side, in
    the order of the ``repr`` of their public class keys.  Both sides
    accumulate into one table on doubled-int keys; each coefficient is built
    once per call, and each public (``Fraction``) class key and its ``repr``
    once per process and doubled key (``_public_key``).
    """
    g_u, g_up = level_rank(sc, u), level_rank(sc, u_prime)
    if r * g_u != r_prime * g_up:
        raise ValueError("strata do not match: r g_u != r' g_{u'}")
    acc: BalanceAccumulator = {}
    _balance_side(acc, 0, profile_u, pi_u, r, lifts, chgt_cuspi_factor(u, u_prime, sc))
    _balance_side(acc, 1, profile_up, pi_up, r_prime, lifts, 1)
    keyed = []
    for key, ((vector_l, prov_l), (vector_r, prov_r)) in acc.items():
        lhs, rhs = SymExpr(vector_l), SymExpr(vector_r)
        if lhs or rhs:  # a class cancelled on both sides is no constraint
            text, class_key = _public_key(key)
            keyed.append((text, CongruenceConstraint(class_key, lhs, rhs, tuple(prov_l), tuple(prov_r))))
    keyed.sort(key=itemgetter(0))
    return [constraint for _, constraint in keyed]


MARKER_NONDEG_AUX = "nondegenerate-at-auxiliary-place"


class CongruenceRecord(Value):
    """A congruence constraint and its ``strength``, "strong" or "weak"."""

    __slots__ = _fields = ("constraint", "strength")


def strong_congruence_filter(constraints: list[CongruenceConstraint]) -> list[CongruenceRecord]:
    """Label constraints strong when both sides carry the auxiliary marker."""
    out = []
    for c in constraints:
        left = any(MARKER_NONDEG_AUX in mk for _, _, mk in c.lhs_entries)
        right = any(MARKER_NONDEG_AUX in mk for _, _, mk in c.rhs_entries)
        out.append(CongruenceRecord(c, "strong" if left and right else "weak"))
    return out


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


# ---------------------------------------------------------------------------
# mod-l stability of full tables
# ---------------------------------------------------------------------------


def _collapsed_rows(table: CohomologyTable, lifts: LiftMap) -> dict[int, dict]:
    """Degree -> the nonzero mod-l classes of its row, each an integer vector over monomials.

    The class keys are those of ``rl_collapse``, and a class's vector is its
    coefficient's {monomial: int}, zeros dropped; a degree whose classes all
    cancel is left out, on both kinds of table.  A table built from rows
    collapses them with ``rl_collapse``.  A table from ``_table`` stays
    unbound: each entry reads its column's cached integer classes
    (``_column_classes``, which the balance shares), and each cell's class
    integers times the entry's weight are added into its degree, monomial
    by monomial.  Binding is injective and the collapse linear, so both
    kinds of table give the same classes.
    """
    if table._parts is None:
        return {
            i: classes
            for i, g in table.rows.items()
            if (classes := {key: dict(expr.items()) for key, expr in rl_collapse(g, lifts).items()})
        }
    pi, r, kind, entries = table._parts
    line = line_key(pi.id, lifts)
    vectors: dict[int, dict] = {}
    for entry, (_, weight) in entries:
        tail_key = collapse_label_key(entry.tail, lifts) if entry.tail.factors else ()
        for degree, classes in _column_classes(entry.s, entry.t, r, kind, entry.xi2, line, tail_key):
            row = vectors.setdefault(degree, {})
            for key, c in classes:
                vector = row.get(key)
                if vector is None:
                    vector = row[key] = {}
                for mono, w in weight:
                    vector[mono] = vector.get(mono, 0) + c * w
    collapsed = {}
    for i, row in vectors.items():
        pruned = ((key, {m: c for m, c in v.items() if c}) for key, v in row.items())
        if classes := {key: v for key, v in pruned if v}:
            collapsed[i] = classes
    return collapsed


def conj2_predicate(
    run_a: dict[int, CohomologyTable],
    run_b: dict[int, CohomologyTable],
    lifts_a: LiftMap,
    lifts_b: LiftMap,
) -> bool:
    """Tables over two lifts agree class by class after mod-l collapse.

    Compares, stratum by stratum, the collapsed rows of ``_collapsed_rows``:
    the tables of ``coh_shriek`` and ``coh_intermediate`` are collapsed
    label-free and never bound here, a table built from rows through
    ``rl_collapse``, and the two kinds may meet.
    """
    empty = CohomologyTable()
    for r in set(run_a) | set(run_b):
        rows_a = _collapsed_rows(run_a.get(r, empty), lifts_a)
        if rows_a != _collapsed_rows(run_b.get(r, empty), lifts_b):
            return False
    return True
