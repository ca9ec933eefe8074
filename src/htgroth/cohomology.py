"""Cohomology tables, stratified base-change identities, torsion and balance.

A spectrum profile is user input: finitely many entries, each declaring that
automorphic representations with a given rectangle block Speh_s(St_t) at the
distinguished place exist with some (opaque) total multiplicity.  The package
then derives what the stratified bookkeeping forces: the degree-resolved tables
of the intermediate and shriek extensions, the Euler-characteristic identity
tying them together, mod-l balance constraints across cuspidal towers, and
torsion certificates.

The tables and the Euler sums bind the label-free sums of
:mod:`htgroth.cells`, where the degree conventions (``marked_cells``), the
round trip of the base changes and the master identity with its proof
(``euler_master_identity``, ``euler_oracle_violations``) live; this module
re-exports them.  The profile Euler sums and ``euler_intermediate`` and
``euler_shriek_expansion`` read each side from one cache, ``_euler_side``,
for every label alike, and bind each surviving term to the line of pi
once.  A table keeps the profile entries on the line of pi with their
weights and walks no cell until a caller first reads its rows; it then
binds them cell by cell through :func:`htgroth.jl_red.bind_shapes`.  One
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
from operator import itemgetter

# the label-free round trip and Euler identity, re-exported here under their old paths
from .cells import (
    Terms,
    _euler_core,
    _shriek_core,
    check_hij,
    check_se2,
    euler_master_identity,
    euler_oracle_violations,
    euler_shape_established,
    hij_expand,
    inclusion_exclusion_ramified,
    marked_cells,
    se2_expand,
)
from .jl_red import bind_shapes
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
    ``ProfileEntry._of2(s, t, cuspidal, mult, xi2, markers)`` builds one
    with no tail from checked fields and the doubled twist, unchecked.
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
        self._set(s, t, cuspidal, mult, twice(xi), tail, markers)

    def _set(self, s, t, cuspidal, mult, xi2, tail, markers) -> "ProfileEntry":
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "cuspidal", cuspidal)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "xi2", xi2)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "markers", markers)
        return self

    @classmethod
    def _of2(
        cls, s: int, t: int, cuspidal: CuspidalLabel, mult: SymExpr, xi2: int, markers: frozenset[str]
    ) -> "ProfileEntry":
        return object.__new__(cls)._set(s, t, cuspidal, mult, xi2, IrreducibleLabel.unit(), markers)

    @property
    def xi(self) -> Fraction:
        return half(self.xi2)


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

    ``CohomologyTable(rows)`` holds its rows.  A table built by
    ``coh_intermediate`` or ``coh_shriek`` holds its profile entries
    instead, as (pi, r, kind, the entries on pi's line with their weights),
    and binds them into rows the first time ``rows`` is read; everything
    public reads ``rows``, so both kinds compare, print, copy and pickle
    alike.  ``conj2_predicate`` collapses the entries unbound.
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


def coh_intermediate(profile: SpectrumProfile, pi: CuspidalLabel, r: int) -> CohomologyTable:
    """Degree-resolved intermediate-extension table at stratum r, unbound.

    Keeps the entries on the line of ``pi`` with their weights
    (``_line_entries``) and walks no cell.  Reading the table's rows binds
    them, once, entry by entry over the cells their diagram marks in column
    r (``marked_cells``), through ``bind_shapes``: the sum of the cell
    values bound with twist and tail, times the symbolic weight and the
    global scalar.
    """
    return CohomologyTable._of_parts(pi, r, "M", _line_entries(profile, pi))


def coh_shriek(profile: SpectrumProfile, pi: CuspidalLabel, r: int) -> CohomologyTable:
    """Degree-resolved shriek-extension table at stratum r, unbound as ``coh_intermediate``'s.

    Same cut data as the intermediate table, indexed through the sheared
    degrees of the shriek diagram; the twist exponent of a cell equals the
    intermediate exponent of the cut behind it.
    """
    return CohomologyTable._of_parts(pi, r, "N", _line_entries(profile, pi))


# ---------------------------------------------------------------------------
# the Euler sums of blocks and profiles
# ---------------------------------------------------------------------------


# Saves ~15 us per `tables` Euler check (4,131 hits and 109 misses a side over 8,192 ops, seed 1).
@lru_cache(maxsize=1024)
def _euler_side(core, s: int, t: int, r: int) -> Terms:
    """``core(s, t, r)``, ``core`` being ``_euler_core`` or ``_shriek_core``: a side the profile sums read."""
    return core(s, t, r)


def euler_intermediate(entry: ProfileEntry, pi: CuspidalLabel, r: int) -> GrothElement:
    """Alternating sum of the intermediate table of one block at stratum r."""
    return bind_shapes(pi, _euler_side(_euler_core, entry.s, entry.t, r))


def euler_shriek_expansion(entry: ProfileEntry, pi: CuspidalLabel, r: int) -> GrothElement:
    """The se2-expanded Euler characteristic built from shriek-side data."""
    return bind_shapes(pi, _euler_side(_shriek_core, entry.s, entry.t, r))


def _profile_euler(profile: SpectrumProfile, pi: CuspidalLabel, core, r: int) -> GrothElement:
    """Sum over the entries on pi's line of ``core``'s side at stratum r, bound with twist, tail and weight."""
    row: dict = {}
    for entry, (weight, _) in _line_entries(profile, pi):
        bind_shapes(pi, _euler_side(core, entry.s, entry.t, r), entry.xi2, entry.tail, weight, row)
    return GrothElement._checked(row)


def euler_intermediate_profile(profile: SpectrumProfile, pi: CuspidalLabel, r: int) -> GrothElement:
    """Euler characteristic of the full intermediate table of a profile, built entry by entry."""
    return _profile_euler(profile, pi, _euler_core, r)


def euler_shriek_profile_expansion(
    profile: SpectrumProfile, pi: CuspidalLabel, r: int
) -> GrothElement:
    """Profile-level se2 expansion assembled from shriek-side data.

    Dresses the per-block expansion with the entry twist, tail and weight, so
    equality with the intermediate Euler characteristic exercises linearity,
    twists and products too.
    """
    return _profile_euler(profile, pi, _shriek_core, r)


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


# ---------------------------------------------------------------------------
# mod-l stability of full tables
# ---------------------------------------------------------------------------


def _collapsed_rows(table: CohomologyTable, lifts: LiftMap) -> dict[int, dict]:
    """Degree -> the nonzero mod-l classes of its row, each an integer vector over monomials.

    The class keys are those of ``rl_collapse``, and a class's vector is its
    coefficient's {monomial: int}, zeros dropped; a degree whose classes all
    cancel is left out, on both kinds of table.  A table built from rows
    collapses them with ``rl_collapse``.  A table from ``coh_shriek`` or
    ``coh_intermediate`` stays unbound: each entry reads its column's cached integer classes
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
