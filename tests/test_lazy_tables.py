"""Tables that stay label-free until a row is read, and their unbound mod-l collapse.

``coh_shriek`` and ``coh_intermediate`` return tables that hold the
profile entries on the line of pi with their weights, walk no cell, and
bind the entries on the first read of a row.  The binding of the eager
tables (``eager_table``) is the oracle of their values, ``rl_collapse``
of a bound row the oracle of the unbound collapse that ``conj2_predicate``
reads, and ``oracle_conj2``, the predicate on bound rows degree by degree,
the oracle of ``conj2_predicate`` itself.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from htgroth import cohomology, jl_red
from htgroth.cohomology import (
    CohomologyTable,
    ProfileEntry,
    SpectrumProfile,
    _collapsed_rows,
    _line_entries,
    _weight,
    coh_intermediate,
    coh_shriek,
    conj2_predicate,
)
from htgroth.jl_red import bind_shapes, marked_cells
from htgroth.modl import (
    FieldData,
    SupercuspidalData,
    TowerLevel,
    cuspidal_lifts,
    rl_collapse,
    tower_cuspidal,
)
from htgroth.segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    OpaqueFactor,
    speh_st_multisegment,
    steinberg_multisegment,
)
from htgroth.symbolic import SymExpr, atom, integer

from euler_oracles import table_euler

SC = SupercuspidalData(CuspidalLabel("rho"), FieldData(2, 3), 2)  # g_u = 1, 2, 6, 18 for u = -1..2
SIGMA = CuspidalLabel("sigma")  # never lifted
TABLES = {"M": coh_intermediate, "N": coh_shriek}
# names repeat and signs differ, so entries can cancel row by row; some weights have two monomials
MULTS = (
    atom("m"), -atom("m"), integer(2) * atom("n"), atom("m") * atom("n"), integer(3), integer(0),
    atom("m") - integer(2) * atom("n"), atom("n") + integer(1),
)


def eager_table(profile, pi, r, kind):
    """The table as it was built before the parts: every cell bound into its row at once."""
    rows: dict = {}
    for entry in profile:
        if entry.cuspidal != pi:
            continue
        weight = _weight(entry.mult, pi.e_pi)[0]
        for degree, _, sums in marked_cells(entry.s, entry.t, r, kind):
            if sums:
                bind_shapes(pi, sums, entry.xi2, entry.tail, weight, rows.setdefault(degree, {}))
    return CohomologyTable({i: GrothElement._checked(row) for i, row in rows.items()})


def marked_degrees(table):
    """The degrees of the cells with nonzero sums that an unbound table's entries mark."""
    _, r, kind, entries = table._parts
    return {
        degree
        for entry, _ in entries
        for degree, _, sums in marked_cells(entry.s, entry.t, r, kind)
        if sums
    }


def tails(pi):
    """A unit, an opaque and two multisegment tails, on pi's line and on lines off the lift map."""
    return (
        IrreducibleLabel.unit(),
        IrreducibleLabel((OpaqueFactor("tau", 2),)),
        IrreducibleLabel((steinberg_multisegment(pi, 2), OpaqueFactor("tau", 0))),
        IrreducibleLabel((speh_st_multisegment(SIGMA, 2, 1),)),
    )


def steinberg_tail(pi):
    return IrreducibleLabel((steinberg_multisegment(pi, 2),))


def oracle_conj2(run_a, run_b, lifts_a, lifts_b):
    """``conj2_predicate`` as it read before the parts: rl_collapse of the bound rows, degree by degree."""
    for r in set(run_a) | set(run_b):
        table_a = run_a.get(r, CohomologyTable())
        table_b = run_b.get(r, CohomologyTable())
        for i in set(table_a.rows) | set(table_b.rows):
            if rl_collapse(table_a.degree(i), lifts_a) != rl_collapse(table_b.degree(i), lifts_b):
                return False
    return True


@st.composite
def table_problems(draw):
    """A lift line at level u in -1..2, lifted or raw, and a profile of 1-4 entries, some off it.

    Tails may sit on pi's line or on a twin lift of the same level, which
    collapses alike when both are lifted.
    """
    level = TowerLevel(SC, draw(st.integers(-1, 2)))
    pi, twin = cuspidal_lifts(level, 2)
    lifts = {pi.id: level, twin.id: level} if draw(st.booleans()) else {}
    tail_choices = tails(pi) + (steinberg_tail(pi), steinberg_tail(twin))
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.integers(1, 3))
        entries.append(
            ProfileEntry(
                s=s,
                t=draw(st.integers(1, 4 - s)),
                cuspidal=SIGMA if draw(st.integers(0, 4)) == 0 else pi,
                mult=draw(st.sampled_from(MULTS)),
                xi=Fraction(draw(st.integers(-1, 1)), 2),
                tail=draw(st.sampled_from(tail_choices)),
            )
        )
    if draw(st.booleans()):  # the negated first entry: every row it feeds cancels
        e = entries[0]
        tail = e.tail
        if draw(st.booleans()):  # Steinberg tails on the two lifts: the rows cancel after the collapse only
            e = entries[0] = ProfileEntry(e.s, e.t, e.cuspidal, e.mult, e.xi, steinberg_tail(pi))
            tail = steinberg_tail(twin)
        entries.append(ProfileEntry(e.s, e.t, e.cuspidal, -e.mult, e.xi, tail))
    return pi, lifts, SpectrumProfile(tuple(entries))


def strata(profile):
    return range(0, max(e.s * e.t for e in profile) + 2)


def as_symbolic(collapsed):
    return {i: {key: SymExpr(v) for key, v in classes.items()} for i, classes in collapsed.items()}


@settings(max_examples=150, deadline=None)
@given(problem=table_problems())
def test_unbound_collapse_matches_rl_collapse_of_the_rows(problem):
    # per (r, degree), on a lifted and on a raw line, with any tails and
    # twists, and rows that cancel: the classes conj2_predicate reads are
    # rl_collapse of the bound row, and no row is bound to find them
    pi, lifts, profile = problem
    for r in strata(profile):
        for kind, build in TABLES.items():
            table = build(profile, pi, r)
            collapsed = _collapsed_rows(table, lifts)
            assert table._rows is None  # still unbound
            degrees = marked_degrees(table) | set(table.rows)
            expected = {i: rl_collapse(table.degree(i), lifts) for i in degrees}
            assert as_symbolic(collapsed) == {i: c for i, c in expected.items() if c}, (r, kind)
            assert _collapsed_rows(CohomologyTable(table.rows), lifts) == collapsed
            unbound = build(profile, pi, r)
            for other in ({}, {r: CohomologyTable(table.rows)}, {r: copy.copy(build(profile, pi, r))}):
                assert conj2_predicate({r: unbound}, other, lifts, lifts) == oracle_conj2(
                    {r: table}, other, lifts, lifts
                )
            assert unbound._rows is None


def test_rows_that_cancel_collapse_to_nothing():
    level = TowerLevel(SC, 0)
    pi = cuspidal_lifts(level, 1)[0]
    tail = tails(pi)[2]
    entry = ProfileEntry(2, 2, pi, atom("m"), Fraction(1, 2), tail)
    twin = ProfileEntry(2, 2, pi, -atom("m"), Fraction(1, 2), tail)
    for r in range(1, 4):  # the strata where the block marks a shriek cell
        table = coh_shriek(SpectrumProfile((entry, twin)), pi, r)
        assert marked_degrees(table) and table.rows == {} and table.is_zero()
        assert _collapsed_rows(table, {pi.id: level}) == {}
        assert conj2_predicate({r: table}, {}, {pi.id: level}, {})


def test_rows_that_cancel_only_after_the_collapse_compare_as_zero():
    # two blocks of opposite mult whose tails are Steinberg segments on two
    # lifts of one level: the bound row is not zero, its collapse is, and
    # the unbound table, its copies and its pickles all compare as the
    # empty stratum, bound or not
    level = TowerLevel(SC, 0)
    pi, twin = cuspidal_lifts(level, 2)
    lifts = {pi.id: level, twin.id: level}
    entry = ProfileEntry(2, 2, pi, atom("m"), Fraction(1, 2), steinberg_tail(pi))
    other = ProfileEntry(2, 2, pi, -atom("m"), Fraction(1, 2), steinberg_tail(twin))
    profile = SpectrumProfile((entry, other))
    for r in range(1, 4):
        table = coh_shriek(profile, pi, r)
        assert _collapsed_rows(table, lifts) == {} and table._rows is None
        values = [copy.copy(table), copy.deepcopy(table), CohomologyTable(table.rows)]
        values += [pickle.loads(pickle.dumps(table, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert not table.is_zero()  # the rows themselves survive the binding
        for value in values:
            assert _collapsed_rows(value, lifts) == {}
            fresh = coh_shriek(profile, pi, r)
            assert conj2_predicate({r: fresh}, {r: value}, lifts, lifts)
            assert conj2_predicate({r: value}, {r: fresh}, lifts, lifts)
            assert conj2_predicate({r: value}, {}, lifts, lifts)
            assert conj2_predicate({}, {r: value}, lifts, lifts)
        assert conj2_predicate({r: coh_shriek(profile, pi, r)}, {}, lifts, lifts)
        # off the lift map the two lines stay apart, and so do the classes
        assert not conj2_predicate({r: table}, {}, {}, {})


def mutants(entry):
    """The entry with its mult, its block twist and its tail changed in turn."""
    yield ProfileEntry(entry.s, entry.t, entry.cuspidal, entry.mult + atom("k"), entry.xi, entry.tail)
    yield ProfileEntry(entry.s, entry.t, entry.cuspidal, entry.mult, entry.xi + 1, entry.tail)
    other = IrreducibleLabel((OpaqueFactor("kappa", 1),))
    yield ProfileEntry(entry.s, entry.t, entry.cuspidal, entry.mult, entry.xi, other)


def test_conj2_on_a_lazy_and_an_eager_table_and_their_mutants():
    # one table unbound, the other built from rows (the same rows, or a
    # mutant's): conj2_predicate agrees exactly when the rows collapse
    # alike, as the oracle reads them, on every stratum, empty ones too
    level = TowerLevel(SC, 0)
    lift_a, lift_b = cuspidal_lifts(level, 2)
    lifts = {lift_a.id: level, lift_b.id: level}
    told_apart = empty = 0
    for s, t in [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
        for r in range(0, s * t + 2):
            for tail in tails(lift_a)[:2]:
                entry_a = ProfileEntry(s, t, lift_a, atom("m"), Fraction(-1, 2), tail)
                entry_b = ProfileEntry(s, t, lift_b, atom("m"), Fraction(-1, 2), tail)
                lazy = coh_shriek(SpectrumProfile((entry_a,)), lift_a, r)
                eager = CohomologyTable(coh_shriek(SpectrumProfile((entry_b,)), lift_b, r).rows)
                assert conj2_predicate({r: lazy}, {r: eager}, lifts, lifts)
                assert conj2_predicate({r: eager}, {r: lazy}, lifts, lifts)
                if not _collapsed_rows(lazy, lifts):
                    empty += 1
                for mutant in mutants(entry_b):
                    bad = coh_shriek(SpectrumProfile((mutant,)), lift_b, r)
                    expected = oracle_conj2({r: lazy}, {r: bad}, lifts, lifts)
                    bad_eager, lazy_eager = CohomologyTable(bad.rows), CohomologyTable(lazy.rows)
                    assert conj2_predicate({r: lazy}, {r: bad_eager}, lifts, lifts) == expected
                    assert conj2_predicate({r: lazy_eager}, {r: bad}, lifts, lifts) == expected
                    assert conj2_predicate({r: lazy}, {r: bad}, lifts, lifts) == expected
                    told_apart += not expected
    assert told_apart == 3 * 26  # each mutant of each (s, t, r, tail) with nonzero classes
    assert empty > 0


def fresh_problem(tag):
    level = TowerLevel(SC, 1)
    lift_a, lift_b = (tower_cuspidal(level, id=f"rho[u=1]#{tag}.{x}") for x in "ab")
    lifts = {lift_a.id: level, lift_b.id: level}

    def profile(pi):
        shapes = [(2, 1, 1), (1, 3, -1), (2, 2, 0)]
        entries = (
            ProfileEntry(s, t, pi, atom(f"c{j}"), Fraction(x, 2)) for j, (s, t, x) in enumerate(shapes)
        )
        return SpectrumProfile(tuple(entries))

    return lift_a, lift_b, lifts, profile(lift_a), profile(lift_b)


def test_shriek_tables_and_conj2_build_no_label_on_fresh_lifts():
    # the tables of a towers problem and their comparison bind nothing: on
    # lift lines never seen before the line store is not read, and reading
    # the rows afterwards does bind, so the binding is deferred, not gone
    lift_a, lift_b, lifts, prof_a, prof_b = fresh_problem("warm")
    conj2_predicate(
        {r: coh_shriek(prof_a, lift_a, r) for r in range(1, 5)},
        {r: coh_shriek(prof_b, lift_b, r) for r in range(1, 5)},
        lifts,
        lifts,
    )
    lift_a, lift_b, lifts, prof_a, prof_b = fresh_problem("fresh")
    before = jl_red._line_store.cache_info()
    run_a = {r: coh_shriek(prof_a, lift_a, r) for r in range(1, 5)}
    run_b = {r: coh_shriek(prof_b, lift_b, r) for r in range(1, 5)}
    assert conj2_predicate(run_a, run_b, lifts, lifts)
    assert jl_red._line_store.cache_info() == before
    assert any(not table.is_zero() for table in run_a.values())
    assert jl_red._line_store.cache_info().misses > before.misses
    assert jl_red._line_store(lift_a._key)[2]  # the labels of the rows read


# ---------------------------------------------------------------------------
# value semantics: an unbound table is the eager table
# ---------------------------------------------------------------------------

VALUE_PI = CuspidalLabel("pi")
VALUE_PROFILE = SpectrumProfile(
    (
        ProfileEntry(2, 2, VALUE_PI, atom("m"), Fraction(1, 2), tails(VALUE_PI)[1]),
        ProfileEntry(1, 3, VALUE_PI, integer(2) * atom("n"), Fraction(-1, 2)),
        ProfileEntry(3, 1, VALUE_PI, atom("m")),
        ProfileEntry(3, 1, VALUE_PI, -atom("m")),  # cancels the one above
        ProfileEntry(2, 1, SIGMA, atom("m")),  # off the line
    )
)
VALUE_CASES = [(kind, r) for kind in TABLES for r in range(0, 6)]


def terms_in_order(table):
    return [(i, list(g.terms.items())) for i, g in table.rows.items()]


@pytest.mark.parametrize("kind, r", VALUE_CASES)
def test_unbound_table_reads_as_the_eager_table(kind, r):
    def fresh():
        return TABLES[kind](VALUE_PROFILE, VALUE_PI, r)

    eager = eager_table(VALUE_PROFILE, VALUE_PI, r, kind)
    table = fresh()
    rows = table.rows
    assert rows is table.rows and rows == eager.rows
    assert terms_in_order(table) == terms_in_order(eager)  # rows and terms in the same order
    assert all(not g.is_zero() for g in rows.values())  # zero rows pruned alike
    assert [fresh().degree(i) for i in range(-3, 8)] == [eager.degree(i) for i in range(-3, 8)]
    assert fresh().degrees() == eager.degrees()
    assert fresh().is_zero() == eager.is_zero()
    assert table_euler(fresh()) == table_euler(eager)
    assert fresh() == eager and eager == fresh() and fresh() == fresh()
    assert repr(fresh()) == repr(eager)
    copies = [copy.copy(fresh()), copy.deepcopy(fresh())]
    copies += [pickle.loads(pickle.dumps(fresh(), p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is CohomologyTable and y == eager and repr(y) == repr(eager)
        assert terms_in_order(y) == terms_in_order(eager)
    with pytest.raises(TypeError):
        hash(fresh())


@pytest.mark.parametrize("kind", TABLES)
def test_degree_builds_an_element_only_for_a_missing_degree(kind, monkeypatch):
    # a nonzero table's degree returns its row; the zero is built only off the support
    table = TABLES[kind](VALUE_PROFILE, VALUE_PI, 2)
    rows = table.rows
    assert rows
    built = []
    original = GrothElement.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GrothElement, "__init__", counting)
    assert all(table.degree(i) is rows[i] for i in table.degrees()) and not built
    assert table.degree(min(rows) - 1).is_zero() and len(built) == 1


def test_the_value_cases_cover_cancelled_and_empty_tables():
    # a stratum where a marked cell cancels, and one with no marked cell at
    # all; every table holds the entries on pi's line with their weights
    tables = {(kind, r): TABLES[kind](VALUE_PROFILE, VALUE_PI, r) for kind, r in VALUE_CASES}
    on_line = tuple((e, _weight(e.mult, VALUE_PI.e_pi)) for e in VALUE_PROFILE if e.cuspidal == VALUE_PI)
    assert all(t._parts == (VALUE_PI, r, kind, on_line) for (kind, r), t in tables.items())
    with_zero = SpectrumProfile(VALUE_PROFILE.entries + (ProfileEntry(2, 1, VALUE_PI, integer(0)),))
    assert coh_shriek(with_zero, VALUE_PI, 2)._parts[3] == on_line  # a zero weight is left out
    assert any(len(t.rows) < len(marked_degrees(t)) for t in tables.values())
    assert any(not marked_degrees(t) for t in tables.values())
    assert any(len(t.rows) > 1 for t in tables.values())


@pytest.mark.parametrize("bound", [False, True])
def test_unbound_table_refuses_assignment_and_deletion(bound):
    table = coh_shriek(VALUE_PROFILE, VALUE_PI, 2)
    if bound:
        table.rows
    for name in ("rows", "_rows", "_parts", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(table, name, {})
        with pytest.raises(AttributeError):
            delattr(table, name)
    assert table == eager_table(VALUE_PROFILE, VALUE_PI, 2, "N")


def fresh_value_profile():
    return SpectrumProfile(tuple(ProfileEntry(*entry._astuple()) for entry in VALUE_PROFILE))


def test_line_entries_are_read_once_per_profile_and_line(monkeypatch):
    calls = []

    def counting_weight(mult, e_pi):
        calls.append(mult)
        return _weight(mult, e_pi)

    monkeypatch.setattr(cohomology, "_weight", counting_weight)
    profile = fresh_value_profile()
    first = _line_entries(profile, VALUE_PI)
    assert type(first) is tuple and len(calls) == 4  # the entries on the line
    assert _line_entries(profile, VALUE_PI) is first and len(calls) == 4
    tables = [coh_shriek(profile, VALUE_PI, r) for r in range(1, 4)]
    tables.append(coh_intermediate(profile, VALUE_PI, 2))
    assert all(t._parts[3] is first for t in tables) and len(calls) == 4
    assert _line_entries(fresh_value_profile(), VALUE_PI) == first and len(calls) == 8


def test_line_entries_tell_labels_of_one_id_apart():
    # the same id with another e_pi is another line, with its own entries and weights
    pi2 = CuspidalLabel(VALUE_PI.id, e_pi=2)
    profile = SpectrumProfile(VALUE_PROFILE.entries + (ProfileEntry(1, 2, pi2, atom("m")),))
    on_pi = _line_entries(profile, VALUE_PI)
    on_pi2 = _line_entries(profile, pi2)
    assert [e.cuspidal for e, _ in on_pi] == [VALUE_PI] * 4
    assert on_pi2 == ((profile.entries[-1], _weight(atom("m"), 2)),)
    assert _line_entries(profile, VALUE_PI) is on_pi and _line_entries(profile, pi2) is on_pi2
    assert coh_shriek(profile, pi2, 1) == eager_table(profile, pi2, 1, "N")


def test_line_entries_are_no_part_of_the_profile_value():
    read = fresh_value_profile()
    for r in range(1, 4):
        coh_shriek(read, VALUE_PI, r)
    _line_entries(read, SIGMA)
    unread = fresh_value_profile()
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert "_on_line" not in repr(read)
    copies = [copy.copy(read), copy.deepcopy(read)]
    copies += [pickle.loads(pickle.dumps(read, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is SpectrumProfile and y == read and hash(y) == hash(read)
        for kind, r in VALUE_CASES:
            assert TABLES[kind](y, VALUE_PI, r) == TABLES[kind](read, VALUE_PI, r)
    for name in ("_on_line", "entries"):
        with pytest.raises(AttributeError):
            setattr(read, name, {})
        with pytest.raises(AttributeError):
            delattr(read, name)
