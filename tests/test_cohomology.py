import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from htgroth import cohomology, jl_red, jsonio
from htgroth.diagrams import m_column_hull
from htgroth.jl_red import R_cell, marked_cells
from htgroth.cohomology import (
    KER1_ATOM,
    _balance_side,
    _collapsed_rows,
    _column_classes,
    _euler_core,
    _public_key,
    _shriek_core,
    CohomologyTable,
    CongruenceConstraint,
    ProfileEntry,
    SpectrumProfile,
    check_hij,
    check_se2,
    coh_intermediate,
    coh_shriek,
    conj2_predicate,
    dxi_support,
    euler_intermediate,
    euler_master_identity,
    euler_oracle_violations,
    euler_shape_established,
    euler_shriek_expansion,
    euler_shriek_profile_expansion,
    inclusion_exclusion_ramified,
    rl_hi_balance,
    strong_congruence_filter,
    MARKER_NONDEG_AUX,
    torsion_detect,
)
from htgroth.modl import (
    FieldData,
    SupercuspidalData,
    TowerLevel,
    chgt_cuspi_factor,
    collapse_label_key,
    collapse_segment_key,
    cuspidal_lifts,
    fraction_class_key,
    line_key,
    matched_strata,
    rl_collapse,
    rl_reduce,
    tower_rank,
)
from htgroth.segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    OpaqueFactor,
    half,
    make_steinberg,
    speh_st_multisegment,
    steinberg_multisegment,
)
from htgroth.symbolic import SymExpr, atom, integer

from euler_oracles import column_euler, table_euler
from htgroth_caches import clear_htgroth_caches, htgroth_caches

PI = CuspidalLabel("pi", g=1)


def sc_with(q, l, g=1, epsilon=1, id="rho"):
    return SupercuspidalData(CuspidalLabel(id, g=g), FieldData(q=q, l=l), epsilon)


class TestTables:
    def test_empty_profile_zero(self):
        profile = SpectrumProfile(())
        assert coh_intermediate(profile, PI, 1).is_zero()
        assert coh_shriek(profile, PI, 1).is_zero()

    def test_speh_entry_supersingular_degree_zero(self):
        profile = SpectrumProfile(
            (ProfileEntry(s=3, t=1, cuspidal=PI, mult=atom("m")),)
        )
        table = coh_intermediate(profile, PI, 3)
        assert table.degrees() == [0]

    def test_shriek_speh_antidiagonal(self):
        profile = SpectrumProfile(
            (ProfileEntry(s=4, t=1, cuspidal=PI, mult=atom("m")),)
        )
        for r in range(1, 5):
            table = coh_shriek(profile, PI, r)
            assert table.degrees() == [4 - r]

    def test_shriek_steinberg_degree_zero_rows(self):
        profile = SpectrumProfile(
            (ProfileEntry(s=1, t=4, cuspidal=PI, mult=atom("m")),)
        )
        for r in range(1, 5):
            assert coh_shriek(profile, PI, r).degrees() == [0]

    def test_off_line_entry_ignored(self):
        other = CuspidalLabel("other")
        profile = SpectrumProfile(
            (ProfileEntry(s=2, t=1, cuspidal=other, mult=atom("m")),)
        )
        assert coh_intermediate(profile, PI, 1).is_zero()

    def test_mult_atom_scales(self):
        p1 = SpectrumProfile((ProfileEntry(s=2, t=1, cuspidal=PI, mult=atom("m")),))
        p2 = SpectrumProfile(
            (ProfileEntry(s=2, t=1, cuspidal=PI, mult=atom("m") * 2),)
        )
        t1 = coh_intermediate(p1, PI, 2)
        t2 = coh_intermediate(p2, PI, 2)
        assert not t1.is_zero()
        assert {i: g + g for i, g in t1.rows.items()} == t2.rows

    def test_xi_must_be_half_integral(self):
        with pytest.raises(ValueError):
            ProfileEntry(s=2, t=1, cuspidal=PI, mult=atom("m"), xi=Fraction(1, 3))
        assert ProfileEntry(s=2, t=1, cuspidal=PI, mult=atom("m"), xi=1).xi == Fraction(1)

    def test_nonzero_degree_needs_deeper_source(self):
        # single entry with s + t - 1 == r: only degree 0 at its own stratum
        profile = SpectrumProfile(
            (ProfileEntry(s=2, t=2, cuspidal=PI, mult=atom("m")),)
        )
        assert coh_intermediate(profile, PI, 3).degrees() == [0]
        deeper = coh_intermediate(profile, PI, 2)
        assert set(deeper.degrees()) == {-1, 1}


# SHA-256 over the JSON rows of both tables at every stratum r in 1..max s*t,
# recorded from the per-table loops that jl_red.marked_cells replaced
PINNED_TABLE_DIGESTS = {
    "1x1": "0acf7c7db3c1d0db4bccaf0c45c3d0400fa5b0cff7483a717615424d059d8ba0",
    "1x2": "ed179b0ad3357e0926004b7ec185fb1bc5f80997fb220b8a8641cd53c62a4e21",
    "1x3": "0e51a6493bc8cc6f44e591d7d771012f5449a1134c9fb9ce6b471e10cbad5de7",
    "1x4": "2847ba0a75b8234ddba1ddac4b4b9db8d59899d4c3c22943a46dce2002b28e1d",
    "2x1": "95d72ccffc4b91e00a7aab3c362d5f160071fa814ee588ddec6f2ae875f9d13d",
    "2x2": "3de2084621b1fe4e14a472b765167f43eaa27f3036341bc3bcba75b5b59e4a18",
    "2x3": "d5740847dac969ee109b51831d43eb6fa97d378b289611cd635fbc442458f8f7",
    "2x4": "108ed93af944c780916b2da7e1944e4947c62a5ea949174f7dc42f337a7e270c",
    "3x1": "287a10c0b927c991cffe15d6726721afdaf516da3c7abd384aef4f0c6ab582e3",
    "3x2": "3c94adab25b5e46f4a200827ed846c0cdb56bde208a1a98e90dc8f3e977e82b7",
    "3x3": "f1bb32462a35906f324c234cd08849f6684a6be954cd5d7532dadc3591e92a11",
    "3x4": "4315edffd4b60fc764b39af5d5cd57bad84825b241813713aa418151501885c5",
    "4x1": "1cfe469ce6d1277abc18d54b617a15b0dbb2e029a85afed46e6d0b4258c07759",
    "4x2": "bd627819c4d3d24522481826770a8638178316496868ef3ea6dfe7698ead0232",
    "4x3": "c5799e28a74caa15c15327ef0d12305b1efa532d5c43df0dbd02098e177c7bcd",
    "4x4": "c37f87063822dfac410b65074f79c4d61797d4e8e6ce25583ea253b75bdff382",
    "mixed": "2b4e7e06c09a194b3c7b859173160e1a67888aadbcd241c6682bee401f2d757f",
}


def pinned_profiles():
    out = {
        f"{s}x{t}": (ProfileEntry(s=s, t=t, cuspidal=PI, mult=atom("m")),)
        for s in range(1, 5)
        for t in range(1, 5)
    }
    # a twisted block with an opaque tail, a second block, an off-line entry
    out["mixed"] = (
        ProfileEntry(
            s=2, t=3, cuspidal=PI, mult=atom("m"), xi=Fraction(1, 2),
            tail=IrreducibleLabel((OpaqueFactor("tau", 2),)),
        ),
        ProfileEntry(s=3, t=2, cuspidal=PI, mult=atom("n") * 2, xi=Fraction(-1)),
        ProfileEntry(s=2, t=2, cuspidal=CuspidalLabel("other"), mult=atom("k")),
    )
    return out


@pytest.mark.parametrize("name", sorted(PINNED_TABLE_DIGESTS))
def test_table_bytes_pinned(name):
    entries = pinned_profiles()[name]
    profile = SpectrumProfile(entries)
    digest = hashlib.sha256()
    for r in range(1, max(e.s * e.t for e in entries) + 1):
        for table in (coh_intermediate(profile, PI, r), coh_shriek(profile, PI, r)):
            payload = {str(i): jsonio.groth_to_json(table.degree(i)) for i in table.degrees()}
            digest.update(jsonio.dumps(payload).encode())
    assert digest.hexdigest() == PINNED_TABLE_DIGESTS[name]


class TestRoundTrip:
    def test_se2_hij_identity(self):
        for s in range(1, 9):
            for t in range(1, s + 1):
                assert check_se2(t, s)
                assert check_hij(t, s)

    def test_trivial_case(self):
        assert check_se2(5, 5)
        assert check_hij(5, 5)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            check_se2(3, 2)


class TestEulerOracle:
    def test_established_shapes_exact(self):
        for s in range(1, 7):
            for t in range(1, 8 - s):
                if not euler_shape_established(s, t):
                    continue
                for r in range(1, s * t + 1):
                    assert euler_master_identity(s, t, r), (s, t, r)

    @pytest.mark.parametrize("s, t", [(1, 3), (3, 1), (1, 1), (2, 2)])
    def test_below_stratum_zero_both_sides_are_empty(self, s, t):
        entry = ProfileEntry(s=s, t=t, cuspidal=PI, mult=integer(1))
        for r in range(-3, 0):
            assert euler_master_identity(s, t, r), (s, t, r)
            assert euler_shriek_expansion(entry, PI, r).is_zero()
            assert euler_shriek_profile_expansion(SpectrumProfile((entry,)), PI, r).is_zero()

    def test_violation_catalogue_is_exactly_nonsquare_mixed(self):
        violations = euler_oracle_violations(7)
        shapes = {(s, t) for s, t, _ in violations}
        for s, t in shapes:
            assert not euler_shape_established(s, t)
        for s in range(2, 6):
            for t in range(2, 6):
                if s + t <= 7 and s != t:
                    assert (s, t) in shapes

    def test_violation_catalogue_pinned_at_8(self):
        # the catalogue is the proved rule; the sums are its oracle, at 14 on
        # every rectangle with s + t <= 14 at every rank
        for max_sum, count in ((8, 42), (14, 390)):
            expected = [
                (s, t, r)
                for s in range(1, max_sum)
                for t in range(1, max_sum + 1 - s)
                for r in range(1, s * t + 1)
                if not euler_master_identity(s, t, r)
            ]
            assert len(expected) == count
            assert euler_oracle_violations(max_sum) == expected
            assert {(s, t) for s, t, _ in expected} == {
                (s, t)
                for s in range(2, max_sum - 1)
                for t in range(2, max_sum + 1 - s)
                if not euler_shape_established(s, t)
            }

    def test_stratum_zero_is_outside_the_catalogue(self):
        # at r = 0 the shriek side of a one-row or one-column block leaves the
        # whole block, and the M diagram has no column 0; for s, t >= 2 both
        # sides are empty
        for s in range(1, 8):
            for t in range(1, 9 - s):
                mixed = s >= 2 and t >= 2
                assert euler_master_identity(s, t, 0) == mixed, (s, t)
                assert _euler_core(s, t, 0) == ()
                assert bool(_shriek_core(s, t, 0)) != mixed, (s, t)

    def test_center_cut_counts_in_closed_form(self):
        # a run cut's bottom piece is the top k1 of row j1, with
        # 1 <= k1 <= min(t, r) and j1 + r - k1 <= s - 1, and its center is
        # i_m = s - t - r - 1 + 2 (k1 - j1); the forced ks above it compose
        # r - k1 into parts <= t: C_t(r - k1) cuts whose signs add to f_t(r - k1)
        def compositions(n, t):  # C_t(0..n)
            c = [1]
            for size in range(1, n + 1):
                c.append(sum(c[max(0, size - t):]))
            return c

        cases = 0
        for s in range(1, 13):
            for t in range(1, 14 - s):
                c_t = compositions(s * t + 1, t)
                for r in range(0, s * t + 2):
                    expected: dict[int, list[int]] = {}
                    for k1 in range(1, min(t, r) + 1):
                        for j1 in range(0, s - r + k1):
                            count = expected.setdefault(r + t + 1 - s - 2 * (k1 - j1), [0, 0])
                            count[0] += c_t[r - k1]
                            count[1] += {0: 1, 1: -1}.get((r - k1) % (t + 1), 0)
                    groups = jl_red.rectangle_shape_groups(s, t, r)
                    found = {c2: [len(sums), sum(c for _, c in sums)] for c2, sums in groups.items()}
                    assert found == expected, (s, t, r)
                    if 1 <= r <= s + t - 1:  # the centers the proof counts on
                        b = s - 1 - abs(t - r)
                        assert sorted(expected) == list(range(-b, s + t - r, 2)), (s, t, r)
                    cases += 1
        assert cases == 1521

    def test_residual_is_the_groups_between_the_column_starts(self):
        # for s, t >= 2, M - shriek is +-(-1)^(i_m) times the group at -i_m, for i_m
        # from the lower column start to the higher start - 2, capped at b; the
        # difference sits on the M side when s > t and on the shriek side when s < t
        violations = set(euler_oracle_violations(14))
        cases = 0
        for s in range(2, 13):
            for t in range(2, 15 - s):
                for r in range(1, s * t + 1):
                    diff = dict(_euler_core(s, t, r))
                    for key, c in _shriek_core(s, t, r):
                        diff[key] = diff.get(key, 0) - c
                    starts = sorted((abs(t - r) - s + 1, abs(s - r) - t + 1))
                    b = s - 1 - abs(t - r)
                    groups = jl_red.rectangle_shape_groups(s, t, r)
                    side = 1 if s > t else -1
                    expected = {
                        key: side * (-1) ** i_m * c
                        for i_m in range(starts[0], min(starts[1] - 2, b) + 1, 2)
                        for key, c in groups[-i_m]
                    }
                    assert {k: c for k, c in diff.items() if c} == expected, (s, t, r)
                    assert bool(expected) == ((s, t, r) in violations), (s, t, r)
                    cases += 1
        assert cases == 1639

    def test_catalogue_reads_no_cache(self):
        clear_htgroth_caches()
        assert len(euler_oracle_violations(30)) == 5278
        filled = [name for name, cache in htgroth_caches().items() if cache.cache_info().currsize]
        assert filled == []


# the two labels of the pinned Euler values: same id, told apart by g and e_pi
EULER_LABELS = {"g1": PI, "g3e2": CuspidalLabel("pi", g=3, e_pi=2)}
EULER_SIDES = {"intermediate": euler_intermediate, "shriek": euler_shriek_expansion}


def euler_grid():
    """Every block with s + t <= 8 (open shapes included), every r in 0..s*t+1."""
    for s in range(1, 8):
        for t in range(1, 9 - s):
            for r in range(0, s * t + 2):
                yield s, t, r


def _euler_bytes(x: GrothElement) -> bytes:
    """The sorted terms of an Euler value, with every segment's full label."""
    rows = []
    for (label, tw), c in x.sorted_terms():
        factors = [
            [(seg.cuspidal.id, seg.cuspidal.g, seg.cuspidal.e_pi, str(seg.start), seg.length)
             for seg in ms.segments]
            for ms in label.multisegments()
        ]
        rows.append((label.kind, factors, str(half(tw)), repr(c)))
    return repr(rows).encode()


# SHA-256 over the Euler values on euler_grid(), recorded before the Euler
# calculus moved to label-free integer shapes
PINNED_EULER_DIGESTS = {
    ("g1", "intermediate"): "d7f6926130057e99138bcf62e84a1b8c72a887982b4bf45401c9fec681bdeba9",
    ("g1", "shriek"): "3af858832bbe9a5863353c5284fbbcb80cfd1e320a595479adbe0de716b33820",
    ("g3e2", "intermediate"): "7aa98b5ace0b6b41765122e1cdd54ebc0be2d64d5b4259360243f30ee37c6db4",
    ("g3e2", "shriek"): "fa3fa928cc0e02760b1d680cacb9fbb2912545c2812cdd5534769b703ab3b48f",
}


@pytest.mark.parametrize("label,side", sorted(PINNED_EULER_DIGESTS))
def test_euler_values_pinned(label, side):
    pi, fn = EULER_LABELS[label], EULER_SIDES[side]
    digest = hashlib.sha256()
    for s, t, r in euler_grid():
        entry = ProfileEntry(s=s, t=t, cuspidal=pi, mult=atom("m"))
        digest.update(f"{s},{t},{r}:".encode() + _euler_bytes(fn(entry, pi, r)))
    assert digest.hexdigest() == PINNED_EULER_DIGESTS[label, side]


@pytest.mark.parametrize("label", sorted(EULER_LABELS))
def test_euler_intermediate_matches_table_path(label):
    # the block's Euler value, dressed with the global scalar, is the
    # alternating sum of its intermediate table
    pi = EULER_LABELS[label]
    scal = integer(pi.e_pi) * atom(KER1_ATOM)
    cases = 0
    for s, t, r in euler_grid():
        entry = ProfileEntry(s=s, t=t, cuspidal=pi, mult=integer(1))
        table = coh_intermediate(SpectrumProfile((entry,)), pi, r)
        assert euler_intermediate(entry, pi, r).scale(scal) == table_euler(table), (s, t, r)
        cases += 1
    assert cases == 266


@pytest.mark.parametrize("label", sorted(EULER_LABELS))
def test_euler_shriek_core_matches_table_path(label):
    # the label-free shriek Euler column, bound and dressed with the global
    # scalar, is the alternating sum of the block's shriek table
    pi = EULER_LABELS[label]
    scal = integer(pi.e_pi) * atom(KER1_ATOM)
    cases = 0
    for s, t, r in euler_grid():
        entry = ProfileEntry(s=s, t=t, cuspidal=pi, mult=integer(1))
        table = coh_shriek(SpectrumProfile((entry,)), pi, r)
        assert jl_red.bind_shapes(pi, column_euler(s, t, r, "N")).scale(scal) == table_euler(table), (s, t, r)
        cases += 1
    assert cases == 266


def test_clear_euler_caches_clears_every_cache():
    # the caches are found, not listed: a new one shows up in this set
    caches = htgroth_caches()
    assert sorted(caches) == [
        "cohomology._column_classes",
        "cohomology._euler_core",
        "cohomology._public_key",
        "cohomology._shriek_core",
        "cohomology._weight",
        "cohomology.torsion_detect",
        "diagrams._m_hull_columns",
        "jl_red._formal_label",
        "jl_red._segment",
        "jl_red._transfer_terms",
        "jl_red.rectangle_cuts",
        "jl_red.rectangle_shape_groups",
        "jsonio._coeff_text",
        "jsonio._label_at",
        "jsonio._read_coeff",
        "segments.half",
    ]
    sc, pi_u, pi_up, lifts, pu, pup = make_balanced_setup()
    rl_hi_balance(pu, pup, sc, 0, 0, 2, 2, pi_u, pi_up, lifts)
    conj2_predicate({2: coh_shriek(pu, pi_u, 2)}, {2: coh_shriek(pup, pi_up, 2)}, lifts, lifts)
    R_cell(2, 2, 2, 1, pi_u)
    jl_red.red_tau(pi_u, 1, GrothElement.of(make_steinberg(pi_u, 2)))
    euler_shriek_expansion(pu.entries[0], pi_u, 1)
    euler_master_identity(2, 2, 1)  # the calls above read only the shriek core
    torsion_detect(4, sc, 0, 1)
    m_column_hull(2, 2, 1)
    jsonio.dumps(R_cell(2, 2, 2, 1, pi_u))
    jsonio.sym_from_json("2*m")
    half(3)
    assert [name for name, cache in caches.items() if not cache.cache_info().currsize] == []
    clear_htgroth_caches()
    assert not any(cache.cache_info().currsize for cache in caches.values())


def test_conj2_reads_the_column_classes_the_balance_built():
    # one cache serves both collapses: after the balance of a profile pair
    # at (r, r'), comparing the shriek tables of the same profiles at those
    # strata hits every column it reads and builds none
    for u, u_prime, r, r_prime in [(0, 0, 2, 2), (-1, 0, 3, 1)]:
        clear_htgroth_caches()
        sc, pi_u, pi_up, lifts, pu, pup = make_balanced_setup(u, u_prime, ((3, 1), (1, 3), (2, 2)))
        assert rl_hi_balance(pu, pup, sc, u, u_prime, r, r_prime, pi_u, pi_up, lifts)
        before = _column_classes.cache_info()
        # under one key, so that both tables are collapsed whatever they read
        conj2_predicate({0: coh_shriek(pu, pi_u, r)}, {0: coh_shriek(pup, pi_up, r_prime)}, lifts, lifts)
        after = _column_classes.cache_info()
        assert after.misses == before.misses > 0, (u, u_prime)
        assert after.hits == before.hits + 6  # one column per entry, three entries a side


def test_a_class_whose_integers_cancel_in_a_cell_is_dropped(monkeypatch):
    # no real column is known to reach this (a search over s, t <= 5 found
    # none), so the columns are synthetic: on a lifted line two starts one
    # period apart fold into one class, whose integers cancel in the cell of
    # (2, 1), while (1, 2) holds that class alone
    sc, pi_u, pi_up, lifts, _, _ = make_balanced_setup()
    line = line_key(pi_u.id, lifts)
    period2 = 2 * lifts[pi_u.id].base.epsilon
    piece = collapse_segment_key(0, 1, line)
    assert collapse_segment_key(period2, 1, line) == piece
    here, a_period_on = (((0, 1),), 0), (((period2, 1),), 0)  # (shape, xi2): one segment of length 1
    columns = {  # (s, t) -> its cells (degree, i_m, sums)
        (2, 1): [(0, 0, ((here, 1), (a_period_on, -1)))],
        (1, 2): [(0, 0, ((here, 1),))],
    }
    monkeypatch.setattr(cohomology, "marked_cells", lambda s, t, r, kind: iter(columns.get((s, t), ())))
    clear_htgroth_caches()
    try:
        key = ((piece,), 0)
        assert _column_classes(2, 1, 1, "N", 0, line, ()) == ((0, ()),)
        assert _column_classes(1, 2, 1, "N", 0, line, ()) == ((0, ((key, 1),)),)
        cancelled = ProfileEntry(s=2, t=1, cuspidal=pi_u, mult=atom("m"))
        alone = ProfileEntry(s=1, t=2, cuspidal=pi_u, mult=atom("n"))
        profile = SpectrumProfile((cancelled, alone))
        # the balance reads the class from (1, 2) only: (2, 1) is no source of it
        (constraint,) = rl_hi_balance(profile, SpectrumProfile(()), sc, 0, 0, 1, 1, pi_u, pi_up, lifts)
        assert constraint.class_key == fraction_class_key(key)
        assert constraint.lhs_entries == ((1, 2, frozenset()),) and constraint.rhs_entries == ()
        # conj2_predicate finds no class in the cancelling column either
        assert _collapsed_rows(coh_shriek(SpectrumProfile((cancelled,)), pi_u, 1), lifts) == {}
        assert conj2_predicate({1: coh_shriek(SpectrumProfile((cancelled,)), pi_u, 1)}, {}, lifts, lifts)
        assert not conj2_predicate({1: coh_shriek(profile, pi_u, 1)}, {}, lifts, lifts)
    finally:
        clear_htgroth_caches()


def test_euler_cache_leaks_no_label():
    # the Euler sums are cached on (s, t, r) alone: a label asked for after
    # another must get its own segments, and the value a cold run computes
    grid = [(s, t, r) for s in range(1, 5) for t in range(1, 6 - s) for r in range(0, s * t + 2)]
    warm = {}
    for pi in (PI, CuspidalLabel("pi", g=3), CuspidalLabel("rho")):
        for s, t, r in grid:
            entry = ProfileEntry(s=s, t=t, cuspidal=pi, mult=atom("m"))
            for side, fn in EULER_SIDES.items():
                value = fn(entry, pi, r)
                for label, _ in value.terms:
                    for ms in label.multisegments():
                        assert all(seg.cuspidal == pi for seg in ms.segments), (pi, s, t, r)
                warm[pi, s, t, r, side] = value
    assert any(not value.is_zero() for value in warm.values())
    for (pi, s, t, r, side), value in warm.items():
        clear_htgroth_caches()
        entry = ProfileEntry(s=s, t=t, cuspidal=pi, mult=atom("m"))
        assert EULER_SIDES[side](entry, pi, r) == value, (pi, s, t, r, side)


def test_table_cache_leaks_no_label():
    # the tables bind the shape layer's sums, cached on (s, t, r) alone, on
    # every call: labels asked for in turn, with a twisted and tailed entry,
    # must each get the table a cold run computes
    tail = IrreducibleLabel(
        (OpaqueFactor("tail", 2), make_steinberg(CuspidalLabel("sigma"), 2).factors[0])
    )
    warm = {}
    for s, t in [(1, 3), (2, 2), (3, 1), (2, 3)]:
        for r in range(0, s * t + 2):
            for pi in (PI, CuspidalLabel("pi", g=3), CuspidalLabel("rho")):
                twisted = ProfileEntry(
                    s=s, t=t, cuspidal=pi, mult=atom("n"), xi=Fraction(3, 2), tail=tail
                )
                profile = SpectrumProfile(
                    (ProfileEntry(s=s, t=t, cuspidal=pi, mult=atom("m")), twisted)
                )
                for fn in (coh_intermediate, coh_shriek):
                    table = fn(profile, pi, r)
                    for value in table.rows.values():
                        for label, _ in value.terms:
                            cells = [ms for ms in label.multisegments() if ms not in tail.factors]
                            assert all(seg.cuspidal == pi for ms in cells for seg in ms), (s, t, r)
                    warm[fn, profile, pi, r] = table
    assert any(not table.is_zero() for table in warm.values())
    for (fn, profile, pi, r), table in warm.items():
        clear_htgroth_caches()
        assert fn(profile, pi, r) == table, (fn.__name__, profile, r)


class TestDxiSupport:
    def test_examples(self):
        assert dxi_support(1) == {0}
        assert dxi_support(2) == {-1, 1}
        assert dxi_support(3) == {-2, 0, 2}

    def test_size_and_bounds(self):
        for s in range(1, 12):
            sup = dxi_support(s)
            assert len(sup) == s
            assert all(abs(i) < s and (i - s) % 2 != 0 for i in sup)


class TestTorsion:
    def test_reference_case(self):
        sc = sc_with(2, 3, g=1, epsilon=2)  # m = 2, l = 3, g_0 = 2
        cert = torsion_detect(4, sc, 0, 1)
        assert cert.emitted
        assert (cert.r, cert.s, cert.s_prime) == (2, 4, 2)
        assert cert.i0_lower_bound == 2
        assert cert.shriek_degree == 2
        assert cert.star_degree == -1
        assert cert.lower_bound_only

    def test_supersingular_no_certificate(self):
        sc = sc_with(2, 3, g=1, epsilon=2)
        cert = torsion_detect(2, sc, 0, 1)  # r' g_{u'} = 2 = d
        assert not cert.emitted

    def test_level_too_big(self):
        sc = sc_with(2, 7, g=1, epsilon=3)  # g_1 = 21
        cert = torsion_detect(21, sc, 1, 1)
        assert not cert.emitted

    def test_cache_matches_the_uncached_function(self):
        # every outcome, raising ones included, is what the bare function gives
        outcomes = set()
        for sc in (sc_with(2, 3, g=1, epsilon=2), sc_with(2, 7, g=2, epsilon=3)):
            for u, d, rp in itertools.product((-1, 0, 1), range(0, 13), (-1, 0, 1, 2, 3)):
                try:
                    expected = torsion_detect.__wrapped__(d, sc, u, rp)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        torsion_detect(d, sc, u, rp)
                    outcomes.add("raises")
                    continue
                for _ in range(2):  # cold, then cached
                    assert torsion_detect(d, sc, u, rp) == expected, (sc, u, d, rp)
                outcomes.add(expected.emitted)
        assert outcomes == {"raises", True, False}

    def test_cache_answers_no_other_type_from_an_int_entry(self):
        # each call once got the certificate cached for the equal int call
        sc = sc_with(2, 3, g=1, epsilon=2)
        torsion_detect.cache_clear()
        with pytest.raises(ValueError, match="must be an integer"):
            torsion_detect(8, sc, 0, 1.0)
        cert = torsion_detect(8, sc, 0, 1)
        assert type(cert.r_prime) is int and (cert.r, cert.i0_lower_bound) == (2, 6)
        for d, u_prime, r_prime in [(8.0, 0, 1), (8.5, 0, 1), (True, 0, 1), (8, False, 1), (8, 0.0, 1), (8, 0, True)]:
            with pytest.raises(ValueError, match="must be an integer"):
                torsion_detect(d, sc, u_prime, r_prime)

    def test_exhaustive_sweep_condition(self):
        count = 0
        for l in (2, 3, 5, 7):
            for g in (1, 2, 3):
                for eps in (1, 2, 3):
                    q = 2 if l != 2 else 3
                    field = FieldData(q, l)
                    from htgroth.modl import e_l

                    if e_l(field) % eps:
                        continue
                    sc = sc_with(q, l, g=g, epsilon=eps)
                    from htgroth.modl import m_of

                    if m_of(sc) > 3:
                        continue
                    for u in (0, 1, 2):
                        g_up = tower_rank(TowerLevel(sc, u))
                        for d in range(1, 31):
                            for rp in range(1, d // max(g_up, 1) + 2):
                                cert = torsion_detect(d, sc, u, rp)
                                assert cert.emitted == (rp * g_up <= d - g)
                                if cert.emitted:
                                    count += 1
                                    assert cert.s - cert.r > cert.s_prime - rp
        assert count > 50


def make_balanced_setup(u=0, u_prime=0, shapes=((3, 1), (1, 3))):
    sc = sc_with(2, 7, g=1, epsilon=3)
    level_u = TowerLevel(sc, u)
    level_up = TowerLevel(sc, u_prime)
    pi_u = cuspidal_lifts(level_u, 1)[0]
    pi_up = cuspidal_lifts(level_up, 2)[1] if u == u_prime else cuspidal_lifts(level_up, 1)[0]
    lifts = {pi_u.id: level_u, pi_up.id: level_up}
    entries_u = tuple(
        ProfileEntry(s=s, t=t, cuspidal=pi_u, mult=atom(f"m[{s},{t}]"))
        for (s, t) in shapes
    )
    entries_up = tuple(
        ProfileEntry(s=s, t=t, cuspidal=pi_up, mult=atom(f"m[{s},{t}]"))
        for (s, t) in shapes
    )
    return sc, pi_u, pi_up, lifts, SpectrumProfile(entries_u), SpectrumProfile(entries_up)


class TestBalance:
    def test_identical_profiles_tautology(self):
        sc, pi_u, pi_up, lifts, pu, pup = make_balanced_setup()
        constraints = rl_hi_balance(pu, pup, sc, 0, 0, 2, 2, pi_u, pi_up, lifts)
        assert constraints
        assert all(c.is_tautology() for c in constraints)

    def test_mutated_profile_violates(self):
        sc, pi_u, pi_up, lifts, pu, pup = make_balanced_setup()
        mutated = SpectrumProfile(
            (
                ProfileEntry(
                    s=pup.entries[0].s,
                    t=pup.entries[0].t,
                    cuspidal=pup.entries[0].cuspidal,
                    mult=atom("mutated"),
                ),
            )
            + pup.entries[1:]
        )
        constraints = rl_hi_balance(pu, mutated, sc, 0, 0, 2, 2, pi_u, pi_up, lifts)
        assert any(not c.holds() for c in constraints)

    def test_rejects_mismatched_strata(self):
        sc, pi_u, pi_up, lifts, pu, pup = make_balanced_setup(u_prime=0)
        with pytest.raises(ValueError):
            rl_hi_balance(pu, pup, sc, 0, 1, 1, 1, pi_u, pi_up, lifts)

    def test_supersingular_couples_extreme_shapes(self):
        # at the deepest stratum only the (s,1) and (1,s) entries survive
        sc = sc_with(2, 7, g=1, epsilon=3)
        level = TowerLevel(sc, 0)
        pi_u = cuspidal_lifts(level, 1)[0]
        lifts = {pi_u.id: level}
        d_units = 4
        entries = tuple(
            ProfileEntry(s=s, t=t, cuspidal=pi_u, mult=atom(f"m[{s},{t}]"))
            for (s, t) in [(4, 1), (1, 4), (2, 2)]
        )
        profile = SpectrumProfile(entries)
        table = coh_shriek(profile, pi_u, d_units)
        atoms = set()
        for i in table.degrees():
            for (_, _), coeff in table.degree(i).terms.items():
                atoms |= coeff.atoms()
        assert "m[4,1]" in atoms and "m[1,4]" in atoms
        assert "m[2,2]" not in atoms


def reference_balance(profile_u, profile_up, sc, u, u_prime, r, r_prime, pi_u, pi_up, lifts):
    """The balance through whole tables: per entry on the line, the Euler
    characteristic of its one-entry shriek table, collapsed for provenance;
    the entries summed as a GrothElement, and the scaled total collapsed."""

    def side(profile, pi, stratum):
        total, provenance = GrothElement.zero(), {}
        for entry in profile:
            if entry.cuspidal != pi:
                continue
            euler = table_euler(coh_shriek(SpectrumProfile((entry,)), pi, stratum))
            total = total + euler
            for key in rl_reduce(euler, lifts):
                provenance.setdefault(key, []).append((entry.s, entry.t, entry.markers))
        return total, provenance

    total_l, prov_l = side(profile_u, pi_u, r)
    total_r, prov_r = side(profile_up, pi_up, r_prime)
    lhs = rl_reduce(total_l.scale(chgt_cuspi_factor(u, u_prime, sc)), lifts)
    rhs = rl_reduce(total_r, lifts)
    return [
        CongruenceConstraint(
            class_key=key,
            lhs=lhs.get(key, integer(0)),
            rhs=rhs.get(key, integer(0)),
            lhs_entries=tuple(prov_l.get(key, ())),
            rhs_entries=tuple(prov_r.get(key, ())),
        )
        for key in sorted(set(lhs) | set(rhs), key=repr)
    ]


BALANCE_SC = sc_with(2, 3, epsilon=2)  # g_u = 1, 2, 6 for u = -1, 0, 1
# names repeat and signs differ, so entries can cancel class by class
BALANCE_MULTS = (
    atom("m"), -atom("m"), integer(2) * atom("n"), atom("m") * atom("n"), integer(3),
    atom("m") + atom("n"),
)
BALANCE_TAILS = (
    IrreducibleLabel.unit(),
    IrreducibleLabel((OpaqueFactor("tau", 2),)),
    IrreducibleLabel((OpaqueFactor("tau", 0), OpaqueFactor("sigma", 1))),
    # segments on the level-0 lift line of the problems (lifted when u or u' is 0)
    # and on a line no problem lifts; their keys merge with the column's
    IrreducibleLabel(
        (
            steinberg_multisegment(cuspidal_lifts(TowerLevel(BALANCE_SC, 0), 1)[0], 2),
            speh_st_multisegment(CuspidalLabel("sigma"), 2, 1),
        )
    ),
)


@st.composite
def balance_problems(draw):
    """Two lift lines at levels u <= u' in -1..1 and a profile of 1-4 entries on each."""
    u = draw(st.integers(-1, 1))
    u_prime = draw(st.integers(u, 1))
    level_u, level_up = TowerLevel(BALANCE_SC, u), TowerLevel(BALANCE_SC, u_prime)
    pi_u = cuspidal_lifts(level_u, 1)[0]
    pi_up = cuspidal_lifts(level_up, 2)[1]  # another id than pi_u, also when u == u'

    def profile(own, other):
        entries = []
        for _ in range(draw(st.integers(1, 4))):
            s = draw(st.integers(1, 4))
            entries.append(
                ProfileEntry(
                    s=s,
                    t=draw(st.integers(1, 5 - s)),
                    cuspidal=other if draw(st.integers(0, 5)) == 0 else own,
                    mult=draw(st.sampled_from(BALANCE_MULTS)),
                    xi=Fraction(draw(st.integers(-4, 4)), 2),
                    tail=draw(st.sampled_from(BALANCE_TAILS)),
                    markers=draw(st.sampled_from(
                        [frozenset(), frozenset({MARKER_NONDEG_AUX}), frozenset({"x", MARKER_NONDEG_AUX})]
                    )),
                )
            )
        return SpectrumProfile(tuple(entries))

    profile_u, profile_up = profile(pi_u, pi_up), profile(pi_up, pi_u)
    units = max(e.s * e.t for e in profile_u.entries + profile_up.entries)
    d = units * max(tower_rank(level_u), tower_rank(level_up))
    lifts = {pi_u.id: level_u, pi_up.id: level_up}
    return profile_u, profile_up, u, u_prime, pi_u, pi_up, lifts, matched_strata(u, u_prime, d, BALANCE_SC)


@settings(max_examples=80, deadline=None)
@given(problem=balance_problems())
def test_balance_matches_table_reference(problem):
    # the whole constraint list, provenance included, at every matched stratum
    profile_u, profile_up, u, u_prime, pi_u, pi_up, lifts, strata = problem
    assert strata
    for r, r_prime in strata:
        args = (profile_u, profile_up, BALANCE_SC, u, u_prime, r, r_prime, pi_u, pi_up, lifts)
        assert rl_hi_balance(*args) == reference_balance(*args), (r, r_prime)


def balance_by_fraction_keys(profile_u, profile_up, sc, u, u_prime, r, r_prime, pi_u, pi_up, lifts):
    """The balance with each public class key built per class, the constraints sorted by its ``repr``."""
    acc = {}
    _balance_side(acc, 0, profile_u, pi_u, r, lifts, chgt_cuspi_factor(u, u_prime, sc))
    _balance_side(acc, 1, profile_up, pi_up, r_prime, lifts, 1)
    constraints = []
    for key, ((vector_l, prov_l), (vector_r, prov_r)) in acc.items():
        lhs, rhs = SymExpr(vector_l), SymExpr(vector_r)
        if lhs or rhs:
            class_key = fraction_class_key(key)
            constraints.append(CongruenceConstraint(class_key, lhs, rhs, tuple(prov_l), tuple(prov_r)))
    constraints.sort(key=lambda c: repr(c.class_key))
    return constraints


@settings(max_examples=80, deadline=None)
@given(problem=balance_problems(), raw=st.sampled_from((None, 0, 1)))
def test_balance_reads_cached_public_keys_in_repr_order(problem, raw):
    # both lift lines lifted, or one of them left raw, off the lift map
    profile_u, profile_up, u, u_prime, pi_u, pi_up, lifts, strata = problem
    if raw is not None:
        lifts = {k: v for k, v in lifts.items() if k != (pi_u, pi_up)[raw].id}
    for r, r_prime in strata:
        args = (profile_u, profile_up, BALANCE_SC, u, u_prime, r, r_prime, pi_u, pi_up, lifts)
        constraints, reference = rl_hi_balance(*args), balance_by_fraction_keys(*args)
        assert constraints == reference, (r, r_prime)
        assert [repr(c) for c in constraints] == [repr(c) for c in reference]  # no int for a Fraction


def test_fresh_lifts_build_no_public_key():
    # the class keys collapse onto the base line, so a second pair of lift
    # lines of the same levels builds none of the first pair's public keys
    first = make_balanced_setup(-1, 0, ((3, 1), (1, 3), (2, 2)))
    sc, pi_u, pi_up, lifts, pu, pup = first
    expected = rl_hi_balance(pu, pup, sc, -1, 0, 3, 1, pi_u, pi_up, lifts)
    assert expected
    level_u, level_up = lifts[pi_u.id], lifts[pi_up.id]
    fresh_u, fresh_up = cuspidal_lifts(level_u, 3)[2], cuspidal_lifts(level_up, 4)[3]

    def moved(profile, pi):
        return SpectrumProfile(tuple(ProfileEntry(e.s, e.t, pi, e.mult) for e in profile))

    before = _public_key.cache_info()
    fresh_lifts = {fresh_u.id: level_u, fresh_up.id: level_up}
    fresh_args = (sc, -1, 0, 3, 1, fresh_u, fresh_up, fresh_lifts)
    again = rl_hi_balance(moved(pu, fresh_u), moved(pup, fresh_up), *fresh_args)
    after = _public_key.cache_info()
    assert after.misses == before.misses and after.hits - before.hits == len(again)
    assert again == expected
    assert all(a.class_key is b.class_key for a, b in zip(again, expected))


def balance_side(profile, pi, r, lifts, side=0, factor=1):
    """One side of a fresh balance accumulator, read back as (nonzero classes, provenance)."""
    acc = {}
    _balance_side(acc, side, profile, pi, r, lifts, factor)
    assert all(not vector and not prov for vector, prov in (v[1 - side] for v in acc.values()))
    classes = {fraction_class_key(key): SymExpr(sides[side][0]) for key, sides in acc.items()}
    provenance = {fraction_class_key(key): sides[side][1] for key, sides in acc.items()}
    return {key: c for key, c in classes.items() if c}, provenance


def assert_column_classes_are_the_cell_collapses(line, s, t, r, shift2, tail, weight, lifts):
    """Per degree of either diagram, ``_column_classes`` is ``rl_collapse`` of the cell bound with labels.

    With weight 1 each cell's classes, in ``marked_cells`` order, are the
    collapse of the cell bound; with ``weight`` each class integer times it
    is the collapse of the cell bound with it.
    """
    tail_key = collapse_label_key(tail, lifts) if tail.factors else ()
    for kind in ("M", "N"):
        column = _column_classes(s, t, r, kind, shift2, line_key(line.id, lifts), tail_key)
        cells = [(d, sums) for d, _, sums in marked_cells(s, t, r, kind)]
        unit = [(d, rl_collapse(jl_red.bind_shapes(line, sums, shift2, tail), lifts)) for d, sums in cells]
        got = [(d, {k: integer(c) for k, c in classes}) for d, classes in column]
        assert got == unit, (kind, line, s, t, r, shift2, tail)
        for (d, sums), (_, classes) in zip(cells, column):
            bound = jl_red.bind_shapes(line, sums, shift2, tail, weight)
            scaled = {k: w for k, c in classes if (w := weight * c)}
            assert scaled == rl_collapse(bound, lifts), (kind, line, s, t, r, shift2, tail, d)


def test_balance_classes_match_rl_reduce_per_entry():
    # per entry, on a lifted line and off the lift map alike, the label-free
    # classes times the weight, with provenance, are the collapse of the column
    # bound with labels, keys of the same types; the cases alternate between
    # the lhs with a tower factor and the rhs.  The one collapse behind them,
    # ``_column_classes``, is the collapse of each cell of either diagram.
    level, other_level = TowerLevel(BALANCE_SC, 0), TowerLevel(BALANCE_SC, 1)
    pi, other = cuspidal_lifts(level, 1)[0], cuspidal_lifts(other_level, 1)[0]
    off = CuspidalLabel("sigma")
    lifts = {pi.id: level, other.id: other_level}
    tails = (
        IrreducibleLabel.unit(),
        IrreducibleLabel((OpaqueFactor("tau", 2), OpaqueFactor("sigma", 0))),
        IrreducibleLabel((steinberg_multisegment(pi, 2),)),  # the entry's own line
        IrreducibleLabel((speh_st_multisegment(other, 2, 1), OpaqueFactor("tau", 1))),
        IrreducibleLabel((steinberg_multisegment(off, 3),)),  # "raw" parts
        IrreducibleLabel((steinberg_multisegment(pi, 1), steinberg_multisegment(off, 2))),
    )
    cases = nonempty = 0
    for line in (pi, off):  # off is not in lifts: its pieces collapse to "raw" parts
        for s, t in [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (2, 3)]:
            for r in range(0, s * t + 2):
                for shift2, tail, mult in itertools.product(
                    (-3, 0, 2), tails, (atom("m") - atom("n"), integer(0))
                ):
                    entry = ProfileEntry(
                        s=s, t=t, cuspidal=line, mult=mult, xi=Fraction(shift2, 2), tail=tail,
                        markers=frozenset({"x"}),
                    )
                    side, factor = cases % 2, (3, 1)[cases % 2]
                    classes, provenance = balance_side(
                        SpectrumProfile((entry,)), line, r, lifts, side, factor
                    )
                    weight = mult * integer(line.e_pi) * atom(KER1_ATOM)
                    column = column_euler(s, t, r, "N")
                    bound = jl_red.bind_shapes(line, column, shift2, tail, weight).scale(factor)
                    expected = rl_reduce(bound, lifts)
                    assert classes == expected, (line, s, t, r, shift2, tail)
                    assert sorted(map(repr, classes)) == sorted(map(repr, expected))
                    assert provenance == {key: [(s, t, entry.markers)] for key in expected}
                    assert_column_classes_are_the_cell_collapses(line, s, t, r, shift2, tail, weight, lifts)
                    cases += 1
                    nonempty += bool(classes)
    # half the weights are zero, and some columns vanish
    assert (cases, nonempty) == (2 * 31 * 36, 576)


def test_balance_cache_leaks_no_line():
    # the label-free classes are cached on what a class key reads of a line;
    # lines of other base ids, levels, stretches and periods, and two lines
    # off the lift map, asked for in turn with the same (s, t, r, shift2),
    # must each get what a cold run computes
    lines = []
    for sc, u in [
        (sc_with(2, 3, epsilon=2, id="rho"), 0),  # stretch 2
        (sc_with(2, 7, epsilon=3, id="sigma"), 0),  # stretch 3
        (sc_with(2, 7, epsilon=3, id="rho"), 0),  # stretch 3, the base id and level of the first
        (sc_with(2, 7, epsilon=1, id="rho"), 1),  # stretch 49
    ]:
        level = TowerLevel(sc, u)
        lines.append((cuspidal_lifts(level, 1)[0], level))
    # off the lift map: the first line's own label, and another id
    lines += [(lines[0][0], None), (CuspidalLabel("kappa", g=2), None)]
    grid = [(s, t, r) for s in range(1, 4) for t in range(1, 5 - s) for r in range(0, s * t + 2)]
    tail = IrreducibleLabel((OpaqueFactor("tau", 1),))
    warm = {}
    for pi, level in lines:
        lifts = {pi.id: level} if level else {}
        for s, t, r in grid:
            for shift2 in (-1, 2):
                entry = ProfileEntry(
                    s=s, t=t, cuspidal=pi, mult=atom("m"), xi=Fraction(shift2, 2), tail=tail
                )
                classes, _ = balance_side(SpectrumProfile((entry,)), pi, r, lifts)
                for parts, _ in classes:
                    for part in parts:
                        if part[0] == "base":
                            assert part[1:3] == (level.base.label.id, level.u)
                        else:
                            assert part == ("opaque", "tau", 1) or part[:2] == ("raw", pi.id)
                warm[pi, level, entry, r] = classes
    assert len({(pi, level) for pi, level, _, _ in warm}) == 6 and any(warm.values())
    for (pi, level, entry, r), classes in warm.items():
        clear_htgroth_caches()
        cold, _ = balance_side(SpectrumProfile((entry,)), pi, r, {pi.id: level} if level else {})
        assert cold == classes and list(map(repr, cold)) == list(map(repr, classes)), (pi, entry, r)


def balance_lines(lift_both=True):
    level = TowerLevel(BALANCE_SC, 0)
    pi_u, pi_up = cuspidal_lifts(level, 1)[0], cuspidal_lifts(level, 2)[1]
    lifts = {pi_u.id: level, pi_up.id: level} if lift_both else {pi_u.id: level}
    return pi_u, pi_up, lifts


def balance_entries(pi, *specs):
    """Profile entries (s, t, mult, marker) on pi, with one opaque tail."""
    tail = IrreducibleLabel((OpaqueFactor("tau", 1),))
    return SpectrumProfile(
        tuple(
            ProfileEntry(s=s, t=t, cuspidal=pi, mult=mult, tail=tail, markers=frozenset({mk}))
            for s, t, mult, mk in specs
        )
    )


def test_balance_class_cancelled_on_one_side_keeps_its_provenance():
    pi_u, pi_up, lifts = balance_lines()
    m = atom("m")
    lhs_side = balance_entries(pi_u, (1, 2, m, "a"), (1, 2, -m, "b"))  # every class cancels
    rhs_side = balance_entries(pi_up, (1, 2, m, "c"))
    for r in (1, 2):
        args = (lhs_side, rhs_side, BALANCE_SC, 0, 0, r, r, pi_u, pi_up, lifts)
        constraints = rl_hi_balance(*args)
        assert constraints and constraints == reference_balance(*args)
        for c in constraints:
            assert c.lhs == integer(0) and not c.rhs.is_zero() and not c.holds()
            assert c.lhs_entries == ((1, 2, frozenset({"a"})), (1, 2, frozenset({"b"})))
            assert c.rhs_entries == ((1, 2, frozenset({"c"})),)


def test_balance_class_cancelled_on_both_sides_is_dropped():
    pi_u, pi_up, lifts = balance_lines()
    m, n = atom("m"), atom("n")
    kept = ((1, 3, m, "a"),)
    cancelled = ((2, 1, n, "b"), (2, 1, -n, "c"))
    for r in (1, 2):

        def balance(specs):
            lhs_side, rhs_side = balance_entries(pi_u, *specs), balance_entries(pi_up, *specs)
            args = (lhs_side, rhs_side, BALANCE_SC, 0, 0, r, r, pi_u, pi_up, lifts)
            constraints = rl_hi_balance(*args)
            assert constraints == reference_balance(*args)
            return {c.class_key for c in constraints}

        both, only_kept = balance(kept + cancelled), balance(kept)
        assert both == only_kept and only_kept
        assert balance(cancelled[:1]) - only_kept  # the classes the cancellation drops


def test_balance_with_a_side_off_the_lift_map():
    # the rhs line is not lifted: its entries collapse label-free to classes
    # with "raw" parts, into the same table as the lifted lhs classes
    pi_u, pi_up, lifts = balance_lines(lift_both=False)
    m, n = atom("m"), atom("n")
    specs = ((1, 2, m, "a"), (2, 1, n, "b"), (1, 1, m + n, "c"))
    lhs_side, rhs_side = balance_entries(pi_u, *specs), balance_entries(pi_up, *specs)
    raw = merged = 0
    for r in (1, 2):
        args = (lhs_side, rhs_side, BALANCE_SC, 0, 0, r, r, pi_u, pi_up, lifts)
        constraints = rl_hi_balance(*args)
        assert constraints == reference_balance(*args)
        for c in constraints:
            raw += any(part[0] == "raw" for part in c.class_key[0])
            merged += c.lhs_entries != () and c.rhs_entries != ()
    assert raw and merged  # a tail-only class of the full cut meets on both sides


class TestStrongFilter:
    def test_both_marked_strong(self):
        sc, pi_u, pi_up, lifts, _, _ = make_balanced_setup()
        marked_u = SpectrumProfile(
            (
                ProfileEntry(
                    s=1, t=3, cuspidal=pi_u, mult=atom("m"),
                    markers=frozenset({MARKER_NONDEG_AUX}),
                ),
            )
        )
        marked_up = SpectrumProfile(
            (
                ProfileEntry(
                    s=1, t=3, cuspidal=pi_up, mult=atom("m"),
                    markers=frozenset({MARKER_NONDEG_AUX}),
                ),
            )
        )
        constraints = rl_hi_balance(marked_u, marked_up, sc, 0, 0, 2, 2, pi_u, pi_up, lifts)
        records = strong_congruence_filter(constraints)
        assert records and all(r.strength == "strong" for r in records)

    def test_one_side_unmarked_weak(self):
        sc, pi_u, pi_up, lifts, pu, pup = make_balanced_setup(shapes=((1, 3),))
        marked = SpectrumProfile(
            (
                ProfileEntry(
                    s=1, t=3, cuspidal=pi_u, mult=atom("m[1,3]"),
                    markers=frozenset({MARKER_NONDEG_AUX}),
                ),
            )
        )
        constraints = rl_hi_balance(marked, pup, sc, 0, 0, 2, 2, pi_u, pi_up, lifts)
        records = strong_congruence_filter(constraints)
        assert records and all(r.strength == "weak" for r in records)

    def test_empty(self):
        assert strong_congruence_filter([]) == []


class TestInclusionExclusion:
    def test_holds_up_to_six(self):
        assert inclusion_exclusion_ramified(6)

    def test_base_case(self):
        assert inclusion_exclusion_ramified(0)
        assert inclusion_exclusion_ramified(1)


class TestFreePartReduction:
    def test_collapse_commutes_with_euler(self):
        # reducing the alternating sum equals the alternating sum of the
        # reductions, degree by degree
        from htgroth.modl import rl_reduce
        from htgroth.segments import GrothElement as GE

        sc = sc_with(2, 7, g=1, epsilon=3)
        level = TowerLevel(sc, 0)
        (lift,) = cuspidal_lifts(level, 1)
        lifts = {lift.id: level}
        profile = SpectrumProfile(
            (
                ProfileEntry(s=3, t=1, cuspidal=lift, mult=atom("m0")),
                ProfileEntry(s=1, t=3, cuspidal=lift, mult=atom("m1"), xi=Fraction(1, 2)),
            )
        )
        for r in range(1, 4):
            table = coh_shriek(profile, lift, r)
            direct = rl_reduce(table_euler(table), lifts)
            termwise: dict = {}
            for i in table.degrees():
                part = rl_reduce(
                    table.degree(i) if i % 2 == 0 else -table.degree(i), lifts
                )
                for key, coeff in part.items():
                    acc = termwise.get(key, integer(0)) + coeff
                    if acc.is_zero():
                        termwise.pop(key, None)
                    else:
                        termwise[key] = acc
            assert direct == termwise


class TestConj2:
    def test_same_label_trivially_stable(self):
        sc = sc_with(2, 7, g=1, epsilon=3)
        level = TowerLevel(sc, 0)
        (lift,) = cuspidal_lifts(level, 1)
        lifts = {lift.id: level}
        profile = SpectrumProfile(
            (ProfileEntry(s=2, t=1, cuspidal=lift, mult=atom("m")),)
        )
        run = {
            r: coh_shriek(profile, lift, r)
            for r in range(1, 3)
        }
        assert conj2_predicate(run, run, lifts, lifts)

    def test_two_lifts_stable(self):
        sc = sc_with(2, 7, g=1, epsilon=3)
        level = TowerLevel(sc, 0)
        lift_a, lift_b = cuspidal_lifts(level, 2)
        lifts = {lift_a.id: level, lift_b.id: level}
        mults = atom("m")
        prof_a = SpectrumProfile((ProfileEntry(s=3, t=1, cuspidal=lift_a, mult=mults),))
        prof_b = SpectrumProfile((ProfileEntry(s=3, t=1, cuspidal=lift_b, mult=mults),))
        run_a = {r: coh_shriek(prof_a, lift_a, r) for r in range(1, 4)}
        run_b = {r: coh_shriek(prof_b, lift_b, r) for r in range(1, 4)}
        assert conj2_predicate(run_a, run_b, lifts, lifts)

    def test_mult_mutation_detected(self):
        sc = sc_with(2, 7, g=1, epsilon=3)
        level = TowerLevel(sc, 0)
        lift_a, lift_b = cuspidal_lifts(level, 2)
        lifts = {lift_a.id: level, lift_b.id: level}
        prof_a = SpectrumProfile(
            (ProfileEntry(s=3, t=1, cuspidal=lift_a, mult=atom("m")),)
        )
        prof_b = SpectrumProfile(
            (ProfileEntry(s=3, t=1, cuspidal=lift_b, mult=atom("other")),)
        )
        run_a = {r: coh_shriek(prof_a, lift_a, r) for r in range(1, 4)}
        run_b = {r: coh_shriek(prof_b, lift_b, r) for r in range(1, 4)}
        assert not conj2_predicate(run_a, run_b, lifts, lifts)
