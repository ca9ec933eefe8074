import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from htgroth import modl
from htgroth.modl import (
    _is_prime,
    _is_prime_power,
    FieldData,
    SupercuspidalData,
    TowerLevel,
    canonical_epsilon,
    chgt_cuspi_factor,
    collapse_label_key,
    cuspidal_lifts,
    e_l,
    fraction_class_key,
    is_banal,
    is_cuspidal_st,
    line_key,
    m_of,
    matched_strata,
    modl_label,
    rl_division_rep,
    rl_reduce,
    rl_speh,
    rl_steinberg_constituents,
    supercuspidal,
    tower_cuspidal,
    tower_rank,
)
from htgroth.segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    OpaqueFactor,
    half,
    make_speh,
    make_speh_st,
    make_steinberg,
)


def sc_with(q, l, g=1, epsilon=None, id="rho"):
    field = FieldData(q=q, l=l)
    eps = canonical_epsilon(field, g) if epsilon is None else epsilon
    return SupercuspidalData(CuspidalLabel(id, g=g), field, eps)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CuspidalLabel(5),
        lambda: CuspidalLabel("rho", g=True),
        lambda: CuspidalLabel("rho", g=1.0),
        lambda: CuspidalLabel("rho", e_pi=True),
        lambda: FieldData(q=2, l=3.0),
        lambda: FieldData(q=2.0, l=3),
        lambda: FieldData(q=True, l=3),
        lambda: SupercuspidalData(CuspidalLabel("rho"), FieldData(2, 3), 2.0),
        lambda: SupercuspidalData(CuspidalLabel("rho"), FieldData(2, 3), True),
    ],
)
def test_value_types_refuse_floats_bools_and_non_string_ids(build):
    # JSON gives floats and booleans where integers belong; Python would compute with them
    with pytest.raises(ValueError):
        build()


class TestFieldData:
    def test_e_l_examples(self):
        assert e_l(FieldData(2, 7)) == 3
        assert e_l(FieldData(4, 3)) == 1
        assert e_l(FieldData(3, 2)) == 1

    def test_rejects_l_dividing_q(self):
        with pytest.raises(ValueError):
            FieldData(9, 3)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            FieldData(6, 5)
        with pytest.raises(ValueError):
            FieldData(4, 6)

    def test_prime_powers_match_their_definition(self):
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
        assert [n for n in range(-2, 2000) if _is_prime(n)] == primes
        powers = {p**k for p in primes for k in range(1, 12) if p**k < 2000}
        assert [n for n in range(-2, 2000) if _is_prime_power(n)] == sorted(powers)

    def test_large_q_is_checked_by_trial_division_to_its_root(self):
        FieldData(1000003, 3)  # prime
        FieldData(3**13, 2)
        with pytest.raises(ValueError, match="not a prime power"):
            FieldData(2 * 1000003, 3)

    def test_epsilon_must_divide(self):
        field = FieldData(2, 7)  # e = 3
        with pytest.raises(ValueError):
            SupercuspidalData(CuspidalLabel("x"), field, 2)
        SupercuspidalData(CuspidalLabel("x"), field, 3)  # fine


class TestInvariants:
    def test_m_of_cases(self):
        assert m_of(sc_with(2, 7, epsilon=3)) == 3
        assert m_of(sc_with(4, 3, epsilon=1)) == 3
        assert m_of(sc_with(3, 2, epsilon=1)) == 2

    def test_is_cuspidal_st_sequence(self):
        sc = sc_with(2, 7, epsilon=3)  # m = 3, l = 7
        assert is_cuspidal_st(sc, 1)
        assert is_cuspidal_st(sc, 3)
        assert is_cuspidal_st(sc, 21)
        assert is_cuspidal_st(sc, 147)
        assert not is_cuspidal_st(sc, 6)
        assert not is_cuspidal_st(sc, 7)

    def test_is_cuspidal_st_matches_enumeration(self):
        for (q, l, eps) in [(2, 7, 3), (4, 3, 1), (3, 2, 1), (2, 5, 4), (5, 3, 2)]:
            sc = sc_with(q, l, epsilon=eps)
            m = m_of(sc)
            members = {1}
            v = m
            while v <= 10**4:
                members.add(v)
                v *= l
            for s in range(1, 10**4 + 1):
                assert is_cuspidal_st(sc, s) == (s in members)

    def test_divisibility_property(self):
        sc = sc_with(2, 7, epsilon=3)
        m, l = m_of(sc), sc.field.l
        for s in range(2, 2000):
            if is_cuspidal_st(sc, s):
                assert s % m == 0
                quotient = s // m
                while quotient % l == 0:
                    quotient //= l
                assert quotient == 1

    def test_tower_rank(self):
        sc = sc_with(2, 7, epsilon=3)  # g=1, m=3, l=7
        assert tower_rank(TowerLevel(sc, -1)) == 1
        assert tower_rank(TowerLevel(sc, 0)) == 3
        sc2 = sc_with(5, 3, g=2, epsilon=2)  # m=2, l=3
        assert tower_rank(TowerLevel(sc2, 2)) == 2 * 2 * 9

    def test_level_rank_refuses_a_bool_level(self):
        # True == 1 and False == 0: a bool level is refused, not read as level 1 or 0
        sc = sc_with(2, 7, epsilon=3)
        assert modl.level_rank(sc, 0) == 3 and modl.level_rank(sc, 1) == 21
        for bad in (True, False):
            with pytest.raises(ValueError, match="u must be an integer"):
                modl.level_rank(sc, bad)
        with pytest.raises(ValueError, match="u must be >= -1"):
            modl.level_rank(sc, -2)

    def test_banal_no_tower_fits(self):
        # e_l(q) > d forces m(rho) g > d for every supercuspidal of rank <= d
        for (q, l) in [(2, 11), (3, 7), (2, 13)]:
            field = FieldData(q, l)
            d = e_l(field) - 1
            if d < 1:
                continue
            assert is_banal(field, d)
            for g in range(1, d + 1):
                sc = supercuspidal("x", g, field)
                assert m_of(sc) * g > d


class TestChgtFactor:
    def test_examples(self):
        sc = sc_with(4, 5, epsilon=1)  # l = 5, m = 5
        assert chgt_cuspi_factor(0, 2, sc) == 25
        assert chgt_cuspi_factor(1, 1, sc) == 1

    def test_base_level_picks_up_m(self):
        # the corrected base-level rule is m(rho) l^{u'}: the count of
        # division-side reduction summands jumps from 1 to m l^{u'}
        sc = sc_with(2, 7, epsilon=3)  # m=3, l=7
        assert chgt_cuspi_factor(-1, 1, sc) == 3 * 7
        sc2 = sc_with(3, 13, epsilon=3)  # m=3, l=13
        assert chgt_cuspi_factor(-1, 1, sc2) == 3 * 13
        assert chgt_cuspi_factor(-1, 0, sc2) == 3

    def test_cocycle(self):
        sc = sc_with(2, 7, epsilon=3)
        for u in range(0, 3):
            for up in range(u, 4):
                for upp in range(up, 5):
                    assert chgt_cuspi_factor(u, upp, sc) == chgt_cuspi_factor(
                        u, up, sc
                    ) * chgt_cuspi_factor(up, upp, sc)

    def test_cocycle_from_base(self):
        sc = sc_with(2, 7, epsilon=3)
        for up in range(0, 3):
            for upp in range(up, 4):
                assert chgt_cuspi_factor(-1, upp, sc) == chgt_cuspi_factor(
                    -1, up, sc
                ) * chgt_cuspi_factor(up, upp, sc)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            chgt_cuspi_factor(2, 1, sc_with(2, 7, epsilon=3))


class TestMatchedStrata:
    def test_example(self):
        sc = sc_with(2, 7, epsilon=3)  # g_0 = 3, g_1 = 21
        assert matched_strata(0, 1, 42, sc) == [(7, 1), (14, 2)]

    def test_diagonal(self):
        sc = sc_with(2, 7, epsilon=3)
        assert matched_strata(1, 1, 63, sc) == [(1, 1), (2, 2), (3, 3)]

    def test_empty_when_lcm_too_big(self):
        sc = sc_with(3, 2, g=1, epsilon=1)  # m=2, l=2: g_0=2, g_1=4
        assert matched_strata(0, 1, 3, sc) == []


class TestReductionRules:
    def test_rl_speh_single_term(self):
        target = CuspidalLabel("rlpi")
        for s in (1, 3, 5):
            out = rl_speh(make_speh(CuspidalLabel("pi"), s), target)
            assert len(out.terms) == 1
            ((label, tw), coeff) = next(iter(out.terms.items()))
            assert coeff == 1 and tw == 0
            assert label.rank == s

    def test_rl_speh_rejects_non_speh(self):
        with pytest.raises(ValueError):
            rl_speh(make_steinberg(CuspidalLabel("pi"), 2), CuspidalLabel("x"))
        with pytest.raises(ValueError):
            rl_speh(make_speh_st(CuspidalLabel("pi"), 2, 2), CuspidalLabel("x"))

    def test_rl_division_rep_shapes(self):
        assert len(rl_division_rep(1, "iota").terms) == 1
        two = rl_division_rep(2, "iota")
        assert {tw for (_, tw) in two.terms} == {-1, 1}  # Xi^(-1/2) and Xi^(1/2), doubled
        three = rl_division_rep(3, "iota")
        assert {tw for (_, tw) in three.terms} == {-2, 0, 2}

    @given(m_tau=st.integers(min_value=1, max_value=20))
    def test_rl_division_rep_symmetric(self, m_tau):
        out = rl_division_rep(m_tau, "iota")
        twists = sorted(tw for (_, tw) in out.terms)
        assert len(twists) == m_tau
        assert twists == sorted(-tw for tw in twists)
        steps = {b - a for a, b in zip(twists, twists[1:])}
        assert steps <= {2}  # integer steps, doubled

    def test_rl_steinberg_pinned_facts(self):
        sc = sc_with(2, 7, epsilon=3)
        out = rl_steinberg_constituents(sc, 4)
        nondeg = [
            (label, c)
            for (label, _), c in out.terms.items()
            if label.multisegments()
        ]
        assert len(nondeg) == 1 and nondeg[0][1] == 1
        assert len(out.terms) == 2  # plus the opaque remainder
        assert len(rl_steinberg_constituents(sc, 1).terms) == 1

    def test_cuspidal_lifts_share_target(self):
        sc = sc_with(2, 7, epsilon=3)
        lifts = cuspidal_lifts(TowerLevel(sc, 0), 4)
        assert len({c.id for c in lifts}) == 4
        assert len({c.g for c in lifts}) == 1


class TestCollapse:
    def test_two_lifts_collapse_equal(self):
        sc = sc_with(2, 7, epsilon=3)
        level = TowerLevel(sc, 0)
        lift_a, lift_b = cuspidal_lifts(level, 2)
        lifts = {lift_a.id: level, lift_b.id: level}
        xa = GrothElement.of(make_speh_st(lift_a, 2, 1))
        xb = GrothElement.of(make_speh_st(lift_b, 2, 1))
        assert rl_reduce(xa, lifts) == rl_reduce(xb, lifts)

    def test_different_shape_differs(self):
        sc = sc_with(2, 7, epsilon=3)
        level = TowerLevel(sc, 0)
        (lift,) = cuspidal_lifts(level, 1)
        lifts = {lift.id: level}
        xa = GrothElement.of(make_speh_st(lift, 2, 1))
        xb = GrothElement.of(make_steinberg(lift, 2))
        assert rl_reduce(xa, lifts) != rl_reduce(xb, lifts)

    def test_line_key_of_a_lift_is_the_level_line_built_once(self, monkeypatch):
        # the level holds its line key in a slot outside its fields: equality,
        # hash, repr, copy and pickle read (base, u) alone, and line_key reads
        # the slot without asking for a tower rank again
        sc = sc_with(5, 3, g=2, epsilon=2, id="kappa")  # m = 2, l = 3
        levels = [TowerLevel(sc, u) for u in (-1, 0, 2)]
        assert [level.line for level in levels] == [
            ("base", "kappa", -1, 1, 2),
            ("base", "kappa", 0, 2, 2),
            ("base", "kappa", 2, 18, 2),
        ]
        for level in levels:
            assert level.line == (
                "base", "kappa", level.u, tower_rank(level) // sc.g, sc.epsilon
            )
            assert "line" not in TowerLevel._fields and "line" not in repr(level)
            assert hash(level) == hash((sc, level.u))
            for twin in (copy.copy(level), copy.deepcopy(level), pickle.loads(pickle.dumps(level))):
                assert twin == level and twin.line == level.line
            with pytest.raises(AttributeError):
                setattr(level, "line", ("raw", "x"))
            with pytest.raises(AttributeError):
                delattr(level, "line")
        lifts = {f"lift{tag}": level for tag, level in zip("abc", levels)}

        def no_rank(*args):
            raise AssertionError("line_key asked for a tower rank")

        monkeypatch.setattr(modl, "level_rank", no_rank)
        monkeypatch.setattr(modl, "tower_rank", no_rank)
        assert [line_key(id, lifts) for id in lifts] == [level.line for level in levels]
        assert all(line_key(id, lifts) is level.line for id, level in lifts.items())
        assert line_key("kappa", lifts) == ("raw", "kappa")

    def test_label_key_parts_keep_their_forms(self):
        # a lifted segment keeps its footprint on the base line, a segment off
        # the lift map its line, length and start, an opaque factor its name and rank
        sc = sc_with(2, 7, epsilon=3)
        level = TowerLevel(sc, 0)
        (lift,) = cuspidal_lifts(level, 1)
        lifts = {lift.id: level}
        assert line_key(lift.id, lifts) == ("base", "rho", 0, 3, 3)  # stretch m = 3
        assert line_key("sigma", lifts) == ("raw", "sigma")
        label = IrreducibleLabel(
            make_steinberg(lift, 2).factors
            + make_steinberg(CuspidalLabel("sigma"), 3).factors
            + (OpaqueFactor("tau", 2),)
        )
        key = collapse_label_key(label, lifts)
        assert key == (
            ("base", "rho", 0, 6, 3),  # start -1/2, stretched to -3/2, folded mod 3; doubled
            ("opaque", "tau", 2),
            ("raw", "sigma", 3, -2),  # start -1, doubled
        )
        assert fraction_class_key((key, -1)) == (
            (("base", "rho", 0, 6, half(3)), ("opaque", "tau", 2), ("raw", "sigma", 3, -1)),
            half(-1),
        )

    def test_twist_folding_by_line_period(self):
        sc = sc_with(2, 7, epsilon=3, g=1)
        level = TowerLevel(sc, -1)
        (lift,) = cuspidal_lifts(level, 1)
        lifts = {lift.id: level}
        x = GrothElement.of(make_steinberg(lift, 2))
        shifted = GrothElement.of(make_steinberg(lift, 2).twist(sc.epsilon))
        assert rl_reduce(x, lifts) == rl_reduce(shifted, lifts)
        near = GrothElement.of(make_steinberg(lift, 2).twist(1))
        assert rl_reduce(x, lifts) != rl_reduce(near, lifts)
