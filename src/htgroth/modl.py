"""Mod-l invariants of cuspidal lines, cuspidal towers, and reduction rules.

The unit of data is a supercuspidal line over a residue field of size q with
a banality prime l: the line size epsilon divides the order e_l(q) of q mod
l, the jump parameter m is epsilon when epsilon > 1 and l otherwise, and the
generalized Steinberg of width s stays cuspidal exactly for s in
{1, m, m l, m l^2, ...}.  Tower levels index those cuspidals; matched strata
pair the levels inside a fixed GL_d.

Reduction mod l of labels is kept minimal: a Speh of a cuspidal reduces
irreducibly, a division-algebra representation spreads into a twist-symmetric
string, and a generalized Steinberg keeps exactly one nondegenerate
constituent with an opaque remainder.  For cross-level comparisons each
label over a tower cuspidal collapses to a fingerprint over the base
supercuspidal: footprint on the base line, with twists folded by the line
period.  Collapses run on doubled-int twists; ``fraction_class_key`` builds
the public, ``Fraction``-twisted key only where a table or a constraint is returned.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    Multisegment,
    OpaqueFactor,
    Value,
    half,
    make_steinberg,
    require_int,
)
from .symbolic import integer


# ---------------------------------------------------------------------------
# fields and lines
# ---------------------------------------------------------------------------


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def _is_prime_power(n: int) -> bool:
    """Whether n is p^k for a prime p and k >= 1: divide out n's smallest prime factor."""
    if n < 2:
        return False
    p = _smallest_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


class FieldData(Value):
    """The residue field size q and the prime l."""

    __slots__ = _fields = ("q", "l")

    def __init__(self, q: int, l: int):
        if not _is_prime_power(require_int("q", q)):
            raise ValueError(f"q={q} is not a prime power")
        if not _is_prime(require_int("l", l)):
            raise ValueError(f"l={l} is not prime")
        if q % l == 0:
            raise ValueError("l must not divide q")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "l", l)


def e_l(field: FieldData) -> int:
    """Multiplicative order of q in F_l^x."""
    q, l = field.q % field.l, field.l
    k, acc = 1, q % l
    while acc != 1:
        acc = (acc * q) % l
        k += 1
        if k > l:  # cannot happen for valid input
            raise RuntimeError("order computation ran away")
    return k


def is_banal(field: FieldData, d: int) -> bool:
    return e_l(field) > d


class SupercuspidalData(Value):
    """A mod-l supercuspidal line: its label, field data and line size.

    It keys caches such as ``torsion_detect``'s, so its hash is taken once.
    """

    _fields = ("label", "field", "epsilon")
    __slots__ = _fields + ("_hash",)

    def __init__(self, label: CuspidalLabel, field: FieldData, epsilon: int):
        if require_int("epsilon", epsilon) < 1:
            raise ValueError("epsilon must be positive")
        if e_l(field) % epsilon != 0:
            raise ValueError(f"epsilon={epsilon} must divide e_l(q)={e_l(field)}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "_hash", hash((label, field, epsilon)))

    def __hash__(self):
        return self._hash

    @property
    def g(self) -> int:
        return self.label.g


def canonical_epsilon(field: FieldData, g: int) -> int:
    """Line size of a supercuspidal of GL_g: the order of q^g mod l."""
    e = e_l(field)
    return e // gcd(e, g)


def supercuspidal(id: str, g: int, field: FieldData) -> SupercuspidalData:
    """Supercuspidal data with the canonical line size for its rank."""
    return SupercuspidalData(CuspidalLabel(id, g=g), field, canonical_epsilon(field, g))


def m_of(sc: SupercuspidalData) -> int:
    """The cuspidal-width jump: epsilon when the line is nontrivial, else l."""
    return sc.epsilon if sc.epsilon > 1 else sc.field.l


def is_cuspidal_st(sc: SupercuspidalData, s: int) -> bool:
    """True when the width-s generalized Steinberg of the line stays cuspidal."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if s == 1:
        return True
    m = m_of(sc)
    if s % m:
        return False
    s //= m
    l = sc.field.l
    while s % l == 0:
        s //= l
    return s == 1


class TowerLevel(Value):
    """Level u >= -1 of the cuspidal tower over a supercuspidal line.

    ``line`` is the ``line_key`` of a line lifting the level, built once; it
    is no field, so equality, hash, copy and pickle read ``base`` and ``u`` only.
    """

    _fields = ("base", "u")
    __slots__ = ("base", "u", "line")

    def __init__(self, base: SupercuspidalData, u: int):
        stretch = level_rank(base, u) // base.g  # checks u
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "line", ("base", base.label.id, u, stretch, base.epsilon))


def tower_rank(t: TowerLevel) -> int:
    """g_u = g_{-1} for the base level, else g_{-1} * m * l^u."""
    return level_rank(t.base, t.u)


@lru_cache(maxsize=256, typed=True)  # typed: a bool u misses the int's entry, so it is refused
def level_rank(base: SupercuspidalData, u: int) -> int:
    """``tower_rank`` of level u over ``base``, with no ``TowerLevel`` built, once per (base, u); u >= -1."""
    if require_int("u", u) < -1:
        raise ValueError("u must be >= -1")
    return base.g if u == -1 else base.g * m_of(base) * base.field.l**u


def tower_cuspidal(t: TowerLevel, id: str | None = None) -> CuspidalLabel:
    """A lift label of the level-u tower cuspidal (opaque id, correct rank, e_pi = 1)."""
    name = id if id is not None else f"{t.base.label.id}[u={t.u}]"
    return CuspidalLabel(name, g=tower_rank(t))


def cuspidal_lifts(t: TowerLevel, count: int) -> list[CuspidalLabel]:
    """Opaque lift labels sharing one mod-l target (the count is the model)."""
    return [tower_cuspidal(t, id=f"{t.base.label.id}[u={t.u}]#{j}") for j in range(count)]


def chgt_cuspi_factor(u: int, u_prime: int, sc: SupercuspidalData) -> int:
    """Multiplicity of the level-u sheaf class inside the level-u' one.

    l^(u'-u) for u >= 0; the base level u = -1 picks up the extra m factor.
    """
    if u_prime < u:
        raise ValueError("u' must be >= u")
    l = sc.field.l
    if u >= 0:
        return l ** (u_prime - u)
    if u_prime == -1:
        return 1
    return m_of(sc) * l**u_prime


def matched_strata(u: int, u_prime: int, d: int, sc: SupercuspidalData) -> list[tuple[int, int]]:
    """All (r, r') with r g_u = r' g_{u'} <= d."""
    g_u, g_up = level_rank(sc, u), level_rank(sc, u_prime)
    step = g_u * g_up // gcd(g_u, g_up)
    out = []
    h = step
    while h <= d:
        out.append((h // g_u, h // g_up))
        h += step
    return out


# ---------------------------------------------------------------------------
# reduction rules
# ---------------------------------------------------------------------------


def modl_label(sc: SupercuspidalData | CuspidalLabel) -> CuspidalLabel:
    base = sc.label if isinstance(sc, SupercuspidalData) else sc
    return CuspidalLabel(f"rl({base.id})", g=base.g, e_pi=base.e_pi)


def rl_speh(label: IrreducibleLabel, target: CuspidalLabel) -> GrothElement:
    """Reduction of Speh_s(pi): a single irreducible term.

    The label must be a Speh of a cuspidal, i.e. one ladder of singleton
    segments; the output replaces the cuspidal line by the mod-l target.
    """
    segs = label.multisegments()
    if len(label.factors) != 1 or not segs:
        raise ValueError("rl_speh expects a single-multisegment label")
    ms = segs[0]
    if any(seg.length != 1 for seg in ms.segments) or not ms.is_ladder():
        raise ValueError("rl_speh expects a Speh of a cuspidal (singleton ladder)")
    reduced = Multisegment(type(seg)._of2(target, seg.start2, seg.length) for seg in ms.segments)
    return GrothElement.of(IrreducibleLabel((reduced,), label.kind))


def rl_division_rep(m_tau: int, iota: str) -> GrothElement:
    """Reduction of a division-algebra representation: a symmetric twist string.

    m_tau terms iota{k}, k = -(m_tau-1)/2, ..., (m_tau-1)/2 in integer steps.
    """
    if m_tau < 1:
        raise ValueError("m_tau must be >= 1")
    out: dict = {}
    factor = OpaqueFactor(iota, rank=0)
    for j in range(m_tau):
        out[(IrreducibleLabel((factor,)), half(2 * j + 1 - m_tau))] = integer(1)
    return GrothElement(out)


def rl_steinberg_constituents(sc: SupercuspidalData, s: int) -> GrothElement:
    """Reduction of a width-s Steinberg over a lift of the line.

    Exposes only the pinned facts: the unique nondegenerate constituent (the
    mod-l generalized Steinberg, multiplicity one) plus one opaque remainder
    term standing for all other constituents.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    nondeg = make_steinberg(modl_label(sc), s)
    out = GrothElement.of(nondeg)
    if s > 1:
        remainder = IrreducibleLabel(
            (OpaqueFactor(f"rl-rem(St_{s}({sc.label.id}))", rank=s * sc.g),)
        )
        out = out + GrothElement.of(remainder)
    return out


# ---------------------------------------------------------------------------
# collapse to the base line
# ---------------------------------------------------------------------------


LiftMap = dict[str, TowerLevel]  # cuspidal id -> tower level it lifts


def line_key(id: str, lifts: LiftMap) -> tuple:
    """All a collapse reads of the line of cuspidal ``id``.

    ``("raw", id)`` off the lift map, else ``("base", base id, u, stretch
    g_u/g_{-1}, period epsilon)`` of the tower level it lifts, which the
    level holds as ``TowerLevel.line``.
    """
    level = lifts.get(id)
    return ("raw", id) if level is None else level.line


def collapse_segment_key(start2: int, length: int, line: tuple):
    """Fingerprint of the segment of ``length`` from ``start2``/2 on the line of ``line_key`` ``line``.

    A raw line keeps the segment as it is.  Over a lift, the segment of
    length k at twist a over the level-u cuspidal covers k * (g_u / g_{-1})
    base units from base offset a scaled by the same stretch; twists fold
    modulo the base line period epsilon, exactly: (a s) mod eps = ((2a s) mod 2 eps)/2.
    """
    if line[0] == "raw":
        return ("raw", line[1], length, start2)
    _, base_id, u, stretch, eps = line
    return ("base", base_id, u, length * stretch, start2 * stretch % (2 * eps))


def collapse_label_key(label: IrreducibleLabel, lifts: LiftMap):
    """Canonical mod-l class key of a label under the configured lift relation, twists doubled."""
    parts = []
    for factor in label.factors:
        if isinstance(factor, OpaqueFactor):
            parts.append(("opaque", factor.name, factor.rank))
            continue
        for seg in factor.segments:
            parts.append(
                collapse_segment_key(seg.start2, seg.length, line_key(seg.cuspidal.id, lifts))
            )
    return tuple(sorted(parts))


def fraction_class_key(key: tuple) -> tuple:
    """The public key of ``(collapse_label_key, xi2)``, twists halved: sorted still, and injective."""
    parts, xi2 = key
    return (tuple(p if p[0] == "opaque" else p[:-1] + (half(p[-1]),) for p in parts), half(xi2))


def rl_collapse(x: GrothElement, lifts: LiftMap) -> dict:
    """The mod-l collapse of a Grothendieck element, keyed on (collapse_label_key, xi2)."""
    out: dict = {}
    for (label, xi2), coeff in x.terms.items():
        key = (collapse_label_key(label, lifts), xi2)
        old = out.get(key)
        out[key] = coeff if old is None else old + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def rl_reduce(x: GrothElement, lifts: LiftMap) -> dict:
    """Coefficient table of the mod-l collapse of a Grothendieck element.

    Keys are (collapsed label key, Xi twist) in ``Fraction`` twists; values
    are symbolic coefficients, and two elements reduce alike exactly when the
    tables agree.  ``conj2_predicate`` compares the ``rl_collapse`` behind it
    on tables built from rows.  The balance and the tables of ``coh_shriek``
    and ``coh_intermediate`` collapse label-free, through one cached
    collapse per column (``cohomology._column_classes``), whose test
    oracles are ``rl_collapse`` and this function.
    """
    return {fraction_class_key(k): v for k, v in rl_collapse(x, lifts).items()}
