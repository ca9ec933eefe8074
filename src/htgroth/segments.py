"""Zelevinsky segments, multisegments, ladders and formal Grothendieck elements.

Twists live in (1/2)Z, never in floating point.  ``twice`` and ``half`` convert
between a half-integer and its doubled int, refusing anything else; segments,
multisegments, labels and the Xi slot of Grothendieck terms key on doubled ints,
and a ``fractions.Fraction`` is built only where a twist is printed or returned.
A segment ``[a, a+len-1]`` on the line of a cuspidal ``pi`` stands for the set
{pi{a}, pi{a+1}, ...}; an irreducible representation is labelled by a multiset
of multisegments (its factors) plus a coarse kind tag.  Grothendieck elements
are finite formal sums of (label, xi2) pairs, xi2 twice the Xi exponent, with
coefficients in the symbolic ring of :mod:`htgroth.symbolic`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

from .symbolic import Immutable, SymExpr, Value, integer, require_int


# Saves ~6 us per `towers` op and ~2 us per `tables` op: a hit takes ~0.14 us, a `Fraction` ~0.8 us.
@lru_cache(maxsize=1024)
def half(numerator: int) -> Fraction:
    """The half-integer numerator/2, built once per int numerator; anything else raises ValueError."""
    return Fraction(require_int("numerator", numerator), 2)


def twice(x: Union[int, Fraction]) -> int:
    """2x as an int, for an int or a Fraction x of denominator 1 or 2.

    Anything else (floats, strings, bools, thirds) raises ValueError: a
    doubled start or twist is never a silent rounding.
    """
    if isinstance(x, Fraction):
        if x.denominator > 2:
            raise ValueError(f"{x} is not a half-integer")
        return x.numerator * (2 // x.denominator)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{x!r} is not a half-integer")
    return 2 * x


def ensure_half(x: Union[int, Fraction]) -> Fraction:
    """``x`` as a half-integer Fraction; a Fraction given is returned as it is."""
    n = twice(x)
    return x if type(x) is Fraction else half(n)


class Keyed(Immutable):
    """Base of the values that key caches: equal by the key ``_key``, hashed as the kept ``_hash``.

    A subclass sets both once, at construction.  Two values are equal only
    when they are of the same class with equal keys; against any other
    class ``__eq__`` returns NotImplemented, so a subclass instance is
    unequal to a base instance, as for ``Value``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash


class CuspidalLabel(Keyed, Value):
    """Opaque label of an irreducible cuspidal of GL_g.

    Labels compare equal exactly when their id, ``g`` (the rank) and
    ``e_pi`` (the unramified fixator count) all agree: ranks depend on ``g``
    and the cohomology scalar on ``e_pi``, so caches keyed by labels must
    tell them apart.  Immutable, so a cached value keyed on a label never
    goes stale; like a segment's, its key (id, g, e_pi) and hash are
    computed once, at construction.
    """

    __slots__ = ("id", "g", "e_pi", "_key", "_hash")
    _fields = ("id", "g", "e_pi")

    def __init__(self, id: str, g: int = 1, e_pi: int = 1):
        if not isinstance(id, str):
            raise ValueError(f"a cuspidal id must be a string, not {id!r}")
        if require_int("g", g) < 1 or require_int("e_pi", e_pi) < 1:
            raise ValueError("g and e_pi must be positive")
        key = (id, g, e_pi)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "e_pi", e_pi)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __repr__(self):
        e_pi = f", e_pi={self.e_pi}" if self.e_pi != 1 else ""  # unequal labels print apart
        return f"CuspidalLabel({self.id!r}, g={self.g}{e_pi})"


class Segment(Keyed, Value):
    """The consecutive run pi{start}, ..., pi{start+length-1}.

    Immutable.  The start is stored once, doubled, in the int ``start2``;
    ``start`` and ``end`` are its half-integer views.  Its key (cuspidal id,
    start2, length, g, e_pi) orders the segments of a multisegment, the
    whole cuspidal key last so that it only breaks ties, and decides
    equality; with its hash it is computed once, at construction.
    ``Segment._of2(pi, start2, length)`` builds one unchecked.
    """

    __slots__ = ("cuspidal", "start2", "length", "_key", "_hash")
    _fields = ("cuspidal", "start", "length")

    def __init__(self, cuspidal: CuspidalLabel, start: Union[int, Fraction], length: int):
        if require_int("length", length) < 1:
            raise ValueError("segment length must be >= 1")
        self._set(cuspidal, twice(start), length)

    def _set(self, cuspidal: CuspidalLabel, start2: int, length: int) -> "Segment":
        key = (cuspidal.id, start2, length, cuspidal.g, cuspidal.e_pi)
        object.__setattr__(self, "cuspidal", cuspidal)
        object.__setattr__(self, "start2", start2)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        return self

    @classmethod
    def _of2(cls, cuspidal: CuspidalLabel, start2: int, length: int) -> "Segment":
        return object.__new__(cls)._set(cuspidal, start2, length)

    @property
    def end2(self) -> int:
        return self.start2 + 2 * (self.length - 1)

    @property
    def start(self) -> Fraction:
        return half(self.start2)

    @property
    def end(self) -> Fraction:
        return half(self.end2)

    @property
    def rank(self) -> int:
        return self.length * self.cuspidal.g

    def twist(self, n) -> "Segment":
        return Segment._of2(self.cuspidal, self.start2 + twice(n), self.length)

    def __repr__(self):
        return f"[{self.start},{self.end}]_{self.cuspidal.id}"


class Multisegment(Keyed):
    """A multiset of segments, stored in canonical sorted order.

    The key, which orders and compares them, and the hash are computed once,
    at construction, from the segments' keys: multisegments key the
    Grothendieck sums, which look them up many times; ``_in_order`` wraps
    segments already in key order.
    """

    __slots__ = ("segments", "_key", "_hash")

    def __init__(self, segments: Iterable[Segment] = ()):
        self._set(tuple(sorted(segments, key=_key_of)))

    def _set(self, segments: tuple[Segment, ...]) -> "Multisegment":
        keys = tuple(s._key for s in segments)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "_key", ("segment",) + keys)
        object.__setattr__(self, "_hash", hash(keys))
        return self

    @classmethod
    def _in_order(cls, segments: tuple[Segment, ...]) -> "Multisegment":
        return object.__new__(cls)._set(segments)

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.segments)

    def is_empty(self) -> bool:
        return not self.segments

    def cuspidal_lines(self) -> list[CuspidalLabel]:
        seen: list[CuspidalLabel] = []
        for s in self.segments:
            if s.cuspidal not in seen:
                seen.append(s.cuspidal)
        return seen

    def is_ladder(self) -> bool:
        """True when some ordering has strictly increasing starts AND ends.

        With segments sorted by (start, length), strict increase of both
        coordinates is equivalent to the existence of such an ordering.
        Segments must sit on a single cuspidal line.
        """
        if not self.segments:
            return True
        if len(self.cuspidal_lines()) > 1:
            return False
        segs = self.segments
        for a, b in zip(segs, segs[1:]):
            if not (a.start2 < b.start2 and a.end2 < b.end2):
                return False
        return True

    def twist(self, n) -> "Multisegment":
        n2 = twice(n)  # shifting every start keeps the key order
        segs = tuple(Segment._of2(s.cuspidal, s.start2 + n2, s.length) for s in self.segments)
        return Multisegment._in_order(segs)

    def __reduce__(self):
        return Multisegment._in_order, (self.segments,)

    def __len__(self):
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.segments)) + "}"


class OpaqueFactor(Keyed, Value):
    """A factor we do not resolve into segments (profile tails, D-side labels).

    Like a multisegment, it keeps its sort key ``_key`` and its hash, computed at construction.
    """

    __slots__ = ("name", "rank", "_key", "_hash")
    _fields = ("name", "rank")

    def __init__(self, name: str, rank: int = 0):
        super().__init__(name, require_int("rank", rank))
        object.__setattr__(self, "_key", ("~opaque", name, rank))
        object.__setattr__(self, "_hash", hash((name, rank)))

    def twist(self, n) -> "OpaqueFactor":
        # opaque factors absorb twists silently; callers that care use the
        # external Xi slot instead
        return self


Factor = Union[Multisegment, OpaqueFactor]

# the sort key and the hash kept on a segment or a factor; every multisegment key sorts first
_key_of = attrgetter("_key")
_factor_hash = attrgetter("_hash")


KIND_GENERIC = "generic-product"
KIND_SPEH_ST = "speh-of-st-product"
KIND_FORMAL = "formal"

_KINDS = (KIND_GENERIC, KIND_SPEH_ST, KIND_FORMAL)


class IrreducibleLabel(Immutable):
    """Label of an irreducible: a multiset of factors plus a kind tag.

    The factors are kept sorted by their keys (sorted only when there are
    several).  Like a multisegment, a label computes its hash once, at
    construction, from the hashes its factors keep, and is immutable, since
    the label caches share it; ``unit()`` is one label.  It is equal only to
    a label of the same class with equal factors and kind.  Its sort key is
    kept in ``_sort_key`` on the first sort that reads it: most labels are
    never sorted, and keeping it at construction costs ~0.6 us a label.
    """

    __slots__ = ("factors", "kind", "_hash", "_sort_key")

    def __init__(self, factors: Iterable[Factor] = (), kind: str = KIND_FORMAL):
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        factors = tuple(factors)
        if len(factors) > 1:
            factors = tuple(sorted(factors, key=_key_of))
        elif not factors:
            kind = KIND_GENERIC  # the empty product is the unit
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_hash", hash((tuple(map(_factor_hash, factors)), kind)))

    @staticmethod
    def unit() -> "IrreducibleLabel":
        return _UNIT

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def twist(self, n) -> "IrreducibleLabel":
        return IrreducibleLabel((f.twist(n) for f in self.factors), self.kind)

    def multisegments(self) -> list[Multisegment]:
        return [f for f in self.factors if isinstance(f, Multisegment)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors and self.kind == other.kind

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return IrreducibleLabel, (self.factors, self.kind)

    def __repr__(self):
        if not self.factors:
            return "<1>"
        return " x ".join(
            f.name if isinstance(f, OpaqueFactor) else repr(f) for f in self.factors
        )


_UNIT = IrreducibleLabel((), KIND_GENERIC)


def label_of_multisegment(ms: Multisegment, kind: str = KIND_FORMAL) -> IrreducibleLabel:
    if ms.is_empty():
        return IrreducibleLabel.unit()
    return IrreducibleLabel((ms,), kind)


class GrothElement(Immutable):
    """Finite sum of (label, Xi-twist) pairs with symbolic coefficients.

    The Xi slot is a half-integer exponent k meaning a factor Xi^k; the
    transfer maps also use it to carry the character |.|^{-k} of F_v^x
    attached to a term, so a term is really "label tensor (twist data)".
    ``terms`` keys on (label, xi2), the int xi2 = 2k; the constructors take k and double it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[IrreducibleLabel, Fraction], SymExpr] | None = None):
        pruned = {}
        for (label, tw), coeff in (terms or {}).items():
            coeff = coeff if isinstance(coeff, SymExpr) else integer(coeff)
            if not coeff.is_zero():
                pruned[(label, twice(tw))] = coeff
        object.__setattr__(self, "terms", pruned)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "GrothElement":
        return GrothElement()

    @staticmethod
    def of(label: IrreducibleLabel, twist=0, coeff: SymExpr | int = 1) -> "GrothElement":
        return GrothElement({(label, twist): coeff})

    @staticmethod
    def one() -> "GrothElement":
        return GrothElement.of(IrreducibleLabel.unit())

    # -- module structure ----------------------------------------------

    @classmethod
    def _checked(cls, terms: dict) -> "GrothElement":
        """Wrap ``terms``, whose keys are already (label, xi2) pairs.

        Only drops the zero coefficients, in place: unlike the public
        constructor it neither re-validates nor re-hashes the keys.
        """
        for key in [key for key, c in terms.items() if c.is_zero()]:
            del terms[key]
        element = object.__new__(cls)
        object.__setattr__(element, "terms", terms)
        return element

    def __add__(self, other: "GrothElement") -> "GrothElement":
        terms = dict(self.terms)
        for key, c in other.terms.items():
            old = terms.get(key)
            terms[key] = c if old is None else old + c
        return GrothElement._checked(terms)

    def __neg__(self) -> "GrothElement":
        return GrothElement._checked({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GrothElement") -> "GrothElement":
        return self + (-other)

    def scale(self, c: SymExpr | int) -> "GrothElement":
        c = c if isinstance(c, SymExpr) else integer(c)
        return GrothElement._checked({k: coeff * c for k, coeff in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    # -- twists ----------------------------------------------------------

    def twist(self, n) -> "GrothElement":
        """Shift every segment start in every label by n (internal twist)."""
        n = ensure_half(n)
        return GrothElement._checked(
            {(label.twist(n), tw): c for (label, tw), c in self.terms.items()}
        )

    # -- misc -------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], _kept_sort_key(kv[0][0])))

    def __eq__(self, other):
        return isinstance(other, GrothElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.terms.items()))

    def __reduce__(self):  # the keys are already (label, xi2) pairs
        return GrothElement._checked, (dict(self.terms),)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (label, tw), c in self.sorted_terms():
            xi = f" Xi^{half(tw)}" if tw else ""
            bits.append(f"({c})*{label!r}{xi}")
        return " + ".join(bits)


def _kept_sort_key(label: IrreducibleLabel):
    """The label's kind and its factors' keys, computed on the first call and kept on the label."""
    try:
        return label._sort_key
    except AttributeError:
        key = (label.kind, tuple(map(_key_of, label.factors)))
        object.__setattr__(label, "_sort_key", key)
        return key


# ---------------------------------------------------------------------------
# constructors for the classical ladder representations
# ---------------------------------------------------------------------------


def twist(x, n):
    """Twist by the unramified character q^{-n val(det)}; group action of (1/2)Z."""
    n = ensure_half(n)
    if isinstance(x, (Segment, Multisegment, IrreducibleLabel, GrothElement)):
        return x.twist(n)
    raise TypeError(f"cannot twist {type(x).__name__}")


def steinberg_multisegment(pi: CuspidalLabel, t: int) -> Multisegment:
    if t < 1:
        raise ValueError("t must be >= 1")
    return Multisegment([Segment(pi, half(1 - t), t)])


def make_steinberg(pi: CuspidalLabel, t: int) -> IrreducibleLabel:
    """St_t(pi): the single segment [-(t-1)/2, (t-1)/2], centered at 0."""
    return IrreducibleLabel((steinberg_multisegment(pi, t),), KIND_GENERIC)


def speh_st_multisegment(pi: CuspidalLabel, s: int, t: int) -> Multisegment:
    """The s-by-t rectangle ladder: s segments of length t, staircase starts."""
    if require_int("s", s) < 1 or require_int("t", t) < 1:
        raise ValueError("s and t must be >= 1")
    return Multisegment._in_order(tuple(Segment._of2(pi, 2 - s - t + 2 * j, t) for j in range(s)))


def make_speh_st(pi: CuspidalLabel, s: int, t: int) -> IrreducibleLabel:
    """Speh_s(St_t(pi)): the unique irreducible sub of the staircase product."""
    return IrreducibleLabel((speh_st_multisegment(pi, s, t),), KIND_SPEH_ST)


def make_speh(pi: CuspidalLabel, s: int) -> IrreducibleLabel:
    return make_speh_st(pi, s, 1)


# ---------------------------------------------------------------------------
# Jacquet cuts of ladders
# ---------------------------------------------------------------------------


def _rectangle_shape(lad: Multisegment) -> tuple[int, int] | None:
    """(s, t) when lad is an s-by-t rectangle ladder on one line, else None."""
    if lad.is_empty() or not lad.is_ladder():
        return None
    lengths = {seg.length for seg in lad.segments}
    if len(lengths) != 1:
        return None
    t = lengths.pop()
    starts2 = [seg.start2 for seg in lad.segments]
    if any(b - a != 2 for a, b in zip(starts2, starts2[1:])):
        return None
    return (len(lad.segments), t)


def _suffix_cut(lad: Multisegment, ks: Sequence[int]) -> tuple[Multisegment, Multisegment]:
    """The halves (a1, a2) of a suffix tuple: a1 takes the top k_j twists of row j, a2 the rest."""
    a1, a2 = [], []
    for seg, k in zip(lad.segments, ks):
        if k:  # a1 starts at start + length - k
            a1.append(Segment._of2(seg.cuspidal, seg.start2 + 2 * (seg.length - k), k))
        if seg.length - k:
            a2.append(Segment._of2(seg.cuspidal, seg.start2, seg.length - k))
    return Multisegment(a1), Multisegment(a2)


def cut_tuples(lengths: Sequence[int], total: int) -> Iterable[tuple[int, ...]]:
    """All tuples (k_j) with 0 <= k_j <= lengths[j] and sum k_j = total, in lexicographic order.

    Walks the prefixes with a stack, as ``box_partitions`` does, so any number
    of rows works.  Row j takes k_j >= total left - (the lengths after j), so
    every prefix completes.
    """
    after = list(itertools.accumulate(reversed(lengths), initial=0))[::-1]  # sum(lengths[j:])
    stack = [((), total)]
    while stack:
        acc, rest = stack.pop()
        j = len(acc)
        if j == len(lengths):
            if rest == 0:
                yield acc
            continue
        first, last = max(0, rest - after[j + 1]), min(lengths[j], rest)
        stack.extend((acc + (k,), rest - k) for k in range(last, first - 1, -1))


def ladder_cuts(lad: Multisegment, left_rank: int) -> list[tuple[Multisegment, Multisegment]]:
    """Enumerate the Jacquet cut pairs (a1, a2) of a ladder at a given rank.

    a1 collects a suffix piece (the larger twists) of size k_j from the j-th
    segment, in the lexicographic order of the tuples.  For an s-by-t
    rectangle the admissible tuples are the partitions in the box, read
    from ``box_partitions``; a general ladder keeps the suffix tuples whose
    halves are again ladders.  Absolute segment coordinates are kept on
    both sides, so no normalization twist appears in the output.
    """
    if not lad.is_ladder():
        raise ValueError("ladder_cuts needs a ladder")
    lines = lad.cuspidal_lines()
    g = lines[0].g if lines else 1
    if left_rank < 0:
        raise ValueError("left_rank must be >= 0")
    if left_rank % g:
        raise ValueError(f"left_rank {left_rank} is not a multiple of g={g}")
    k_total = left_rank // g
    lengths = [seg.length for seg in lad.segments]
    if k_total > sum(lengths):
        raise ValueError("left_rank exceeds the total rank")

    shape = _rectangle_shape(lad)
    if shape is not None:
        return [_suffix_cut(lad, ks) for ks in box_partitions(*shape, k_total)]
    out = []
    for ks in cut_tuples(lengths, k_total):
        a1, a2 = _suffix_cut(lad, ks)
        if a1.is_ladder() and a2.is_ladder():
            out.append((a1, a2))
    return out


# ---------------------------------------------------------------------------
# formal product and partitions
# ---------------------------------------------------------------------------


def _product_kind(a: IrreducibleLabel, b: IrreducibleLabel) -> str:
    """The kind of a x b: formal when either is, or when their segments share a cuspidal id."""
    kinds = (a.kind, b.kind)
    if KIND_FORMAL in kinds:
        return KIND_FORMAL
    ids = {s.cuspidal.id for f in a.factors if isinstance(f, Multisegment) for s in f.segments}
    if ids and any(
        s.cuspidal.id in ids for f in b.factors if isinstance(f, Multisegment) for s in f.segments
    ):
        return KIND_FORMAL  # a crude linkage test: it only degrades the kind
    return KIND_SPEH_ST if KIND_SPEH_ST in kinds else KIND_GENERIC


def label_product(a: IrreducibleLabel, b: IrreducibleLabel) -> IrreducibleLabel:
    """The label of the formal product a x b: the factors of both, of the kind ``_product_kind`` gives."""
    return IrreducibleLabel(a.factors + b.factors, _product_kind(a, b))


def groth_product(a: GrothElement, b: GrothElement) -> GrothElement:
    """Bilinear formal product; labels concatenate factor multisets."""
    out: dict = {}
    for (la, ta), ca in a.terms.items():
        for (lb, tb), cb in b.terms.items():
            key, c = (label_product(la, lb), ta + tb), ca * cb
            old = out.get(key)
            out[key] = c if old is None else old + c
    return GrothElement._checked(out)


class Partition(Value):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(require_int("a part", p) < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        super().__init__(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)


def dominance_leq(p: Partition, q: Partition) -> bool:
    """Dominance order: every partial sum of p is <= the one of q."""
    if p.size != q.size:
        raise ValueError("dominance compares partitions of equal size")
    acc_p = acc_q = 0
    for i in range(max(len(p.parts), len(q.parts))):
        acc_p += p.parts[i] if i < len(p.parts) else 0
        acc_q += q.parts[i] if i < len(q.parts) else 0
        if acc_p > acc_q:
            return False
    return True


def box_partitions(s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """Weakly increasing tuples (k_1 <= ... <= k_s), 0 <= k_j <= t, sum k, in lexicographic order.

    Walks the prefixes with a stack, not by recursion, so any number of rows
    works.  With n rows left and ``rest`` to place, the next row takes
    rest - t (n - 1) <= k_j <= min(t, rest // n): the rows after it can then
    always complete, so no prefix is extended in vain.
    """
    out, stack = [], [((), 0, k)]
    while stack:
        acc, lo, rest = stack.pop()
        n = s - len(acc)
        if n == 0:
            if rest == 0:
                out.append(acc)
            continue
        first, last = max(lo, rest - t * (n - 1)), min(t, rest // n)
        stack.extend((acc + (k_j,), k_j, rest - k_j) for k_j in range(last, first - 1, -1))
    return out
