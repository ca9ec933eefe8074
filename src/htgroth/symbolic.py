"""Exact coefficient ring: integer combinations of monomials in opaque atoms.

Global multiplicities such as automorphic multiplicities m(Pi), archimedean
dimensions d_xi(Pi_oo) or the class-kernel scalar never get numeric values;
they are commuting positive symbols.  Equality of two combinations is
coefficient-wise equality of the monomial dictionaries, so every comparison
in the package is exact.

The bases of the package's immutable classes, ``Immutable`` and ``Value``,
live here too, so the label-free layers (:mod:`htgroth.diagrams` and
:mod:`htgroth.cells`) import nothing beyond this module.
"""

from __future__ import annotations

import re
from operator import attrgetter
from types import MemberDescriptorType
from typing import Iterable, Mapping, Union

# an atom name: a letter or "_" first, then no blank and none of "^", "*", "+",
# the characters a written coefficient uses around its names
ATOM_NAME = re.compile(r"[^\W\d][^\s^*+]*")

# a monomial is a sorted tuple of (atom_name, power) with power >= 1
Monomial = tuple[tuple[str, int], ...]

_ONE_MONO: Monomial = ()


def require_int(name: str, value) -> int:
    """``value`` when it is an int; bools are refused, since JSON true/false read as 1 and 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def atom_name(name: str) -> str:
    """``name`` when it is an atom name (``ATOM_NAME``), else ValueError."""
    if not ATOM_NAME.fullmatch(name):
        raise ValueError(f"{name!r} is no atom name: a letter or _ first, no blank, ^, * or +")
    return name


def _mul_mono(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers: dict[str, int] = {}
    for name, p in a:
        powers[name] = powers.get(name, 0) + p
    for name, p in b:
        powers[name] = powers.get(name, 0) + p
    return tuple(sorted(powers.items()))


class Immutable:
    """Slotted base refusing attribute assignment and deletion once ``__init__`` is done."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")


class Value(Immutable):
    """Base of the immutable value classes: equal and hashed by their field tuple.

    A subclass names its fields, in order, in ``_fields``, each readable as
    an attribute, and holds its state in ``__slots__``; assigning or deleting
    an attribute raises ``AttributeError``.  When every field is a slot,
    ``Value.__init__`` sets the fields, by position or by name, through the
    slots' own setters, kept in ``_setters``: a class with checks runs them
    and calls it, and a class with a field that is no slot, or with state
    beyond its fields, may set its slots itself.  As for a frozen
    dataclass, two values are equal only when they are of the same class
    with equal field tuples, the hash is the hash of the field tuple, and
    ``repr`` is ``Name(f=v, ...)``; ``copy`` and ``pickle`` rebuild a value
    through its ``__init__``, which takes the fields in order.  Each class
    reads its fields through one ``operator.attrgetter``, built when the
    class is created.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a plain attrgetter is no descriptor: read as self._values, it is called on self
        cls._values = attrgetter(*cls._fields)
        slots = [getattr(cls, name, None) for name in cls._fields]
        if all(isinstance(slot, MemberDescriptorType) for slot in slots):
            cls._setters = tuple(slot.__set__ for slot in slots)

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):  # bound as a call binds: each field once, none left out
            fields = self._fields
            if named.keys() - fields[len(values):] or len(values) + len(named) != len(fields):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}, by position or by name")
            values += tuple(named[name] for name in fields[len(values):])
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _astuple(self) -> tuple:
        values = self._values(self)
        return (values,) if len(self._fields) == 1 else values  # one name: a bare value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class SymExpr(Immutable):
    """Immutable Z-linear combination of atom monomials, none with a zero coefficient.

    The hash is ``hash(frozenset(items))``, except that an integer (at most
    the one monomial ``()``) hashes as its int, which it equals; it is
    computed on first use and kept in ``_hash``, None until then.  The
    public constructor drops zero coefficients; ``_of`` wraps a dict that
    holds none, and the ring operations build their results through it.

    A product with the int 1 is the expression itself, and one with -1 its
    negation kept in ``_neg``, built on first use like the hash (None until
    then): a bound coefficient ``weight * c`` with c = +-1 is then one shared
    object, whose hash is kept and which caches keyed on it find by identity.
    ``-e`` and every other product are built anew.
    """

    __slots__ = ("_terms", "_hash", "_neg")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        _set_terms(self, {m: c for m, c in (terms or {}).items() if c != 0})
        _set_hash(self, None)
        _set_neg(self, None)

    @classmethod
    def _of(cls, terms: dict[Monomial, int]) -> "SymExpr":
        """Wrap ``terms``, which holds no zero coefficient, unchecked and uncopied."""
        e = _new(cls)
        _set_terms(e, terms)
        _set_hash(e, None)
        _set_neg(e, None)
        return e

    # -- constructors -------------------------------------------------

    @staticmethod
    def integer(n: int) -> "SymExpr":
        return SymExpr._of({_ONE_MONO: n} if require_int("a coefficient", n) else {})

    @staticmethod
    def atom(name: str, power: int = 1) -> "SymExpr":
        atom_name(name)
        if require_int("an atom power", power) < 0:
            raise ValueError("atom powers must be nonnegative")
        if power == 0:
            return SymExpr.integer(1)
        return SymExpr._of({((name, power),): 1})

    # -- ring structure -----------------------------------------------

    @staticmethod
    def _coerce(x: Union["SymExpr", int]) -> "SymExpr":
        return x if isinstance(x, SymExpr) else SymExpr.integer(x)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            c += terms.get(m, 0)
            if c:
                terms[m] = c
            else:  # c cancels a term of self
                del terms[m]
        return SymExpr._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return SymExpr._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:  # a scalar: no coercion, no monomial products
            if other == 1:
                return self
            if other == -1:
                neg = self._neg
                if neg is None:
                    neg = -self
                    _set_neg(self, neg)
                return neg
            return SymExpr._of({m: c * other for m, c in self._terms.items()} if other else {})
        other = self._coerce(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mul_mono(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return SymExpr(terms)

    __rmul__ = __mul__

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_integer(self) -> bool:
        terms = self._terms  # no zero coefficient is kept: an integer has at most one term
        return not terms or (len(terms) == 1 and _ONE_MONO in terms)

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self._terms.get(_ONE_MONO, 0)

    def atoms(self) -> set[str]:
        return {name for m in self._terms for name, _ in m}

    def items(self) -> Iterable[tuple[Monomial, int]]:
        return sorted(self._terms.items())

    # -- equality -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({_ONE_MONO: other} if other else {})
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:  # first use; an integer equals its int, so it hashes as that int
            terms = self._terms
            h = hash(terms.get(_ONE_MONO, 0) if self.is_integer() else frozenset(terms.items()))
            _set_hash(self, h)
        return h

    def __reduce__(self):  # rebuilt from its terms; the hash is recomputed
        return SymExpr, (self._terms,)

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self._terms.items()):
            factors = [f"{name}^{p}" if p > 1 else name for name, p in m]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


_new = object.__new__
_set_terms = SymExpr._terms.__set__
_set_hash = SymExpr._hash.__set__
_set_neg = SymExpr._neg.__set__


def atom(name: str) -> SymExpr:
    return SymExpr.atom(name)


def integer(n: int) -> SymExpr:
    return SymExpr.integer(n)
