"""JSON encodings of the public value types.

Half-integers travel as numerators (twice the value), so every payload is
pure-integer JSON.  Symbolic coefficients serialize as an integer when they
are one, otherwise as a product string like "2*m(Pi)*dxi" per monomial,
joined with " + ".  Each factor is an integer or an atom name of
``symbolic.ATOM_NAME`` (no blank, ``^``, ``*`` or ``+``), so every
coefficient written reads back as itself.

``dumps`` prints exactly the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` of the payload with every ``IrreducibleLabel`` read as
``_label_to_json`` and every ``GrothElement`` as ``groth_to_json`` encodes
it, so the CLI hands it elements as they are.  It walks the payload itself,
on every Python.  An element's terms are written straight from
``sorted_terms()`` in their key order ``coeff``, ``label``,
``xi_twist_numerator``, with no per-term dict.  A label is written from its
text, built once per label (table labels are interned per shape and recur
across queries) and re-indented once per depth; a coefficient's text is
built once per coefficient.  The walker takes str, int, bool, None, lists,
tuples, dicts with str keys and the two types; anything else, floats and
NaN included, and any non-str key raise TypeError.  ``sym_from_json`` reads
each coefficient string once per process.
"""

from __future__ import annotations

import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .segments import (
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    KIND_FORMAL,
    Multisegment,
    OpaqueFactor,
    Segment,
    half,
    require_int,
)
from .modl import SupercuspidalData, FieldData
from .symbolic import ATOM_NAME, Monomial, SymExpr, integer


# -- multisegments ----------------------------------------------------------


def multisegment_to_json(ms: Multisegment) -> list:
    return [[seg.cuspidal.id, seg.start2, seg.length] for seg in ms.segments]


def multisegment_from_json(data: list, cuspidals: dict[str, CuspidalLabel]) -> Multisegment:
    segs = []
    for cusp_id, start_num, length in data:
        cusp = cuspidals.get(cusp_id) or CuspidalLabel(cusp_id)
        segs.append(Segment(cusp, half(start_num), length))
    return Multisegment(segs)


# -- symbolic coefficients --------------------------------------------------


def sym_to_json(c: SymExpr):
    if c.is_integer():
        return c.as_integer()
    parts = []
    for mono, coeff in c.items():
        factors = [f"{name}^{p}" if p > 1 else name for name, p in mono]
        head = [] if coeff == 1 and factors else [str(coeff)]
        parts.append("*".join(head + factors))
    return " + ".join(parts)


# an integer, or an atom name with an optional power
_FACTOR = re.compile(rf"(-?\d+)|({ATOM_NAME.pattern})(?:\^(\d+))?")


def sym_from_json(data) -> SymExpr:
    """Read what ``sym_to_json`` writes; any other string, empty parts too, raises ValueError.

    Each part's integers multiply into its coefficient and its atom powers
    add up (``^0`` reads as 1) into one monomial; the parts are summed as
    one dict, and a single ``SymExpr`` is built from it.  A string is read
    once per process (``_read_coeff``, keyed on the string only, since a
    ``SymExpr`` is immutable); ints and bools never reach that cache, so
    ``True`` is still refused, and so is any value but an int or a string:
    JSON ``null``, ``NaN`` and ``Infinity`` are no atoms.
    """
    if isinstance(data, int):
        return integer(data)
    if not isinstance(data, str):
        raise ValueError(f"a coefficient is an integer or a string, not {data!r}")
    return _read_coeff(data)


# `tables`, 8,192 ops: 20,464 hits / 0 misses after set-up; a read costs ~7 us, a hit ~0.4 us (3.11).
@lru_cache(maxsize=1024)
def _read_coeff(data) -> SymExpr:
    terms: dict[Monomial, int] = {}
    for part in data.split("+"):
        coeff, powers = 1, {}
        for factor in part.split("*"):
            match = _FACTOR.fullmatch(factor.strip())
            if match is None:
                raise ValueError(f"cannot read {factor.strip()!r} in the coefficient {data!r}")
            number, name, power = match.groups()
            if number:
                coeff *= int(number)
            else:
                powers[name] = powers.get(name, 0) + int(power or 1)
        mono = tuple(sorted((name, p) for name, p in powers.items() if p))
        terms[mono] = terms.get(mono, 0) + coeff
    return SymExpr(terms)


# -- Grothendieck elements --------------------------------------------------


def _label_to_json(label: IrreducibleLabel) -> dict:
    factors = []
    for f in label.factors:
        if isinstance(f, OpaqueFactor):
            factors.append({"opaque": f.name, "rank": f.rank})
        else:
            factors.append({"segments": multisegment_to_json(f)})
    return {"factors": factors, "kind": label.kind}


def _label_from_json(data: dict, cuspidals: dict[str, CuspidalLabel]) -> IrreducibleLabel:
    factors = []
    for f in data["factors"]:
        if "opaque" in f:
            factors.append(OpaqueFactor(f["opaque"], f.get("rank", 0)))
        else:
            factors.append(multisegment_from_json(f["segments"], cuspidals))
    return IrreducibleLabel(factors, data.get("kind", KIND_FORMAL))


def groth_to_json(x: GrothElement) -> list[dict]:
    """The printed terms of ``x``, sorted by (twist, label): the data ``dumps`` writes for ``x``."""
    return [
        {"label": _label_to_json(lab), "xi_twist_numerator": tw, "coeff": sym_to_json(coeff)}
        for (lab, tw), coeff in x.sorted_terms()
    ]


def groth_from_json(data: list, cuspidals: dict[str, CuspidalLabel] | None = None) -> GrothElement:
    cuspidals = cuspidals or {}
    terms = {}
    for item in data:
        label = _label_from_json(item["label"], cuspidals)
        key = (label, require_int("xi_twist_numerator", item["xi_twist_numerator"]))
        coeff = sym_from_json(item["coeff"])
        terms[key] = terms.get(key, integer(0)) + coeff
    return GrothElement._checked(terms)


# -- mod-l data --------------------------------------------------------------


def supercuspidal_to_json(sc: SupercuspidalData) -> dict:
    return {
        "id": sc.label.id,
        "g": sc.label.g,
        "q": sc.field.q,
        "l": sc.field.l,
        "epsilon": sc.epsilon,
    }


def supercuspidal_from_json(data: dict) -> SupercuspidalData:
    return SupercuspidalData(
        CuspidalLabel(data["id"], g=data["g"]),
        FieldData(q=data["q"], l=data["l"]),
        epsilon=data["epsilon"],
    )


# -- indented output ---------------------------------------------------------

_SCALARS = {
    str: encode_basestring_ascii,  # the escaper json.dumps uses, so the same \u escapes
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# `tables`, 8,192 ops: 31,593 hits / 1,583 misses; table labels are interned, one object per label.
@lru_cache(maxsize=4096)
def _label_at(label: IrreducibleLabel, newline: str) -> str:
    """The text of ``_label_to_json(label)``, its lines after the first starting with ``newline``.

    Built once per label and depth: a stream prints each label at one depth.
    """
    parts: list[str] = []
    _walk(_label_to_json(label), parts.append, newline)
    return "".join(parts)


# `tables`, 8,192 ops: 33,132 hits / 44 misses, ~90 % by identity: a weight times +-1 is one object.
@lru_cache(maxsize=4096)
def _coeff_text(c: SymExpr) -> str:
    """The JSON text of ``sym_to_json(c)``, built once per coefficient."""
    data = sym_to_json(c)
    return _SCALARS[type(data)](data)


def _walk_terms(x: GrothElement, append, newline: str) -> None:
    """Append the text of ``groth_to_json(x)``: each term's fields in sorted key order, no dict built."""
    terms = x.sorted_terms()
    if not terms:
        append("[]")
        return
    inner = newline + "  "
    field = inner + "  "
    head, label_key = "{" + field + '"coeff": ', "," + field + '"label": '
    twist_key, sep = "," + field + '"xi_twist_numerator": ', "[" + inner
    for (label, tw), coeff in terms:
        text = _coeff_text(coeff) + label_key + _label_at(label, field) + twist_key + int.__repr__(tw)
        append(sep + head + text + inner + "}")
        sep = "," + inner
    append(newline + "]")


def _walk(obj, append, newline: str) -> None:
    """Append the text of ``obj``, whose lines after the first start with ``newline``."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        append(scalar(obj))
    elif kind is IrreducibleLabel:
        append(_label_at(obj, newline))
    elif kind is GrothElement:
        _walk_terms(obj, append, newline)
    elif kind is dict:
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(sep + encode_basestring_ascii(key) + ": ")
            _walk(value, append, inner)
            sep = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            append(sep)
            _walk(value, append, inner)
            sep = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, with labels and elements read as their JSON data."""
    parts: list[str] = []
    _walk(obj, parts.append, "\n")
    return "".join(parts)
