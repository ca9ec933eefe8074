"""Reference implementations in ``Fraction`` twists, for the differential tests.

The package keys Grothendieck terms and mod-l classes on doubled ints
(``xi2`` = twice the Xi exponent, doubled segment starts).  The functions
here compute the same values the plain way: a Grothendieck element is a dict
keyed on (label, Xi exponent as a ``Fraction``), and a collapse keeps every
twist as a ``Fraction``.  ``fraction_terms`` reads a ``GrothElement`` into
that form.  ``product_kind_pairwise`` keeps the pairwise rule that once
decided the kind of a label product, as an oracle for ``_product_kind``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from htgroth.jl_red import SignedCharacter
from htgroth.jsonio import _label_from_json, _label_to_json, sym_from_json, sym_to_json
from htgroth.modl import line_key
from htgroth.segments import (
    KIND_FORMAL,
    KIND_GENERIC,
    KIND_SPEH_ST,
    GrothElement,
    IrreducibleLabel,
    Multisegment,
    OpaqueFactor,
    _kept_sort_key,
    _suffix_cut,
    cut_tuples,
    half,
    label_product,
    twice,
)
from htgroth.symbolic import integer

FractionTerms = dict  # (IrreducibleLabel, Fraction) -> SymExpr, no zero coefficient


def fraction_terms(x: GrothElement) -> FractionTerms:
    """The terms of ``x`` keyed on (label, Xi exponent as a Fraction)."""
    return {(label, half(xi2)): c for (label, xi2), c in x.terms.items()}


def _add(out: dict, key, c) -> None:
    out[key] = out.get(key, integer(0)) + c


def _pruned(out: dict) -> dict:
    return {key: c for key, c in out.items() if not c.is_zero()}


def groth_product_fraction(a: FractionTerms, b: FractionTerms) -> FractionTerms:
    """Bilinear formal product: labels concatenate, Xi exponents add."""
    out: dict = {}
    for (la, ta), ca in a.items():
        for (lb, tb), cb in b.items():
            _add(out, (label_product(la, lb), ta + tb), ca * cb)
    return _pruned(out)


def product_kind_pairwise(a: IrreducibleLabel, b: IrreducibleLabel) -> str:
    """The kind of a x b: formal when a multisegment of a and one of b share a cuspidal id, or when
    either kind is formal; else speh-of-st when either is, else generic."""
    for ma, mb in itertools.product(a.multisegments(), b.multisegments()):
        if {c.id for c in ma.cuspidal_lines()} & {c.id for c in mb.cuspidal_lines()}:
            return KIND_FORMAL
    if KIND_FORMAL in (a.kind, b.kind):
        return KIND_FORMAL
    if KIND_SPEH_ST in (a.kind, b.kind):
        return KIND_SPEH_ST
    return KIND_GENERIC


def run_data_fraction(ms: Multisegment):
    """(cuspidal, start, size, center) when ms covers a run once, else None: its points, counted."""
    if ms.is_empty():
        return None
    lines = ms.cuspidal_lines()
    if len(lines) > 1:
        return None
    support: dict[Fraction, int] = {}
    for seg in ms.segments:
        for k in range(seg.length):
            support[seg.start + k] = support.get(seg.start + k, 0) + 1
    if any(mult != 1 for mult in support.values()):
        return None
    points = sorted(support)
    if any(b - a != 1 for a, b in zip(points, points[1:])):
        return None
    center = (points[0] + points[-1]) / 2
    return lines[0], points[0], len(points), center


def r_tau_sign_fraction(a1: Multisegment) -> SignedCharacter:
    """``r_tau_sign`` from ``run_data_fraction``: the sign of the segment count, |.|^center."""
    run = run_data_fraction(a1)
    if run is None:
        raise ValueError(f"transfer vanishes: {a1!r} is not a multiplicity-one consecutive run")
    k2 = 2 * run[3]
    if k2.denominator != 1:
        raise ValueError("run center is not half-integral")
    return SignedCharacter(sign=(-1) ** (len(a1.segments) - 1), k=int(k2))


def red_tau_fraction(pi, depth: int, x: FractionTerms) -> FractionTerms:
    """``red_tau``: every suffix tuple of every factor on pi, kept when a1 is a run."""
    out: dict = {}
    for (label, tw), coeff in x.items():
        for idx, factor in enumerate(label.factors):
            if not isinstance(factor, Multisegment) or factor.cuspidal_lines() != [pi]:
                continue
            rest = label.factors[:idx] + label.factors[idx + 1 :]
            lengths = [seg.length for seg in factor.segments]
            for ks in cut_tuples(lengths, depth):
                a1, a2 = _suffix_cut(factor, ks)
                try:
                    transfer = r_tau_sign_fraction(a1)
                except ValueError:
                    continue  # the transfer vanishes on a1
                merged = IrreducibleLabel(rest + ((a2,) if a2.segments else ()), KIND_FORMAL)
                _add(out, (merged, tw + transfer.exponent), coeff * transfer.sign)
    return _pruned(out)


def collapse_segment_key_fraction(start: Fraction, length: int, line: tuple):
    """The fingerprint of a segment from a ``Fraction`` start; twists fold mod epsilon."""
    if line[0] == "raw":
        return ("raw", line[1], length, start)
    _, base_id, u, stretch, eps = line
    return ("base", base_id, u, length * stretch, start * stretch % eps)


def collapse_label_key_fraction(label: IrreducibleLabel, lifts) -> tuple:
    """The mod-l class key of a label, with ``Fraction`` starts."""
    parts = []
    for factor in label.factors:
        if isinstance(factor, OpaqueFactor):
            parts.append(("opaque", factor.name, factor.rank))
            continue
        for seg in factor.segments:
            line = line_key(seg.cuspidal.id, lifts)
            parts.append(collapse_segment_key_fraction(seg.start, seg.length, line))
    return tuple(sorted(parts))


def rl_reduce_fraction(x: FractionTerms, lifts) -> dict:
    """The mod-l collapse table, keyed on (collapsed label key, Xi exponent), in Fractions."""
    out: dict = {}
    for (label, tw), coeff in x.items():
        _add(out, (collapse_label_key_fraction(label, lifts), tw), coeff)
    return _pruned(out)


def groth_to_json_fraction(x: FractionTerms) -> list:
    """``groth_to_json`` of Fraction-keyed terms: sorted by (twist, label), twists doubled."""
    ordered = sorted(x.items(), key=lambda kv: (kv[0][1], _kept_sort_key(kv[0][0])))
    return [
        {"label": _label_to_json(label), "xi_twist_numerator": twice(tw), "coeff": sym_to_json(c)}
        for (label, tw), c in ordered
    ]


def groth_from_json_fraction(data: list, cuspidals: dict) -> FractionTerms:
    """``groth_from_json`` into Fraction-keyed terms: each twist numerator halved."""
    out: dict = {}
    for item in data:
        label = _label_from_json(item["label"], cuspidals)
        _add(out, (label, half(item["xi_twist_numerator"])), sym_from_json(item["coeff"]))
    return _pruned(out)
