"""The pieces of a cut, derived from its ladder and its ks, and cuts summed or read back from sums.

A ``jl_red.Cut`` keeps only its ks, sign, center and a2 shape.  Row j of
the ladder gives its top ``ks[j]`` positions to a1 and keeps the rest in
a2, so the tests rebuild the row-tagged pieces from the ks to check a cut
position by position.  The package keeps no cut: ``jl_red._run_cuts`` sums
them as it walks.  ``signed_sum`` sums the cuts of the scan ``run_cuts`` the
same way, and on a rectangle ``rectangle_group_cuts`` reads the cuts back
out of the walk's sums.
"""

from htgroth.jl_red import Cut, Terms, frozen_terms, rectangle_shape_groups
from htgroth.segments import Multisegment

Piece = tuple[int, int, int]  # (2 * start, length, ladder row)


def cut_pieces(lad: Multisegment, ks) -> tuple[list[Piece], list[Piece]]:
    """(a1, a2) of the cut ``ks`` of ``lad``: a1 bottom to top, a2 in ladder row order."""
    a1, a2 = [], []
    for row, (seg, k) in enumerate(zip(lad.segments, ks)):
        if k:
            a1.append((seg.start2 + 2 * (seg.length - k), k, row))
        if k < seg.length:
            a2.append((seg.start2, seg.length - k, row))
    a1.sort()  # the pieces of a run do not overlap, so start order is run order
    return a1, a2


def shape_of(pieces: list[Piece]):
    """The sorted (start2, length) shape of row-tagged pieces, as ``Cut.a2`` holds it."""
    return tuple(sorted(piece[:2] for piece in pieces))


def signed_sum(cuts, xi_sign: int) -> Terms:
    """The terms of ``cuts`` as ``_run_cuts`` sums them: each sign added under (a2, xi_sign * center2)."""
    terms: dict = {}
    for cut in cuts:
        key = (cut.a2, xi_sign * cut.center2)
        terms[key] = terms.get(key, 0) + cut.sign
    return frozen_terms(terms)


def rectangle_group_cuts(s: int, t: int, left_units: int) -> tuple[Cut, ...]:
    """The cuts of the s-by-t rectangle at left rank ``left_units``, read back from ``rectangle_shape_groups``.

    On a rectangle the a2 shape fixes the ks: row j's remainder starts at
    2 - s - t + 2 j, and a row missing from a2 is taken whole.  No two cuts
    share a key, so each term is one cut: its sign is the +-1 coefficient and
    its center2 is -xi2.  The cuts come in the lexicographic order of their
    ks, as the scan ``run_cuts`` lists them.
    """
    cuts = []
    for c2, terms in rectangle_shape_groups(s, t, left_units).items():
        for (a2, xi2), c in terms:
            assert c in (1, -1) and xi2 == -c2, (s, t, left_units, a2, xi2, c)
            rest = {(start2 - (2 - s - t)) // 2: length for start2, length in a2}
            cuts.append(Cut(tuple(t - rest.get(j, 0) for j in range(s)), c, c2, a2))
    return tuple(sorted(cuts, key=lambda cut: cut.ks))
