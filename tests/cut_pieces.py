"""The pieces of a cut, derived from its ladder and its ks.

A ``jl_red.Cut`` keeps only its ks, sign, center and a2 shape.  Row j of
the ladder gives its top ``ks[j]`` positions to a1 and keeps the rest in
a2, so the tests rebuild the row-tagged pieces from the ks to check a cut
position by position.
"""

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
