"""The closed-form L3 expansions of ``cohomology`` against their position-by-position oracles.

``attachment_oracle`` lists every position of the peeled block and of a2,
keys every edge, and takes a product over the edges it leaves free; the
block-append oracles ``hij_oracle``/``se2_oracle`` are the two expansions
written out separately; ``shriek_reference`` runs the se2 expansion's full
m-loop through ``attachment_oracle`` on every cut of every block.
``cohomology`` computes each in one closed form, and peels no cut.  The
package keeps no cut, so the cuts of a rectangle are read back from its
summed shapes (``cut_pieces.rectangle_group_cuts``).
"""

import functools
import itertools

from htgroth.cohomology import _shriek_core, hij_expand, se2_expand
from htgroth.jl_red import Cut, frozen_terms, marked_cells
from htgroth.segments import CuspidalLabel, speh_st_multisegment

from cut_pieces import cut_pieces, rectangle_group_cuts


@functools.lru_cache(maxsize=None)
def rectangle(s: int, t: int):
    return speh_st_multisegment(CuspidalLabel("pi"), s, t)


def rectangle_pieces(s: int, t: int, cut: Cut):
    """The (a1, a2) pieces of a cut of the s-by-t rectangle, a1 bottom to top."""
    return cut_pieces(rectangle(s, t), cut.ks)


def attachment_oracle(pieces, m: int):
    """Speh_m coefficient block on the bottom m run positions, against a2, position by position."""
    a1, a2 = pieces
    bottom = a1[0][0]
    top = bottom + 2 * (m - 1)
    for start, length, _ in a2:
        if start <= top and start + 2 * (length - 1) >= bottom and (start - bottom) % 2 == 0:
            return None
    peeled = [
        (p, row)
        for start2, length, row in a1
        for p in range(start2, start2 + 2 * length, 2)
    ][:m]
    support = dict(peeled)  # doubled position -> ladder row
    fixed = {}  # edge (keyed by its lower end) -> joined
    for (a, _), (b, _) in zip(peeled, peeled[1:]):
        if b == a + 2:
            fixed[a] = False
    runs = []
    for start, length, row in a2:
        end = start + 2 * (length - 1)
        for p in range(start, end + 2, 2):
            if p in support:
                return None
            support[p] = row
        for a in range(start, end, 2):
            fixed[a] = True
        runs.append((start, end))
    runs.sort()
    for (_, end_a), (start_b, _) in zip(runs, runs[1:]):
        if start_b == end_a + 2:
            fixed[end_a] = False
    allpts = sorted(support)
    free = []
    for a, b in zip(allpts, allpts[1:]):
        if b != a + 2 or a in fixed:
            continue
        if support[a] != support[b]:
            return None
        free.append(a)
    terms = {}
    for choice in itertools.product((True, False), repeat=len(free)):
        edges = dict(fixed)
        edges.update(zip(free, choice))
        shape = []
        run_start = prev = allpts[0]
        for p in allpts[1:]:
            if p == prev + 2 and edges.get(prev, False):
                prev = p
                continue
            shape.append((run_start, (prev - run_start) // 2 + 1))
            run_start = prev = p
        shape.append((run_start, (prev - run_start) // 2 + 1))
        terms[tuple(shape)] = -1 if choice.count(False) % 2 else 1
    return terms


def _append_block(edges, size, width, rightward):
    if width == 0:
        return [edges]
    inner = (rightward,) * (width - 1)
    if size == 0:
        return [inner]
    return [edges + (j,) + inner for j in (True, False)]


def hij_oracle(state, base, s_max):
    h, edges = state
    out = {(h, edges): 1}
    for i in range(1, s_max - h + 1):
        for new_edges in _append_block(edges, h - base, i, rightward=True):
            out[(h + i, new_edges)] = out.get((h + i, new_edges), 0) + 1
    return out


def se2_oracle(state, base, s_max):
    h, edges = state
    out = {}
    for r in range(0, s_max - h + 1):
        for new_edges in _append_block(edges, h - base, r, rightward=False):
            out[(h + r, new_edges)] = out.get((h + r, new_edges), 0) + (-1 if r % 2 else 1)
    return out


RECTANGLES = [(s, t) for s in range(1, 12) for t in range(1, 13 - s)]


def test_attachment_matches_oracle_on_every_rectangle_cut():
    calls = surviving = both_free = 0
    for s, t in RECTANGLES:
        for rank in range(1, s * t + 1):
            for cut in rectangle_group_cuts(s, t, rank):
                pieces = rectangle_pieces(s, t, cut)
                for m in range(1, rank + 1):
                    expected = attachment_oracle(pieces, m)
                    # for s, t >= 2 every block vanishes: the proof at _shriek_core
                    assert expected is None or s == 1 or t == 1, (s, t, rank, cut, m)
                    calls += 1
                    surviving += expected is not None
                    both_free += expected is not None and len(expected) == 4
    assert (calls, surviving, both_free) == (58304, 516, 0)


def peel_sign(a1, m: int) -> int:
    """The peel sign, position by position: the sign of the pieces left unpeeled, flipped on a cut piece."""
    pieces = [idx for idx, (_, length, _) in enumerate(a1) for _ in range(length)]
    kept = len(set(pieces[m:]))
    sign = (-1) ** (kept - 1) if kept else 1
    return -sign if pieces[m - 1] in pieces[m:] else sign


def shriek_reference(s: int, t: int, r: int, cuts_at=rectangle_group_cuts):
    """``_shriek_core`` with the full m-loop on every block, through ``attachment_oracle``.

    The cuts behind a marked cell are those of ``cuts_at(s, t, r + m)``,
    ``rectangle_group_cuts`` or a cache of it, whose center is -i_m/2.
    """
    terms = {}
    for m in range(0, s * t - r + 1):
        cuts = cuts_at(s, t, r + m)
        for _, i_m, _ in marked_cells(s, t, r + m, "N"):
            parity = -1 if (m + i_m) % 2 else 1
            for cut in cuts:
                if cut.center2 != -i_m or sum(cut.ks) < m:
                    continue  # another cell's cut, or below stratum 0: no block of m positions
                if m == 0:
                    expanded = {cut.a2: cut.sign}
                else:
                    pieces = rectangle_pieces(s, t, cut)
                    expanded = attachment_oracle(pieces, m) or {}
                    expanded = {shape: peel_sign(pieces[0], m) * c for shape, c in expanded.items()}
                for shape, c in expanded.items():
                    key = (shape, i_m - m)
                    terms[key] = terms.get(key, 0) + parity * c
    return frozen_terms(terms)


def test_shriek_core_matches_full_reference():
    # every block with s + t <= 12, and every one-row and one-column block
    # up to 24, where the closed form is read off the telescoping m-loop
    blocks = set(RECTANGLES) | {shape for n in range(1, 25) for shape in ((1, n), (n, 1))}
    cuts_at = functools.lru_cache(maxsize=None)(rectangle_group_cuts)  # each stratum once
    triples = 0
    for s, t in sorted(blocks):
        for r in range(-1, s * t + 2):
            assert _shriek_core(s, t, r) == shriek_reference(s, t, r, cuts_at), (s, t, r)
            triples += 1
    assert triples == 1199 + 2 * sum(n + 3 for n in range(12, 25))


def reachable_states(base, s_max):
    seen, todo = set(), [(base, ())]
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        for expand in (hij_oracle, se2_oracle):
            todo.extend(expand(state, base, s_max))
    return seen


def test_block_append_matches_oracles_on_reachable_states():
    count = 0
    for s_max in range(1, 9):
        for base in range(1, s_max + 1):
            for state in reachable_states(base, s_max):
                assert hij_expand(state, base, s_max) == hij_oracle(state, base, s_max)
                assert se2_expand(state, base, s_max) == se2_oracle(state, base, s_max)
                count += 1
    assert count == 502

