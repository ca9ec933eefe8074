"""The closed-form L3 expansions of ``cohomology`` against their position-by-position oracles.

``attachment_oracle`` lists every position of the peeled block and of a2,
keys every edge, and takes a product over the edges it leaves free; the
block-append oracles ``hij_oracle``/``se2_oracle`` are the two expansions
written out separately.  ``cohomology`` computes the same three in one
closed form each.
"""

import itertools
import random

import pytest

from htgroth.cohomology import _attachment_expansion, hij_expand, se2_expand
from htgroth.jl_red import Cut, rectangle_shape_cuts


def attachment_oracle(cut: Cut, m: int):
    """Speh_m coefficient block on the bottom m run positions, against a2, position by position."""
    bottom = cut.a1_pieces[0][0]
    top = bottom + 2 * (m - 1)
    for start, length, _ in cut.a2_pieces:
        if start <= top and start + 2 * (length - 1) >= bottom and (start - bottom) % 2 == 0:
            return None
    peeled = [
        (p, row)
        for start2, length, row in cut.a1_pieces
        for p in range(start2, start2 + 2 * length, 2)
    ][:m]
    support = dict(peeled)  # doubled position -> ladder row
    fixed = {}  # edge (keyed by its lower end) -> joined
    for (a, _), (b, _) in zip(peeled, peeled[1:]):
        if b == a + 2:
            fixed[a] = False
    runs = []
    for start, length, row in cut.a2_pieces:
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
            for cut in rectangle_shape_cuts(s, t, rank):
                for m in range(1, rank + 1):
                    expected = attachment_oracle(cut, m)
                    assert _attachment_expansion(cut, m) == expected, (s, t, rank, cut, m)
                    calls += 1
                    surviving += expected is not None
                    both_free += expected is not None and len(expected) == 4
    # no rectangle cut frees both junctions: the synthetic cuts below cover that
    assert (calls, surviving, both_free) == (58304, 516, 0)


def synthetic_cut(rng: random.Random, free_both: bool):
    """A random run cut of a random ladder: a1 tiles bottom .. a1_top once, a2 keeps the rest.

    Rows sit on one parity class, as the rows of a ladder on one line do.
    With ``free_both`` an a2 row ends just below the run and another starts
    just above its first m positions, on the same rows as those positions.
    """
    units = rng.randint(1, 5)
    m = rng.randint(1, units)
    cuts = rng.sample(range(1, units), rng.randint(0, units - 1)) if units > 1 else []
    bounds = [0] + sorted(cuts) + [units]
    rows = list(range(len(bounds) - 1))
    rng.shuffle(rows)
    bottom = 2 * rng.randint(-4, 4)
    a1 = tuple(
        (bottom + 2 * lo, hi - lo, row) for (lo, hi), row in zip(zip(bounds, bounds[1:]), rows)
    )
    a1_rows = {row for _, _, row in a1}
    top = bottom + 2 * (m - 1)
    top_row = next(row for start, length, row in a1 if start <= top <= start + 2 * (length - 1))
    a2 = []
    if free_both:
        below = rng.randint(1, 3)
        a2.append((bottom - 2 * below, below, a1[0][2]))
        a2.append((top + 2, rng.randint(1, 3), top_row))
    next_row = len(a1)
    for _ in range(rng.randint(0, 3)):
        row = rng.choice(sorted(a1_rows) + [next_row])
        next_row += row == next_row
        a2.append((2 * rng.randint(-8, 8), rng.randint(1, 4), row))
    rng.shuffle(a2)
    return Cut((), 1, 0, a1, tuple(a2)), m


@pytest.mark.parametrize("free_both", [False, True])
def test_attachment_matches_oracle_on_synthetic_cuts(free_both):
    rng = random.Random(20261018 + free_both)
    four = three_way = 0
    for _ in range(20000):
        cut, m = synthetic_cut(rng, free_both)
        expected = attachment_oracle(cut, m)
        assert _attachment_expansion(cut, m) == expected, (cut, m)
        if expected is not None and len(expected) == 4:
            four += 1
            three_way += m == 1
    if free_both:
        assert four > 500 and three_way > 100  # both junctions free, m = 1 among them


def test_attachment_three_way_join():
    # m = 1: the singleton block joins an a2 row below and one above into one segment
    cut = Cut((), 1, 0, ((0, 2, 0),), ((-4, 2, 0), (2, 3, 0)))
    assert _attachment_expansion(cut, 1) == attachment_oracle(cut, 1) == {
        ((-4, 6),): 1,
        ((-4, 3), (2, 3)): -1,
        ((-4, 2), (0, 4)): -1,
        ((-4, 2), (0, 1), (2, 3)): 1,
    }


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

