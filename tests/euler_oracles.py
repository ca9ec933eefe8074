"""Alternating sums built on the test side, the oracles of the package's Euler columns.

``table_euler`` reads a table's rows with the sign (-1)^degree, and
``column_euler`` sums a column's marked cells, label-free, the same way, so
the cached Euler cores and the mod-l balance are checked against sums that
share none of their code.
"""

from htgroth.jl_red import Terms, frozen_terms, marked_cells
from htgroth.segments import GrothElement


def table_euler(table) -> GrothElement:
    """The alternating sum of the rows of a ``CohomologyTable``: (-1)^i times the row of degree i."""
    acc = GrothElement.zero()
    for i, g in table.rows.items():
        acc = acc + (g if i % 2 == 0 else -g)
    return acc


def column_euler(s: int, t: int, r: int, kind: str) -> Terms:
    """The alternating sum of the cells of column r that the M or N diagram marks, label-free."""
    terms: dict = {}
    for degree, _, sums in marked_cells(s, t, r, kind):
        for key, c in sums:
            terms[key] = terms.get(key, 0) + (-c if degree % 2 else c)
    return frozen_terms(terms)
