"""Exact rational linear algebra on sparse rows, just enough for nullspaces."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .combination import accumulate, rational


def nullspace(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the solution space of rows * x = 0 over the rationals.

    A row maps columns in 0..ncols-1 to rationals (a float raises
    ``TypeError``).  Gauss-Jordan runs row by row: a new row is reduced by
    the pivot rows, takes its smallest column as its pivot, and that column
    is cleared from the pivot rows that hold it.  The pivot rows are then the
    reduced row echelon form, which is unique, so the basis does not depend
    on the row order: for each free column c in increasing order, 1 at c
    and minus column c of the pivot rows at their pivots.
    """
    pivots: dict[int, dict] = {}  # pivot column -> its row, with entry 1 there
    for row in rows:
        row = {col: q for col, x in row.items() if (q := rational(x))}
        if row and not 0 <= min(row) <= max(row) < ncols:
            raise ValueError(f"row columns must lie in 0..{ncols - 1}")
        for col in [c for c in row if c in pivots]:
            factor = row[col]
            for c, x in pivots[col].items():
                accumulate(row, c, -factor * x)
        if row:
            col = min(row)
            inv = Fraction(1, row[col])
            row = {c: x * inv for c, x in row.items()}
            for other in pivots.values():
                factor = other.get(col)
                if factor:
                    for c, x in row.items():
                        accumulate(other, c, -factor * x)
            pivots[col] = row
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -prow.get(free, Fraction(0))
        basis.append(tuple(vec))
    return basis
