"""Sparse-row nullspace against a dense Gauss-Jordan oracle."""

import random
from fractions import Fraction

import pytest

from halflattice.linalg import nullspace


def dense_nullspace(rows, ncols):
    """Reference: dense Gauss-Jordan on full rows, pivots in column order."""
    mat = [list(map(Fraction, row)) for row in rows if any(row)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -mat[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def sparse(row):
    return {col: x for col, x in enumerate(row) if x}


def random_matrix(rng, nrows, ncols, density):
    """Sparse rational rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                         if rng.random() < density else Fraction(0) for _ in range(ncols)])
    return rows


def test_matches_dense_oracle_on_random_sparse_matrices():
    rng = random.Random(0)
    deficient = 0
    for trial in range(400):
        ncols = rng.randint(0, 9)
        rows = random_matrix(rng, rng.randint(0, 12), ncols, rng.choice([0.1, 0.3, 0.6]))
        expected = dense_nullspace(rows, ncols)
        got = nullspace([sparse(r) for r in rows], ncols)
        assert got == expected, (trial, rows)
        assert all(type(x) is Fraction for vec in got for x in vec)
        if len(expected) > max(ncols - len(rows), 0):
            deficient += 1
        shuffled = [sparse(r) for r in rows]
        rng.shuffle(shuffled)
        assert nullspace(shuffled, ncols) == expected, (trial, rows)
    assert deficient > 50  # the generator does reach rank-deficient matrices


def test_edge_shapes():
    assert nullspace([], 0) == []
    assert nullspace([{}, {}], 0) == []
    assert nullspace([], 2) == [(1, 0), (0, 1)]
    assert nullspace([{}, {0: 0}], 2) == [(1, 0), (0, 1)]
    assert nullspace([{0: 1, 1: 1}, {0: 2, 1: 2}], 2) == [(-1, 1)]
    assert nullspace([{1: 3}, {0: Fraction(1, 2)}], 2) == []


def test_entries_are_read_as_rationals():
    assert nullspace([{0: 2, 1: 3}], 2) == [(Fraction(-3, 2), 1)]


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError):
        nullspace([{2: 1}], 2)
    with pytest.raises(ValueError):
        nullspace([{-1: 1}], 2)
