"""Exact feasibility of Ax = b, x >= 0 against brute force over basic
solutions on small seeded random systems."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from matroidwb.ratlp import solve_eq_nonneg


def solve_square(cols, A, b):
    """The unique x with A[:, cols] x = b when those columns are independent
    and the system is consistent, else None (Gauss-Jordan over Fractions)."""
    m, k = len(A), len(cols)
    rows = [[Fraction(A[i][j]) for j in cols] + [Fraction(b[i])] for i in range(m)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            return None  # dependent columns
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] != 0 for i in range(r, m)):
        return None  # inconsistent
    return [rows[i][k] for i in range(k)]


def brute_force_feasible(A, b):
    """Ax = b has a solution x >= 0 iff it has a basic one: x supported on
    linearly independent columns."""
    m, n = len(A), len(A[0])
    for k in range(0, min(m, n) + 1):
        for cols in combinations(range(n), k):
            x = solve_square(cols, A, b)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def random_system(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 5)
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
    return A, b


@pytest.mark.parametrize("block", range(4))
def test_agrees_with_basic_solutions(block):
    feasible = 0
    for seed in range(block * 150, (block + 1) * 150):
        A, b = random_system(seed)
        x = solve_eq_nonneg(A, b)
        assert (x is not None) == brute_force_feasible(A, b), (A, b)
        if x is not None:
            feasible += 1
            assert len(x) == len(A[0]) and all(v >= 0 for v in x)
            assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))
    assert 0 < feasible < 150  # both answers occur in every block


def test_no_rows_is_feasible():
    assert solve_eq_nonneg([], []) == []


def test_nonnegativity_decides():
    # x1 - x2 = -1 needs x2 >= 1; -x1 = 1 has no x1 >= 0
    assert solve_eq_nonneg([[1, -1]], [-1]) == [0, 1]
    assert solve_eq_nonneg([[-1]], [1]) is None
