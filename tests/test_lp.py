import random
from fractions import Fraction
from itertools import combinations

import pytest

from jamestree.lp import LPError, simplex_max

F = Fraction


def test_simple_box_optimum():
    value, x = simplex_max([F(2), F(-1)], [])
    assert value == 3
    assert x == [F(1), F(-1)]


def test_capped_sum():
    value, x = simplex_max([F(1), F(1)], [([F(1), F(1)], F(3, 2))])
    assert value == F(3, 2)
    assert x[0] + x[1] == F(3, 2)


def test_zero_objective():
    value, x = simplex_max([F(0), F(0)], [])
    assert value == 0


def test_degenerate_ties_terminate():
    rows = [([F(1), F(1), F(1)], F(1)), ([F(1), F(1), F(0)], F(1))]
    value, x = simplex_max([F(1), F(1), F(-1)], rows)
    assert value == 2  # x + y capped at 1, z at -1
    assert x[0] + x[1] == 1 and x[2] == -1


def test_negative_rhs_rejected():
    with pytest.raises(LPError):
        simplex_max([F(1)], [([F(1)], F(-1))])


def _solve(eqs):
    """Unique solution of the square system [(a, b)] with a.x = b, or None."""
    n = len(eqs)
    m = [list(a) + [b] for a, b in eqs]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [u - f * v for u, v in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _vertex_max(c, rows):
    """Max of c.x over the box-bounded polytope by enumerating its vertices."""
    n = len(c)
    box = []
    for j in range(n):
        unit = [F(0)] * n
        unit[j] = F(1)
        box += [(unit, F(1)), ([-u for u in unit], F(1))]
    cons = rows + box
    best = None
    for chosen in combinations(cons, n):
        x = _solve(chosen)
        if x is None or any(sum(a * v for a, v in zip(row, x)) > rhs for row, rhs in cons):
            continue
        value = sum(a * v for a, v in zip(c, x))
        best = value if best is None else max(best, value)
    return best


def test_matches_vertex_enumeration():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(1, 3)
        m = 0 if trial % 10 == 0 else rng.randint(1, 4)
        rows = [([F(rng.randint(-2, 2)) for _ in range(n)], F(rng.randint(0, 2))) for _ in range(m)]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        value, x = simplex_max(c, rows)
        assert value == _vertex_max(c, rows), (c, rows)
        assert all(-1 <= v <= 1 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) <= rhs for row, rhs in rows)
        assert sum(a * v for a, v in zip(c, x)) == value
