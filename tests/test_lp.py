import hashlib
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import isqrt

import pytest

from jamestree.lp import LPError, LPState, simplex_max

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
    """Max of c.x over the box-bounded polytope by enumerating its vertices.

    A vertex has n linearly independent active constraints; the box ones fix
    distinct coordinates at -1 or 1, and the active rows determine the rest.
    """
    n = len(c)
    best = None
    for k in range(n + 1):
        for fixed in combinations(range(n), k):
            free = [j for j in range(n) if j not in fixed]
            for signs in product((F(-1), F(1)), repeat=k):
                for active in combinations(rows, n - k):
                    eqs = [([a[j] for j in free], rhs - sum(a[j] * s for j, s in zip(fixed, signs))) for a, rhs in active]
                    sol = _solve(eqs)
                    if sol is None:
                        continue
                    x = [F(0)] * n
                    for j, v in zip(free + list(fixed), sol + list(signs)):
                        x[j] = v
                    if any(abs(v) > 1 for v in x) or any(sum(a * v for a, v in zip(row, x)) > rhs for row, rhs in rows):
                        continue
                    value = sum(a * v for a, v in zip(c, x))
                    best = value if best is None else max(best, value)
    return best


def _assert_optimal(c, rows, value, x):
    assert value == _vertex_max(c, rows), (c, rows)
    assert all(-1 <= v <= 1 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) <= rhs for row, rhs in rows)
    assert sum(a * v for a, v in zip(c, x)) == value


def test_matches_vertex_enumeration():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(1, 3)
        m = 0 if trial % 10 == 0 else rng.randint(1, 4)
        rows = [([F(rng.randint(-2, 2)) for _ in range(n)], F(rng.randint(0, 2))) for _ in range(m)]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        _assert_optimal(c, rows, *simplex_max(c, rows))


def _small_fraction(rng, bound=6):
    return F(rng.randint(-bound, bound), rng.randint(1, 7))


def _molecule_row(rng, n):
    """A cut as `dualnorm._molecule_cut_weights` builds it: 10^6-scale
    integers over the rounded-up isqrt of their sum of squares, rhs 1."""
    ints = [rng.randint(-(10**6), 10**6) if rng.random() < 0.7 else 0 for _ in range(n)]
    mass = sum(v * v for v in ints) or 1
    denom = isqrt(mass)
    if denom * denom < mass:
        denom += 1
    return [F(v, denom) for v in ints], F(1)


def _rational_row(rng, n):
    if rng.random() < 0.4:
        return _molecule_row(rng, n)
    return [_small_fraction(rng, 3) for _ in range(n)], F(rng.randint(0, 14), rng.randint(1, 7))


def test_matches_vertex_enumeration_on_rational_data():
    rng = random.Random(17)
    for trial in range(300):
        n = rng.randint(1, 3)
        m = 0 if trial % 10 == 0 else rng.randint(1, 4)
        rows = [_rational_row(rng, n) for _ in range(m)]
        c = [_small_fraction(rng) for _ in range(n)]
        _assert_optimal(c, rows, *simplex_max(c, rows))


@contextmanager
def _time_limit(seconds):
    """Fail instead of hanging when a solver change makes the simplex cycle."""

    def expire(signum, frame):
        raise TimeoutError(f"simplex_max still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _random_row(rng, n):
    return [F(rng.randint(-2, 2)) for _ in range(n)], F(rng.randint(0, 2))


def _check_warm_start(rng, trials, objective, new_row):
    for trial in range(trials):
        n = rng.randint(1, 5)
        c = [objective(rng) for _ in range(n)]
        state = LPState()
        rows = []
        while len(rows) <= 8 - n:  # keeps the vertex enumeration small
            with _time_limit(30):
                value, x = simplex_max(c, rows, state)
                cold_value = simplex_max(c, rows)[0]
            assert value == cold_value, (c, rows)
            _assert_optimal(c, rows, value, x)
            rows = rows + [new_row(rng, n) for _ in range(rng.randint(1, 2))]


def test_warm_start_matches_cold_and_vertex_enumeration():
    # integer objectives with zeros and repeats tie optima
    _check_warm_start(random.Random(11), 80, lambda rng: F(rng.randint(-2, 2)), _random_row)


def test_warm_start_matches_cold_and_vertex_enumeration_on_rational_data():
    _check_warm_start(random.Random(13), 80, _small_fraction, _rational_row)


def test_warm_state_keeps_only_the_nonbasic_columns():
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(1, 6)
        c = [_small_fraction(rng) for _ in range(n)]
        state = LPState()
        rows = []
        new_row = _random_row if trial % 2 else _rational_row
        while len(rows) <= 14:
            simplex_max(c, rows, state)
            m = len(rows)
            assert all(len(row) == n + 1 for row in state.tableau) and len(state.z) == n + 1
            assert sorted(state.cols + state.basis) == list(range(n + m))
            assert [state.pos[j] for j in state.cols] == list(range(n))
            assert all(state.pos[b] == -1 for b in state.basis)
            rows = rows + [new_row(rng, n) for _ in range(rng.randint(1, 2))]


def test_pivot_path_is_pinned():
    """Optimizers at tied optima depend on the pivot order, so a hash of every
    (value, x) repr over seeded warm-start sequences pins that order.  Each
    step also hashes the cold solve, whose primal ratio test meets the ties
    of zero right-hand sides.  The hash was taken from the Fraction-tableau
    solver; a change of pricing or of a tie-breaking rule changes it."""
    digest = hashlib.sha256()
    rng = random.Random(29)
    for trial in range(120):
        n = rng.randint(1, 6)
        c = [_small_fraction(rng) for _ in range(n)]
        state = LPState()
        rows = []
        new_row = _random_row if trial % 2 else _rational_row
        while len(rows) <= 14:
            digest.update(repr((simplex_max(c, rows, state), simplex_max(c, rows))).encode())
            rows = rows + [new_row(rng, n) for _ in range(rng.randint(1, 2))]
    assert digest.hexdigest() == "9ea59035ca6dab78597696c0834ea76ecf78139b7bc0d260a38ce56a11a2ec33"


def test_state_rejects_rows_that_do_not_extend_it():
    c = [F(1), F(1)]
    first = ([F(1), F(1)], F(1))
    state = LPState()
    assert simplex_max(c, [first], state)[0] == 1
    for rows in ([], [([F(1), F(2)], F(1))], [([F(1), F(1)], F(2)), first]):
        with pytest.raises(LPError):
            simplex_max(c, rows, state)
    with pytest.raises(LPError):
        simplex_max([F(1), F(0)], [first], state)
    assert simplex_max(c, [first, ([F(1), F(0)], F(0))], state) == (F(1), [F(0), F(1)])
    with pytest.raises(LPError):  # a row of the wrong length
        simplex_max(c, [([F(1)], F(1))])
