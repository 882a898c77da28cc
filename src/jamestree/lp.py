"""Exact rational bounded-variable simplex for the small LPs behind dual norms.

Solves max c.x subject to A x <= b and -1 <= x_j <= 1, all data Fractions.
The unit box is every caller's first relaxation of a unit ball, so the solver
owns it as variable bounds (Chvatal, Linear Programming, 1983, ch. 8) rather
than as 2n rows.  Columns are x_0..x_{n-1} on [-1, 1], then one slack per row
on [0, inf).  A nonbasic x_j sits at -1, 0 or 1 and starts at 0; with every
right-hand side nonnegative that start is feasible, so no phase 1 is needed.
Bland's rule (smallest index, in pricing and in the ratio test) prevents
cycling.  Problem sizes here are tiny (tens of rows/columns), so a dense
tableau is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import JamesTreeError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPError(JamesTreeError):
    pass


def simplex_max(
    c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]]
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x over {x : row.x <= rhs for every row, |x_j| <= 1}.

    Every rhs must be >= 0.  The feasible set is a nonempty polytope, so an
    optimum always exists.  Returns (optimal value, optimizer).
    """
    n = len(c)
    m = len(rows)
    if any(rhs < 0 for _, rhs in rows):
        raise LPError("simplex_max requires nonnegative right-hand sides")
    if any(len(a) != n for a, _ in rows):
        raise LPError("row length mismatch")

    # row i reads x_{basis[i]} + sum_j tableau[i][j] x_j = const over nonbasic j
    tableau = [list(a) + [_ZERO] * m for a, _ in rows]
    for i in range(m):
        tableau[i][n + i] = _ONE
    value = [_ZERO] * n + [rhs for _, rhs in rows]
    lower = [-_ONE] * n + [_ZERO] * m
    z = list(c) + [_ZERO] * m  # reduced costs; zero on basic columns
    basis = [n + i for i in range(m)]

    while True:
        enter = -1
        for j, d in enumerate(z):  # Bland: smallest index that can improve
            if (d > 0 and (j >= n or value[j] < 1)) or (d < 0 and value[j] > lower[j]):
                enter = j
                break
        if enter < 0:
            break
        sign = 1 if z[enter] > 0 else -1
        # ratio test: the first variable to reach a bound, ties to the smallest
        # index; the entering variable's own opposite bound is a candidate
        step = 1 - sign * value[enter] if enter < n else None
        leave = -1
        blocker = enter
        for i in range(m):
            rate = sign * tableau[i][enter]  # x_{basis[i]} falls at this rate
            b = basis[i]
            if rate > 0:
                t = (value[b] - lower[b]) / rate
            elif rate < 0 and b < n:
                t = (1 - value[b]) / -rate
            else:
                continue
            if step is None or t < step or (t == step and b < blocker):
                step, leave, blocker = t, i, b
        if step is None:
            raise LPError("internal error: unbounded bounded-variable LP")
        delta = sign * step
        value[enter] += delta
        for i in range(m):
            coef = tableau[i][enter]
            if coef:
                value[basis[i]] -= coef * delta
        if leave < 0:
            continue  # bound flip: the entering variable stays nonbasic
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        if piv != 1:
            inv = _ONE / piv
            tableau[leave] = pivot_row = [v * inv if v else _ZERO for v in pivot_row]
        for i in range(m):
            if i == leave:
                continue
            factor = tableau[i][enter]
            if factor:
                row = tableau[i]
                tableau[i] = [rv - factor * pv if pv else rv for rv, pv in zip(row, pivot_row)]
        factor = z[enter]
        z = [zv - factor * pv if pv else zv for zv, pv in zip(z, pivot_row)]
        basis[leave] = enter

    x = value[:n]
    return sum((cj * xj for cj, xj in zip(c, x) if cj), _ZERO), x
