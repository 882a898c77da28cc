"""Exact rational bounded-variable simplex for the small LPs behind dual norms.

Solves max c.x subject to A x <= b and -1 <= x_j <= 1, all data Fractions.
The unit box is every caller's first relaxation of a unit ball, so the solver
owns it as variable bounds (Chvatal, Linear Programming, 1983, ch. 8) rather
than as 2n rows.  Columns are x_0..x_{n-1} on [-1, 1], then one slack per row
on [0, inf).  A nonbasic x_j sits at -1, 0 or 1 and starts at 0; with every
right-hand side nonnegative that start is feasible, so no phase 1 is needed.

A cutting-plane caller solves one LP per round with one more row each time.
An `LPState` keeps the tableau between those calls: a new row enters with its
slack basic, the old optimal basis stays dual feasible, and a bounded-variable
dual simplex (ch. 10) restores primal feasibility before the primal loop
finishes.  A fresh state has no rows and no basis, so a call without a state
is the cold solve from the all-slack basis.  Both loops choose by the
smallest-index rule (Bland), in pricing and in the ratio tests, which
prevents cycling.  Problem sizes here are tiny (tens of rows/columns), so a
dense tableau is the right tool.

The tableau is fraction-free (in the spirit of Bareiss, Math. Comp. 1968):
each row is a list of integers over one positive row denominator, and the
reduced costs are integers over one positive denominator too.  A pivot
scales the pivot row so that its entering entry p is positive and becomes
its denominator; every other row becomes row*p - f*pivot_row over den*p,
where f is its entering entry.  One gcd pass then reduces each updated row.
Every cell is the same rational a Fraction tableau would hold, so every sign
and ratio test, and hence every pivot, is the same; the ratio tests compare
cross products, in which the positive denominators cancel.  The values of
the variables stay Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import JamesTreeError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPError(JamesTreeError):
    pass


def _integer_row(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """coeffs as integers over their least common denominator."""
    den = lcm(*(q.denominator for q in coeffs))
    return [q.numerator * (den // q.denominator) for q in coeffs], den


def _eliminate(row: list[int], den: int, f: int, pivot_row: list[int], p: int) -> tuple[list[int], int]:
    """row / den - (f / den) * (pivot_row / p) as integers over one
    denominator, with the gcd of the entries and the denominator divided out.
    With pivot_row reading p > 0 at a column where row reads f, the result
    reads 0 there."""
    out = [rv * p - f * pv for rv, pv in zip(row, pivot_row)]
    return _reduced(out, den * p)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """row / den with the gcd of its entries and den divided out."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


class LPState:
    """The tableau of one LP whose row list only grows between solves.

    Row i reads x_{basis[i]} + sum_j (tableau[i][j] / den[i]) x_j = const
    over nonbasic j, with tableau[i][basis[i]] == den[i] > 0; `value` holds
    every variable's current value, z[j] / z_den the reduced costs (zero on
    basic columns, z_den > 0), and `rows` the rows absorbed so far, which
    every later call must repeat as the prefix of its row list.  Create one
    per LP and pass it to every `simplex_max` call on that LP.
    """

    def __init__(self) -> None:
        self.objective: list[Fraction] | None = None
        self.rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
        self.tableau: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.value: list[Fraction] = []
        self.lower: list[Fraction] = []
        self.z: list[int] = []
        self.z_den = 1

    def _absorb(self, c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]]) -> None:
        """Append the rows not seen yet, each with its slack basic."""
        n = len(c)
        if self.objective is None:
            self.objective = list(c)
            self.value = [_ZERO] * n
            self.lower = [-_ONE] * n
            self.z, self.z_den = _integer_row(c)
        elif list(c) != self.objective:
            raise LPError("LPState was built for another objective")
        seen = len(self.rows)
        if len(rows) < seen or [(tuple(a), rhs) for a, rhs in rows[:seen]] != self.rows:
            raise LPError("rows do not extend the rows this LPState has absorbed")
        new = rows[seen:]
        if any(rhs < 0 for _, rhs in new):
            raise LPError("simplex_max requires nonnegative right-hand sides")
        if any(len(a) != n for a, _ in new):
            raise LPError("row length mismatch")
        tableau, dens, basis, value = self.tableau, self.den, self.basis, self.value
        for a, rhs in new:
            m = len(basis)
            for old in tableau:
                old.append(0)
            row, den = _integer_row(a)
            row += [0] * m + [den]  # the new slack, coefficient 1
            for b, prow, pden in zip(basis, tableau, dens):  # eliminate the basic columns
                f = row[b]
                if f:
                    row, den = _eliminate(row, den, f, prow, pden)
            tableau.append(row)
            dens.append(den)
            basis.append(n + m)
            value.append(rhs - sum((aj * xj for aj, xj in zip(a, value) if aj), _ZERO))
            self.lower.append(_ZERO)
            self.z.append(0)
            self.rows.append((tuple(a), rhs))

    def _pivot(self, leave: int, enter: int) -> None:
        tableau, dens = self.tableau, self.den
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        if p < 0:
            pivot_row, p = [-v for v in pivot_row], -p
        pivot_row, p = _reduced(pivot_row, p)  # over p it reads 1 at enter
        tableau[leave], dens[leave] = pivot_row, p
        for i, row in enumerate(tableau):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tableau[i], dens[i] = _eliminate(row, dens[i], f, pivot_row, p)
        f = self.z[enter]
        if f:
            self.z, self.z_den = _eliminate(self.z, self.z_den, f, pivot_row, p)
        self.basis[leave] = enter

    def _move(self, enter: int, delta: Fraction) -> None:
        """Move nonbasic x_enter by delta; the basic variables follow."""
        value = self.value
        value[enter] += delta
        num, den = delta.numerator, delta.denominator
        for row, row_den, b in zip(self.tableau, self.den, self.basis):
            coef = row[enter]
            if coef:
                value[b] -= Fraction(coef * num, row_den * den)

    def _dual_simplex(self, n: int) -> None:
        """Pivot basic variables back inside their bounds, keeping z dual feasible."""
        value, lower = self.value, self.lower
        while True:
            leave = -1
            for i, b in enumerate(self.basis):  # Bland: smallest infeasible index
                if (value[b] < lower[b] or (b < n and value[b] > 1)) and (
                    leave < 0 or b < self.basis[leave]
                ):
                    leave = i
            if leave < 0:
                return
            r = self.basis[leave]
            target = lower[r] if value[r] < lower[r] else _ONE
            rise = target > value[r]
            # x_r changes by -t per unit of x_j; x_j must move the way that
            # carries x_r towards target and that its own bounds allow.  The
            # least ratio |z_j / t_j| wins; the positive denominators of the
            # row and of z cancel from the cross-multiplied comparison
            row, z = self.tableau[leave], self.z
            enter, best_z, best_t = -1, 0, 1
            for j, t in enumerate(row):
                if not t or j == r:
                    continue
                up = (t < 0) == rise
                if up and j < n and value[j] >= 1 or not up and value[j] <= lower[j]:
                    continue
                zj, tj = abs(z[j]), abs(t)
                if enter < 0 or zj * best_t < best_z * tj:
                    enter, best_z, best_t = j, zj, tj
            if enter < 0:
                raise LPError("internal error: infeasible LP with nonnegative right-hand sides")
            self._move(enter, (value[r] - target) * Fraction(self.den[leave], row[enter]))
            self._pivot(leave, enter)

    def _primal_simplex(self, n: int) -> None:
        """Bounded-variable primal simplex from a feasible basis to an optimum."""
        value, lower = self.value, self.lower
        while True:
            enter = -1
            for j, d in enumerate(self.z):  # Bland: smallest index that can improve
                if (d > 0 and (j >= n or value[j] < 1)) or (d < 0 and value[j] > lower[j]):
                    enter = j
                    break
            if enter < 0:
                return
            sign = 1 if self.z[enter] > 0 else -1
            # ratio test: the first variable to reach a bound, ties to the
            # smallest index; the entering variable's own opposite bound is a
            # candidate
            step = 1 - sign * value[enter] if enter < n else None
            leave = -1
            blocker = enter
            for i, b in enumerate(self.basis):
                rate = sign * self.tableau[i][enter]  # x_b falls at rate / den[i]
                if rate > 0:
                    t = (value[b] - lower[b]) * Fraction(self.den[i], rate)
                elif rate < 0 and b < n:
                    t = (1 - value[b]) * Fraction(self.den[i], -rate)
                else:
                    continue
                if step is None or t < step or (t == step and b < blocker):
                    step, leave, blocker = t, i, b
            if step is None:
                raise LPError("internal error: unbounded bounded-variable LP")
            self._move(enter, sign * step)
            if leave >= 0:  # else a bound flip: the entering variable stays nonbasic
                self._pivot(leave, enter)


def simplex_max(
    c: list[Fraction],
    rows: list[tuple[list[Fraction], Fraction]],
    state: LPState | None = None,
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x over {x : row.x <= rhs for every row, |x_j| <= 1}.

    Every rhs must be >= 0.  The feasible set is a nonempty polytope, so an
    optimum always exists.  Returns (optimal value, optimizer).  A `state`
    from an earlier call with the same c resumes from that call's optimal
    basis; its rows must be a prefix of `rows`.  Without one the solve is cold.
    """
    if state is None:
        state = LPState()
    n = len(c)
    state._absorb(c, rows)
    state._dual_simplex(n)
    state._primal_simplex(n)
    x = state.value[:n]
    return sum((cj * xj for cj, xj in zip(c, x) if cj), _ZERO), x
