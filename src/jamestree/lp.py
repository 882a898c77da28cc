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
"""

from __future__ import annotations

from fractions import Fraction

from .errors import JamesTreeError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPError(JamesTreeError):
    pass


class LPState:
    """The tableau of one LP whose row list only grows between solves.

    Row i of `tableau` reads x_{basis[i]} + sum_j tableau[i][j] x_j = const
    over nonbasic j; `value` holds every variable's current value, `z` the
    reduced costs (zero on basic columns), and `rows` the rows absorbed so
    far, which every later call must repeat as the prefix of its row list.
    Create one per LP and pass it to every `simplex_max` call on that LP.
    """

    def __init__(self) -> None:
        self.objective: list[Fraction] | None = None
        self.rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
        self.tableau: list[list[Fraction]] = []
        self.basis: list[int] = []
        self.value: list[Fraction] = []
        self.lower: list[Fraction] = []
        self.z: list[Fraction] = []

    def _absorb(self, c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]]) -> None:
        """Append the rows not seen yet, each with its slack basic."""
        n = len(c)
        if self.objective is None:
            self.objective = list(c)
            self.value = [_ZERO] * n
            self.lower = [-_ONE] * n
            self.z = list(c)
        elif list(c) != self.objective:
            raise LPError("LPState was built for another objective")
        seen = len(self.rows)
        if len(rows) < seen or any(
            rhs != old_rhs or tuple(a) != old_a for (a, rhs), (old_a, old_rhs) in zip(rows, self.rows)
        ):
            raise LPError("rows do not extend the rows this LPState has absorbed")
        new = rows[seen:]
        if any(rhs < 0 for _, rhs in new):
            raise LPError("simplex_max requires nonnegative right-hand sides")
        if any(len(a) != n for a, _ in new):
            raise LPError("row length mismatch")
        tableau, basis, value = self.tableau, self.basis, self.value
        for a, rhs in new:
            m = len(basis)
            for old in tableau:
                old.append(_ZERO)
            row = list(a) + [_ZERO] * m + [_ONE]
            for i, b in enumerate(basis):  # eliminate the basic columns
                coef = row[b]
                if coef:
                    row = [rv - coef * pv if pv else rv for rv, pv in zip(row, tableau[i])]
            tableau.append(row)
            basis.append(n + m)
            value.append(rhs - sum((aj * xj for aj, xj in zip(a, value) if aj), _ZERO))
            self.lower.append(_ZERO)
            self.z.append(_ZERO)
            self.rows.append((tuple(a), rhs))

    def _pivot(self, leave: int, enter: int) -> None:
        tableau = self.tableau
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        if piv != 1:
            inv = _ONE / piv
            tableau[leave] = pivot_row = [v * inv if v else _ZERO for v in pivot_row]
        for i, row in enumerate(tableau):
            if i == leave:
                continue
            factor = row[enter]
            if factor:
                tableau[i] = [rv - factor * pv if pv else rv for rv, pv in zip(row, pivot_row)]
        factor = self.z[enter]
        self.z = [zv - factor * pv if pv else zv for zv, pv in zip(self.z, pivot_row)]
        self.basis[leave] = enter

    def _move(self, enter: int, delta: Fraction) -> None:
        """Move nonbasic x_enter by delta; the basic variables follow."""
        value = self.value
        value[enter] += delta
        for row, b in zip(self.tableau, self.basis):
            coef = row[enter]
            if coef:
                value[b] -= coef * delta

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
            # carries x_r towards target and that its own bounds allow
            enter, best = -1, None
            for j, t in enumerate(self.tableau[leave]):
                if not t or j == r:
                    continue
                up = (t < 0) == rise
                if up and j < n and value[j] >= 1 or not up and value[j] <= lower[j]:
                    continue
                ratio = abs(self.z[j] / t)
                if best is None or ratio < best:
                    enter, best = j, ratio
            if enter < 0:
                raise LPError("internal error: infeasible LP with nonnegative right-hand sides")
            self._move(enter, (value[r] - target) / self.tableau[leave][enter])
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
                rate = sign * self.tableau[i][enter]  # x_b falls at this rate
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
