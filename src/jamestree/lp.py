"""Exact rational bounded-variable simplex for the small LPs behind dual norms.

Solves max c.x subject to A x <= b and -1 <= x_j <= 1, all data Fractions.
The unit box is every caller's first relaxation of a unit ball, so the solver
owns it as variable bounds (Chvatal, Linear Programming, 1983, ch. 8) rather
than as 2n rows.  The variables are x_0..x_{n-1} on [-1, 1], then one slack
per row on [0, inf).  A nonbasic x_j sits at -1, 0 or 1 and starts at 0; with
every right-hand side nonnegative that start is feasible, so no phase 1 is
needed.

A cutting-plane caller solves one LP per round with one more row each time.
An `LPState` keeps the tableau between those calls: a new row enters with its
slack basic, the old optimal basis stays dual feasible, and a bounded-variable
dual simplex (ch. 10) restores primal feasibility before the primal loop
finishes.  A fresh state has no rows and no basis, so a call without a state
is the cold solve from the all-slack basis.  Both loops choose by the
smallest-index rule (Bland) on variable ids, in pricing and in the ratio
tests, which prevents cycling.  Problem sizes here are tiny (tens of rows,
a handful of variables), so a dense tableau is the right tool.

The tableau is condensed (ch. 8): a basic variable's column is a unit
column, so each row, and the reduced-cost row, keeps only the n nonbasic
columns and a value cell.  A pivot hands the entering variable's column to
the leaving one.  It is fraction-free too (in the spirit of Bareiss, Math.
Comp. 1968): each row is a list of integers over one positive row
denominator, its last cell holding its basic value, and the reduced costs
are integers over one positive denominator, their last cell holding minus
the objective value.  Nonbasic values are integers, so moving one shifts
each value cell by an integer multiple.  A pivot rests the entering variable
at 0 and the leaving one at the bound it reached, then scales the pivot row
so that its entering entry p is positive and becomes its denominator; every
other row becomes row*p - f*pivot_row over den*p, where f is its entering
entry.  One gcd pass then reduces each updated row.  A dropped unit column
holds 0 in every other row and the row denominator in its own, so that gcd
is the one over the full row.  Every cell is the same rational a full
Fraction tableau would hold, so every sign and ratio test, and hence every
pivot, is the same; the ratio tests compare integer cross products, in which
the positive denominators cancel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import JamesTreeError


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
    """The condensed tableau of one LP whose row list only grows between solves.

    Only the n nonbasic columns are stored: `cols[k]` names the variable at
    column k and `pos[j]` gives variable j's column, or -1 while x_j is
    basic.  Row i reads x_{basis[i]} + sum_k (tableau[i][k] / den[i])
    x_{cols[k]} = const with den[i] > 0 and a last cell den[i] *
    x_{basis[i]}; `at` holds the nonbasic values (0 when basic), z[k] / z_den
    the reduced cost of x_{cols[k]} (z_den > 0) with a last cell
    -z_den * c.x, and `rows` the rows absorbed so far, which every later call
    must repeat as the prefix of its row list.  Create one per LP and pass it
    to every `simplex_max` call on that LP.
    """

    def __init__(self) -> None:
        self.objective: list[Fraction] | None = None
        self.rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
        self.tableau: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.cols: list[int] = []
        self.pos: list[int] = []
        self.at: list[int] = []
        self.z: list[int] = []
        self.z_den = 1

    def _absorb(self, c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]]) -> None:
        """Append the rows not seen yet, each with its slack basic."""
        n = len(c)
        if self.objective is None:
            self.objective = list(c)
            self.cols, self.pos, self.at = list(range(n)), list(range(n)), [0] * n
            self.z, self.z_den = _integer_row([*c, 0])  # value cell: -c.x at x = 0
        elif list(c) != self.objective:
            raise LPError("LPState was built for another objective")
        seen = len(self.rows)
        if len(rows) < seen or [(tuple(a), rhs) for a, rhs in rows[:seen]] != self.rows:
            raise LPError("rows do not extend the rows this LPState has absorbed")
        new = rows[seen:]
        integer_rows = [_integer_row([*a, rhs]) for a, rhs in new]
        if any(full[-1] < 0 for full, _ in integer_rows):
            raise LPError("simplex_max requires nonnegative right-hand sides")
        if any(len(a) != n for a, _ in new):
            raise LPError("row length mismatch")
        tableau, dens, basis, pos, at = self.tableau, self.den, self.basis, self.pos, self.at
        # a basic x_b with b < n has no column: the new row carries its
        # coefficient after the value cell until it is eliminated, in basis
        # order, by x_b's row with its unit column restored there
        eliminate = [(i, b) for i, b in enumerate(basis) if b < n]
        for (a, rhs), (full, den) in zip(new, integer_rows):
            row = [0] * n + [full[n] - sum(aj * v for aj, v in zip(full[:n], at) if v)]
            for j in range(n):
                if pos[j] >= 0:
                    row[pos[j]] = full[j]
            row += [full[b] for _, b in eliminate]
            for t, (i, _) in enumerate(eliminate, n + 1):
                f = row[t]
                if f:
                    prow = tableau[i] + [0] * len(eliminate)
                    prow[t] = dens[i]
                    row, den = _eliminate(row, den, f, prow, dens[i])
            del row[n + 1 :]
            pos.append(-1)
            basis.append(len(at))
            at.append(0)
            tableau.append(row)
            dens.append(den)
            self.rows.append((tuple(a), rhs))

    def _set(self, j: int, v: int) -> None:
        """Move the nonbasic x_j to v; the value cells follow."""
        k = self.pos[j]
        for row in (*self.tableau, self.z):
            if row[k]:
                row[-1] -= row[k] * (v - self.at[j])
        self.at[j] = v

    def _pivot(self, leave: int, k: int, bound: int) -> None:
        """x_{cols[k]} becomes basic in row leave; the variable it replaces
        rests at bound and takes over column k."""
        tableau, dens, cols, pos, at = self.tableau, self.den, self.cols, self.pos, self.at
        enter, out = cols[k], self.basis[leave]
        # x_enter rests at 0 first, which moves a row's value cell by f * a
        a, at[enter], at[out] = at[enter], 0, bound
        pivot_row = tableau[leave]
        p = pivot_row[k]
        pivot_row[-1] += p * a - dens[leave] * bound
        pivot_row[k] = dens[leave]  # x_out's unit column, now at column k
        if p < 0:
            pivot_row, p = [-v for v in pivot_row], -p
        pivot_row, p = _reduced(pivot_row, p)  # over p it reads 1 at x_enter
        tableau[leave], dens[leave] = pivot_row, p
        for i in [i for i, row in enumerate(tableau) if row[k] and i != leave]:
            row = tableau[i]
            f, row[k] = row[k], 0
            row[-1] += f * a
            tableau[i], dens[i] = _eliminate(row, dens[i], f, pivot_row, p)
        z = self.z
        f = z[k]
        if f:
            z[k] = 0
            z[-1] += f * a
            self.z, self.z_den = _eliminate(z, self.z_den, f, pivot_row, p)
        cols[k], pos[out], pos[enter] = out, k, -1
        self.basis[leave] = enter

    def _dual_simplex(self, n: int) -> None:
        """Pivot basic variables back inside their bounds, keeping z dual feasible."""
        at, cols, basis = self.at, self.cols, self.basis
        while True:
            outside = [
                b
                for b, row, d in zip(basis, self.tableau, self.den)
                if (row[-1] < -d or row[-1] > d if b < n else row[-1] < 0)
            ]
            if not outside:
                return
            r = min(outside)  # Bland: the smallest index outside its bounds leaves
            leave = basis.index(r)
            row, z = self.tableau[leave], self.z
            rise = row[-1] < _lower(r, n) * self.den[leave]
            target = _lower(r, n) if rise else 1
            # x_r changes by -t per unit of x_j; x_j must move the way that
            # carries x_r towards target and that its own bounds allow.  The
            # least ratio |z_j / t_j| wins, ties to the smallest index; the
            # positive denominators of the row and of z cancel from the
            # cross-multiplied comparison
            enter, best_j, best_z, best_t = -1, -1, 0, 1
            for k, t in enumerate(row[:-1]):
                if not t:
                    continue
                j = cols[k]
                up = (t < 0) == rise
                if up and j < n and at[j] >= 1 or not up and at[j] <= _lower(j, n):
                    continue
                zj, tj = abs(z[k]), abs(t)
                if enter < 0 or zj * best_t < best_z * tj or (zj * best_t == best_z * tj and j < best_j):
                    enter, best_j, best_z, best_t = k, j, zj, tj
            if enter < 0:
                raise LPError("internal error: infeasible LP with nonnegative right-hand sides")
            self._pivot(leave, enter, target)

    def _primal_simplex(self, n: int) -> None:
        """Bounded-variable primal simplex from a feasible basis to an optimum."""
        at, cols = self.at, self.cols
        while True:
            enter, j = -1, -1  # Bland: the smallest index that can improve
            for k, d in enumerate(self.z[:-1]):
                var = cols[k]
                if (enter < 0 or var < j) and (d > 0 and (var >= n or at[var] < 1) or d < 0 and at[var] > _lower(var, n)):
                    enter, j = k, var
            if enter < 0:
                return
            sign = 1 if self.z[enter] > 0 else -1
            # ratio test: the first variable to reach a bound, ties to the
            # smallest index; the entering variable's own opposite bound is a
            # candidate.  A step is gap / rate with rate > 0
            gap, rate = (1 - sign * at[j], 1) if j < n else (None, 1)
            leave, blocker, bound = -1, j, 0
            for i, (b, row, d) in enumerate(zip(self.basis, self.tableau, self.den)):
                r = sign * row[enter]  # x_b falls at r / d per unit step
                if r > 0:
                    to = _lower(b, n)
                    g = row[-1] - to * d
                elif r < 0 and b < n:
                    g, r, to = d - row[-1], -r, 1
                else:
                    continue
                if gap is None or g * rate < gap * r or (g * rate == gap * r and b < blocker):
                    gap, rate, leave, blocker, bound = g, r, i, b, to
            if gap is None:
                raise LPError("internal error: unbounded bounded-variable LP")
            if leave >= 0:
                self._pivot(leave, enter, bound)
            else:  # a bound flip: the entering variable stays nonbasic
                self._set(j, sign)


def _lower(j: int, n: int) -> int:
    """The lower bound of variable j: -1 for x_j, 0 for a slack."""
    return -1 if j < n else 0


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
    x = [Fraction(v) for v in state.at[:n]]
    for row, den, b in zip(state.tableau, state.den, state.basis):
        if b < n:
            x[b] = Fraction(row[-1], den)
    return Fraction(-state.z[-1], state.z_den), x
