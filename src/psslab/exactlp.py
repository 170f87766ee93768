"""Exact linear programming over the rationals.

A dense two-phase simplex on fractions.Fraction, Gauss-Jordan
elimination, and vertex enumeration of a polytope by a pivot walk over
its feasible bases. Bland's rule is used in the simplex so the method
terminates under degeneracy. Intended for the small dense programs
arising from allocation problems (tens of variables), where exactness
matters more than speed: optimal values, optimal faces, degeneracy and
uniqueness questions are all decided without tolerances.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

Rational = Fraction | int
ZERO = Fraction(0)
ONE = Fraction(1)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _frac_matrix(rows: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def _frac_vector(row: Sequence[Rational]) -> list[Fraction]:
    return [Fraction(v) for v in row]


def solve_lp(
    c: Sequence[Rational],
    a_eq: Sequence[Sequence[Rational]] = (),
    b_eq: Sequence[Rational] = (),
    a_ub: Sequence[Sequence[Rational]] = (),
    b_ub: Sequence[Rational] = (),
    nonneg: Sequence[bool] | None = None,
) -> LpResult:
    """Minimize c.x subject to a_eq x = b_eq, a_ub x <= b_ub.

    Variables with nonneg[j] True (the default) are constrained to x_j >= 0,
    the rest are free. Returns exact optimum and one optimal point.
    """
    c = _frac_vector(c)
    a_eq = _frac_matrix(a_eq)
    b_eq = _frac_vector(b_eq)
    a_ub = _frac_matrix(a_ub)
    b_ub = _frac_vector(b_ub)
    n = len(c)
    signs = [True] * n if nonneg is None else list(nonneg)
    if len(signs) != n:
        raise ValueError("nonneg length must match c")
    for row in a_eq:
        if len(row) != n:
            raise ValueError("a_eq row length must match c")
    for row in a_ub:
        if len(row) != n:
            raise ValueError("a_ub row length must match c")

    # Standard form: split free variables, add slacks for inequality rows.
    col_of: list[tuple[int, int | None]] = []
    std_c: list[Fraction] = []
    for j in range(n):
        pos = len(std_c)
        std_c.append(c[j])
        neg = None
        if not signs[j]:
            neg = len(std_c)
            std_c.append(-c[j])
        col_of.append((pos, neg))

    def expand(row: list[Fraction]) -> list[Fraction]:
        out = [ZERO] * len(std_c)
        for j, v in enumerate(row):
            pos, neg = col_of[j]
            out[pos] = v
            if neg is not None:
                out[neg] = -v
        return out

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row, b in zip(a_eq, b_eq):
        rows.append(expand(row))
        rhs.append(b)
    n_slack = len(a_ub)
    for p, (row, b) in enumerate(zip(a_ub, b_ub)):
        r = expand(row) + [ZERO] * n_slack
        r[len(std_c) + p] = ONE
        rows.append(r)
        rhs.append(b)
    for p in range(len(a_eq)):
        rows[p] = rows[p] + [ZERO] * n_slack
    std_c = std_c + [ZERO] * n_slack

    status, x_std, value = _simplex_standard(rows, rhs, std_c)
    if status is not LpStatus.OPTIMAL:
        return LpResult(status, None, None)
    x = []
    for pos, neg in col_of:
        v = x_std[pos]
        if neg is not None:
            v = v - x_std[neg]
        x.append(v)
    return LpResult(LpStatus.OPTIMAL, value, tuple(x))


def _simplex_standard(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[LpStatus, list[Fraction], Fraction | None]:
    """Two-phase simplex for min c.x, a x = b, x >= 0."""
    n = len(c)
    start = _phase_one(a, b, n)
    if start is None:
        return LpStatus.INFEASIBLE, [], None
    tab, rhs, basis = start

    # Phase 2.
    m = len(tab)
    cost = c[:]
    obj = ZERO
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0:
            for j in range(n):
                cost[j] -= cb * tab[i][j]
            obj -= cb * rhs[i]
    obj = _pivot_loop(tab, rhs, cost, basis, obj, limit=n)
    if obj is None:
        return LpStatus.UNBOUNDED, [], None
    x = [ZERO] * n
    for i in range(m):
        x[basis[i]] = rhs[i]
    return LpStatus.OPTIMAL, x, -obj


def _phase_one(
    a: list[list[Fraction]], b: list[Fraction], n: int
) -> tuple[list[list[Fraction]], list[Fraction], list[int]] | None:
    """A feasible basis of a x = b, x >= 0 over n columns as (tableau,
    rhs, basis), with redundant rows dropped; None when infeasible."""
    m = len(a)
    tab = [row[:] for row in a]
    rhs = b[:]
    for i in range(m):
        if rhs[i] < 0:
            tab[i] = [-v for v in tab[i]]
            rhs[i] = -rhs[i]

    # Artificial identity basis, minimize the artificial sum.
    for i in range(m):
        ext = [ZERO] * m
        ext[i] = ONE
        tab[i] = tab[i] + ext
    basis = [n + i for i in range(m)]
    cost = [ZERO] * (n + m)
    for j in range(n):
        s = ZERO
        for i in range(m):
            s += tab[i][j]
        cost[j] = -s
    obj = -sum(rhs, ZERO)
    # Artificial columns never re-enter; once out they are dead.
    obj = _pivot_loop(tab, rhs, cost, basis, obj, limit=n)
    if obj is None or -obj != 0:
        return None

    # Drive remaining artificials out of the basis, drop redundant rows.
    i = 0
    while i < len(tab):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                del tab[i], rhs[i], basis[i]
                continue
            _pivot(tab, rhs, cost, i, piv)
            basis[i] = piv
        i += 1
    return [row[:n] for row in tab], rhs, basis


def _pivot_loop(
    tab: list[list[Fraction]],
    rhs: list[Fraction],
    cost: list[Fraction],
    basis: list[int],
    obj: Fraction,
    limit: int,
) -> Fraction | None:
    """Run Bland-rule pivots until optimal (returns obj) or unbounded (None)."""
    m = len(tab)
    while True:
        enter = next((j for j in range(limit) if cost[j] < 0), None)
        if enter is None:
            return obj
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = rhs[i] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        # obj tracks the negative objective; z moves by cost[enter] * ratio.
        obj -= cost[enter] * (rhs[leave] / tab[leave][enter])
        _pivot(tab, rhs, cost, leave, enter)
        basis[leave] = enter


def _pivot(
    tab: list[list[Fraction]],
    rhs: list[Fraction],
    cost: list[Fraction] | None,
    row: int,
    col: int,
) -> None:
    piv = tab[row][col]
    inv = ONE / piv
    tab[row] = [v * inv for v in tab[row]]
    rhs[row] *= inv
    prow = tab[row]
    pb = rhs[row]
    for i in range(len(tab)):
        if i == row:
            continue
        f = tab[i][col]
        if f != 0:
            tab[i] = [v - f * w for v, w in zip(tab[i], prow)]
            rhs[i] -= f * pb
    if cost is None:
        return
    f = cost[col]
    if f != 0:
        for j in range(len(cost)):
            cost[j] -= f * prow[j]


def eliminate(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination to reduced row echelon form.

    Returns the nonzero rows of the reduced form and their pivot columns;
    the rank is the number of pivots. Solving a linear system is the
    elimination of its augmented matrix: it is inconsistent when the last
    column is a pivot, and has a unique solution when every other column
    is one.
    """
    mat = _frac_matrix(rows)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = ONE / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def solve_square(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a square rational system exactly; None if singular."""
    n = len(b)
    reduced, pivots = eliminate([list(row) + [bv] for row, bv in zip(a, b)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n] for row in reduced[:n]]


def enumerate_vertices(
    a: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope {x >= 0 : a x = b}, each reported once,
    in lexicographic order; empty when it is infeasible.

    A breadth-first walk over the feasible bases, starting from the
    phase-1 basis. From each basis every nonbasic column with a positive
    entry may enter, and every row that ties in its ratio test may leave;
    each such pivot is an edge to a neighbouring basis, and a visited set
    of bases keeps the walk finite under degeneracy. The polyhedron must
    be bounded: then every vertex is reached, since perturbing b so that
    any one feasible basis becomes nondegenerate leaves a simple polytope
    whose bases and pivots all survive as feasible bases and pivots of the
    unperturbed system (Avis and Fukuda, Discrete Comput. Geom. 8, 1992).
    """
    a = _frac_matrix(a)
    b = _frac_vector(b)
    n = len(a[0]) if a else 0
    start = _phase_one(a, b, n)
    if start is None:
        return []
    seen = {frozenset(start[2])}
    queue = deque([start])
    vertices: set[tuple[Fraction, ...]] = set()
    while queue:
        tab, rhs, basis = queue.popleft()
        x = [ZERO] * n
        for i, j in enumerate(basis):
            x[j] = rhs[i]
        vertices.add(tuple(x))
        basic = frozenset(basis)
        for col in range(n):
            if col in basic:
                continue
            best: Fraction | None = None
            leaving: list[int] = []
            for i, row in enumerate(tab):
                if row[col] > 0:
                    ratio = rhs[i] / row[col]
                    if best is None or ratio < best:
                        best, leaving = ratio, [i]
                    elif ratio == best:
                        leaving.append(i)
            for i in leaving:
                key = basic - {basis[i]} | {col}
                if key in seen:
                    continue
                seen.add(key)
                nxt_tab = [row[:] for row in tab]
                nxt_rhs = rhs[:]
                _pivot(nxt_tab, nxt_rhs, None, i, col)
                nxt_basis = basis[:]
                nxt_basis[i] = col
                queue.append((nxt_tab, nxt_rhs, nxt_basis))
    return sorted(vertices)
