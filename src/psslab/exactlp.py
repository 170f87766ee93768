"""Exact linear programming over the rationals.

Every program is in standard form, over {x : a x = b, x >= 0}, and a
caller states its own slack variables. On that form there are a dense
two-phase simplex on fractions.Fraction, `solve_lp`, and the vertex
enumeration of a bounded polytope by a pivot walk over its feasible
bases, `enumerate_vertices`; Gauss-Jordan elimination, `eliminate`,
serves linear systems. Bland's rule is used in the simplex so the method
terminates under degeneracy. Intended for the small dense programs
arising from allocation problems (tens of variables), where exactness
matters more than speed: optimal values, optimal faces, degeneracy and
uniqueness questions are all decided without tolerances.

A tableau is a list of rows, each a constraint row ending in its
right-hand side, [a | b]. In the simplex the cost row comes last, with
the negated objective in its corner. One Gauss-Jordan step, `_pivot`,
serves the simplex, the vertex walk and `eliminate`.
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


def solve_lp(
    c: Sequence[Rational], a: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> LpResult:
    """Minimize c.x subject to a x = b, x >= 0.

    Returns the exact optimum and one optimal point, a vertex.
    """
    n = len(c)
    start = _phase_one(a, b, n)
    if start is None:
        return LpResult(LpStatus.INFEASIBLE, None, None)
    tab, basis = start
    # Phase 2: price out the basic columns of the cost row [c | 0].
    cost = [Fraction(v) for v in c] + [ZERO]
    for row, j in zip(tab, basis):
        cb = cost[j]
        if cb != 0:
            cost = [v - cb * w for v, w in zip(cost, row)]
    tab.append(cost)
    if not _pivot_loop(tab, basis, limit=n):
        return LpResult(LpStatus.UNBOUNDED, None, None)
    x = [ZERO] * n
    for row, j in zip(tab, basis):
        x[j] = row[-1]
    return LpResult(LpStatus.OPTIMAL, -tab[-1][-1], tuple(x))


def _phase_one(
    a: Sequence[Sequence[Rational]], b: Sequence[Rational], n: int
) -> tuple[list[list[Fraction]], list[int]] | None:
    """A feasible basis of a x = b, x >= 0 over n columns, as the tableau
    [a | b] reduced to it and the basis, with redundant rows dropped;
    None when infeasible."""
    if len(a) != len(b):
        raise ValueError("b length must match the rows of a")
    if any(len(row) != n for row in a):
        raise ValueError("every row of a must have one entry per variable")
    rows = [
        [-v for v in row] if row[-1] < 0 else row
        for row in _frac_matrix([[*row, bv] for row, bv in zip(a, b)])
    ]
    m = len(rows)
    # Artificial identity basis, minimize the artificial sum: the cost row
    # is minus the column sums, and zero on the artificials.
    sums = [-sum(col, ZERO) for col in zip(*rows)] if rows else [ZERO] * (n + 1)
    tab = [
        row[:n] + [ONE if k == i else ZERO for k in range(m)] + row[n:]
        for i, row in enumerate(rows)
    ]
    tab.append(sums[:n] + [ZERO] * m + sums[n:])
    basis = [n + i for i in range(m)]
    # Artificial columns never re-enter; once out they are dead.
    _pivot_loop(tab, basis, limit=n)
    if tab[-1][-1] != 0:
        return None

    # Drive remaining artificials out of the basis, drop redundant rows.
    i = 0
    while i < len(basis):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                del tab[i], basis[i]
                continue
            _pivot(tab, i, piv)
            basis[i] = piv
        i += 1
    return [row[:n] + row[-1:] for row in tab[:-1]], basis


def _pivot_loop(tab: list[list[Fraction]], basis: list[int], limit: int) -> bool:
    """Run Bland-rule pivots on the constraint rows and the cost row
    tab[-1] until optimal (True) or unbounded (False)."""
    m = len(basis)
    while True:
        enter = next((j for j in range(limit) if tab[-1][j] < 0), None)
        if enter is None:
            return True
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        _pivot(tab, leave, enter)
        basis[leave] = enter


def _pivot(tab: list[list[Fraction]], row: int, col: int) -> None:
    """The Gauss-Jordan step: scale tab[row] to 1 in col, then clear col
    from every other row. Changed rows are replaced, never edited in
    place, so tableaux may share their unchanged rows."""
    inv = ONE / tab[row][col]
    prow = tab[row] = [v * inv for v in tab[row]]
    for i, other in enumerate(tab):
        if i == row:
            continue
        f = other[col]
        if f != 0:
            tab[i] = [v - f * w for v, w in zip(other, prow)]


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
        _pivot(mat, rank, col)
        pivots.append(col)
    return mat[: len(pivots)], pivots


def solve_square(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a square rational system exactly; None if singular."""
    n = len(b)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError("a must be square with one row per entry of b")
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
    n = len(a[0]) if a else 0
    start = _phase_one(a, b, n)
    if start is None:
        return []
    seen = {frozenset(start[1])}
    queue = deque([start])
    vertices: set[tuple[Fraction, ...]] = set()
    while queue:
        tab, basis = queue.popleft()
        x = [ZERO] * n
        for row, j in zip(tab, basis):
            x[j] = row[-1]
        vertices.add(tuple(x))
        basic = frozenset(basis)
        for col in range(n):
            if col in basic:
                continue
            best: Fraction | None = None
            leaving: list[int] = []
            for i, row in enumerate(tab):
                if row[col] > 0:
                    ratio = row[-1] / row[col]
                    if best is None or ratio < best:
                        best, leaving = ratio, [i]
                    elif ratio == best:
                        leaving.append(i)
            for i in leaving:
                key = basic - {basis[i]} | {col}
                if key in seen:
                    continue
                seen.add(key)
                # _pivot replaces the rows it changes: the child shares the rest.
                nxt_tab = tab[:]
                _pivot(nxt_tab, i, col)
                nxt_basis = basis[:]
                nxt_basis[i] = col
                queue.append((nxt_tab, nxt_basis))
    return sorted(vertices)
