from fractions import Fraction as F

import numpy as np
import pytest

from conftest import enumerate_basic_feasible
from psslab.exactlp import (
    LpStatus,
    eliminate,
    enumerate_vertices,
    solve_lp,
    solve_square,
)

Z, O = F(0), F(1)


def test_equality_pin():
    res = solve_lp([O], [[O]], [F(2)])
    assert res.status is LpStatus.OPTIMAL
    assert res.x == (F(2),)


def test_inequality_binding():
    # min x+y subject to x+y >= 1, stated as -x-y+s = -1 with a slack s.
    res = solve_lp([O, O, Z], [[-O, -O, O]], [-O])
    assert res.status is LpStatus.OPTIMAL
    assert res.x[0] + res.x[1] >= 1


def test_unbounded():
    assert solve_lp([-O], [], []).status is LpStatus.UNBOUNDED


def test_infeasible():
    res = solve_lp([O], [[O]], [-O])
    assert res.status is LpStatus.INFEASIBLE
    res = solve_lp([Z, Z], [[O, O], [O, O]], [O, F(2)])
    assert res.status is LpStatus.INFEASIBLE


def test_redundant_equalities():
    # Same row twice must not be reported infeasible.
    res = solve_lp([O, O], [[O, O], [O, O]], [F(2), F(2)])
    assert res.status is LpStatus.OPTIMAL
    assert res.x[0] + res.x[1] == 2


def test_degenerate_cycling_guard():
    # Classic degenerate program; Bland's rule must terminate. Its three
    # inequality rows carry the slacks of the last three columns.
    c = [F(-3, 4), F(150), F(-1, 50), F(6), Z, Z, Z]
    a = [
        [F(1, 4), F(-60), F(-1, 25), F(9), O, Z, Z],
        [F(1, 2), F(-90), F(-1, 50), F(3), Z, O, Z],
        [Z, Z, O, Z, Z, Z, O],
    ]
    res = solve_lp(c, a, [Z, Z, O])
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(-1, 20)


def test_matches_float_solver_on_random_programs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n, m = 4, 3
        a = [[F(int(rng.integers(-4, 5))) for _ in range(n)] for _ in range(m)]
        x0 = [F(int(rng.integers(0, 4))) for _ in range(n)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
        c = [F(int(rng.integers(-5, 6))) for _ in range(n)]
        # a x <= b, with a slack per row in the last m columns.
        slacks = [[O if s == r else Z for s in range(m)] for r in range(m)]
        res = solve_lp(c + [Z] * m, [row + unit for row, unit in zip(a, slacks)], b)
        # x0 is feasible by construction, so no infeasibilities.
        assert res.status in (LpStatus.OPTIMAL, LpStatus.UNBOUNDED)
        if res.status is LpStatus.OPTIMAL:
            value0 = sum(c[j] * x0[j] for j in range(n))
            assert res.value <= value0
            for row, rhs in zip(a, b):
                assert sum(row[j] * res.x[j] for j in range(n)) <= rhs
            assert all(v >= 0 for v in res.x)


def test_solve_square():
    a = [[F(2), Z], [Z, F(4)]]
    assert solve_square(a, [F(2), F(8)]) == [O, F(2)]
    assert solve_square([[O, O], [O, O]], [O, O]) is None


def test_enumerate_basic_feasible_simplex_facet():
    # x + y + z = 1 over the nonnegative orthant: three unit vertices.
    verts = enumerate_basic_feasible([[O, O, O]], [O])
    assert verts == sorted([(O, Z, Z), (Z, O, Z), (Z, Z, O)])


def test_enumerate_basic_feasible_skips_singular_bases():
    # x + y + z = 1 with y = 0: two vertices, one singular basis.
    verts = enumerate_basic_feasible([[O, O, O], [Z, O, Z]], [O, Z])
    assert verts == [(Z, Z, O), (O, Z, Z)]


def test_eliminate_rank_and_reduced_form():
    rows = [[F(2), F(4), F(2)], [O, F(2), O], [F(3), F(7), F(3)]]
    reduced, pivots = eliminate(rows)
    # The third row is 3/2 the first plus 1/2 the second: rank 2.
    assert pivots == [0, 1]
    assert reduced == [[O, Z, O], [Z, O, Z]]
    assert eliminate([[Z, Z]]) == ([], [])
    # An augmented system is inconsistent when the last column pivots.
    assert eliminate([[O, O], [O, F(2)]])[1] == [0, 1]


def test_enumerate_vertices_matches_oracle_on_small_systems():
    cases = [
        ([[O, O, O]], [O]),
        ([[O, O, O], [Z, O, Z]], [O, Z]),
        # Unit square with slacks; the vertex (1, 1) is where both bind.
        ([[O, Z, O, Z], [Z, O, Z, O]], [O, O]),
        # A degenerate vertex: x = (1, 0) makes four constraints bind in the plane.
        ([[O, O, O, Z, Z], [O, -O, Z, O, Z], [O, Z, Z, Z, O]], [O, O, O]),
        # The segment x1 = x2 of x1 + x2 <= 1: every pivot out of the
        # phase-1 basis at the origin is degenerate.
        ([[O, Z, Z, O, -O], [Z, O, Z, -O, O], [Z, Z, O, O, O]], [Z, Z, O]),
    ]
    for a, b in cases:
        assert enumerate_vertices(a, b) == enumerate_basic_feasible(a, b)
    assert enumerate_vertices([[O, O]], [-O]) == []


def test_enumerate_vertices_drops_redundant_rows():
    # The second row is twice the first: phase 1 drops it on the walk's path.
    assert enumerate_vertices([[O, O], [F(2), F(2)]], [O, F(2)]) == [(Z, O), (O, Z)]
    assert enumerate_vertices([[O, O], [F(2), F(2)]], [O, F(3)]) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_lp([-O], [[O]], []),
        lambda: solve_lp([-O], [[O]], [O, F(5)]),
        lambda: solve_lp([O, O], [[O, Z], [Z, O]], [F(2)]),
        lambda: solve_square([[O, Z], [Z, O]], [O]),
        lambda: enumerate_vertices([[O, O]], [O, F(3)]),
        lambda: enumerate_vertices([[O, O], [O, -O]], [O]),
        lambda: solve_lp([O, O], [[O]], [O]),
    ],
)
def test_right_hand_side_length_checked(call):
    with pytest.raises(ValueError):
        call()
