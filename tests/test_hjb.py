"""Workload equation solver: closed forms, grid convergence, policies."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psslab as ps
from psslab import hjb
from psslab.hjb import (
    HjbConfig,
    HjbConvergenceError,
    ModePolicy,
    compute_v0,
    default_z_max,
    dominant_mode,
    extract_policy,
    single_mode_value,
    solve_hjb,
)


def test_closed_form_satisfies_ode():
    for b, s2, gamma in [(0.0, 2.0, 1.0), (-0.5, 0.3, 1.0), (1.2, 0.7, 2.5)]:
        cf = single_mode_value(b, s2, gamma)
        z = np.linspace(0.0, 8.0, 41)
        resid = b * cf.du(z) + 0.5 * s2 * cf.d2u(z) + z - gamma * cf.u(z)
        assert np.max(np.abs(resid)) <= 1e-12
        assert abs(float(cf.du(0.0))) <= 1e-15


def test_closed_form_reference_values():
    assert single_mode_value(0.0, 2.0, 1.0).u0 == pytest.approx(1.0, abs=1e-15)
    assert single_mode_value(0.0, 15.0 / 49.0, 1.0).u0 == pytest.approx(
        0.39123039821797584, abs=1e-15
    )


def test_single_mode_validation():
    with pytest.raises(ValueError):
        single_mode_value(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        single_mode_value(0.0, 1.0, -2.0)


def test_dominant_mode_selection():
    assert dominant_mode(((0.0, 1.0),)) == 0
    assert dominant_mode(((0.0, 2.0), (-0.1, 3.0))) is None
    assert dominant_mode(((0.5, 1.0), (0.5, 1.0))) == 0
    assert dominant_mode(((-1.0, 1.0), (0.0, 2.0))) == 0


def test_default_z_max_formula():
    coef = ((-0.25, 0.36), (0.1, 1.0))
    expected = 20.0 * 1.0 / math.sqrt(2.0) + 20.0 * 0.25 / 2.0
    assert default_z_max(coef, 2.0) == pytest.approx(expected, rel=1e-15)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_hjb((), 1.0)
    with pytest.raises(ValueError):
        solve_hjb(((0.0, 0.0),), 1.0)
    with pytest.raises(ValueError):
        solve_hjb(((0.0, 1.0),), 0.0)
    with pytest.raises(ValueError):
        solve_hjb(((0.0, 1.0),), 1.0, HjbConfig(grid_n=2))
    for mode in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite b and a finite sigma2 > 0"):
            solve_hjb(((0.0, 1.0), mode), 1.0)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            solve_hjb(((0.0, 1.0),), gamma)
    for z_max in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="z_max must be finite and positive"):
            solve_hjb(((0.0, 1.0), (-0.1, 2.0)), 1.0, HjbConfig(z_max=z_max))


def test_single_mode_matches_closed_form():
    cf = single_mode_value(0.0, 2.0, 1.0)
    sol = solve_hjb(((0.0, 2.0),), 1.0)
    assert sol.iterations == 1
    assert np.all(sol.mode_at == 0)
    assert sol.switch_points == ()
    assert np.max(np.abs(sol.u - cf.u(sol.grid))) <= 5e-5
    assert np.max(np.abs(sol.du - cf.du(sol.grid))) <= 5e-4
    assert sol.residual_max <= 1e-7
    assert sol.excess_min == 0.0


@pytest.mark.parametrize("b,s2", [(0.0, 2.0), (-0.5, 0.3)])
def test_grid_refinement_is_second_order(b, s2):
    cf = single_mode_value(b, s2, 1.0)
    z_max = default_z_max(((b, s2),), 1.0)
    errs = []
    for n in (1000, 2000, 4000):
        sol = solve_hjb(((b, s2),), 1.0, HjbConfig(z_max=z_max, grid_n=n))
        errs.append(np.max(np.abs(sol.u - cf.u(sol.grid))))
    assert math.log2(errs[0] / errs[1]) >= 1.8
    assert math.log2(errs[1] / errs[2]) >= 1.8


def test_domain_truncation_is_stable():
    z_max = default_z_max(((0.0, 2.0),), 1.0)
    a = solve_hjb(((0.0, 2.0),), 1.0, HjbConfig(z_max=z_max, grid_n=4000))
    b = solve_hjb(((0.0, 2.0),), 1.0, HjbConfig(z_max=2.0 * z_max, grid_n=8000))
    assert abs(a.u0 - b.u0) <= 1e-8


def test_strong_advection_stays_monotone():
    # Coarse cells push |b| dz past sigma2, forcing the one-sided stencil;
    # the computed solution must stay free of oscillations.
    cf = single_mode_value(-5.0, 0.1, 1.0)
    sol = solve_hjb(((-5.0, 0.1),), 1.0)
    assert np.min(sol.du) >= -1e-9
    assert np.max(np.abs(sol.u - cf.u(sol.grid))) <= 0.05


def test_policy_iteration_improves_on_fixed_modes():
    pair = ((0.0, 2.0), (-0.1, 3.0))
    assert dominant_mode(pair) is None
    sol = solve_hjb(pair, 1.0)
    assert sol.iterations > 1
    best_single = min(
        single_mode_value(b, s2, 1.0).u0 for b, s2 in pair
    )
    assert sol.u0 <= best_single + 1e-6
    assert sol.residual_max <= 1e-7
    assert sol.excess_min >= -1e-12
    assert len(sol.switch_points) == 1
    assert sol.mode_at[0] == 0 and sol.mode_at[-1] == 1


def test_policy_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(hjb, "_MAX_ITERATIONS", 0)
    with pytest.raises(HjbConvergenceError):
        solve_hjb(((0.0, 2.0), (-0.1, 3.0)), 1.0)


def test_mode_policy_validation_and_lookup():
    with pytest.raises(ValueError):
        ModePolicy(thresholds=(1.0,), modes=(0,))
    with pytest.raises(ValueError):
        ModePolicy(thresholds=(2.0, 1.0), modes=(0, 1, 0))
    # A NaN threshold would put 0.5 in interval 1 by bisect_right, as the
    # prelimit simulator looks it up, but in interval 0 by searchsorted,
    # as mode_of and the WCP kernel do.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ModePolicy(thresholds=(bad,), modes=(0, 1))
        with pytest.raises(ValueError, match="finite"):
            ModePolicy(thresholds=(0.2, bad), modes=(0, 1, 0))
    pol = ModePolicy(thresholds=(1.0, 3.0), modes=(2, 0, 1))
    assert [pol(z) for z in (0.0, 0.99, 1.0, 2.5, 3.0, 50.0)] == [2, 2, 0, 0, 1, 1]
    z = np.array([0.0, 0.99, 1.0, 2.5, 3.0, 50.0])
    assert pol.mode_of(z).tolist() == [2, 2, 0, 0, 1, 1]
    assert pol.intervals == ((0.0, 1.0, 2), (1.0, 3.0, 0), (3.0, math.inf, 1))
    const = ModePolicy.constant(4)
    assert const(123.0) == 4 and const.intervals == ((0.0, math.inf, 4),)


def test_two_activity_variant_switches_once(get_instance, get_analysis):
    inst = get_instance("example_a2")
    an = get_analysis("example_a2")
    sol = solve_hjb(an.coefficients, inst.gamma)
    assert len(sol.switch_points) == 1
    z_star = sol.switch_points[0]
    assert z_star == pytest.approx(0.365, abs=5e-3)
    pol = extract_policy(sol)
    assert pol.thresholds == sol.switch_points
    assert pol.modes == (0, 1)
    # Smaller variance below the threshold, smaller drift above it.
    below = an.coefficients[pol(0.0)]
    above = an.coefficients[pol(z_star + 1.0)]
    assert below[1] < above[1] and above[0] < below[0]
    assert compute_v0(inst, an, sol) == pytest.approx(2.477, abs=2e-3)
    assert compute_v0(inst, an, sol) == pytest.approx(
        inst.h[an.q] / float(an.dual.y[an.q]) * sol.u0, rel=1e-15
    )


@pytest.mark.parametrize(
    "coefficients, low_b_mode",
    [
        # Two modes tied on sigma2: the lower drift dominates.
        (((0.1, 1.0), (-0.1, 1.0)), 1),
        # A third mode with the lowest drift but more variance takes the far
        # field, so policy iteration has to rank the two tied at z = 0.
        (((0.1, 1.0), (-0.1, 1.0), (-0.5, 2.0)), 1),
    ],
)
def test_sigma2_tie_at_zero_breaks_by_drift(coefficients, low_b_mode):
    config = HjbConfig(grid_n=2000)
    sol = solve_hjb(coefficients, 1.0, config)
    dz = sol.grid[1]
    assert sol.mode_at[0] == low_b_mode
    assert all(z >= 2.0 * dz for z in sol.switch_points)


def test_lower_bound_requires_assumptions(get_instance, get_analysis):
    sol = solve_hjb(((0.0, 1.0),), 1.0)
    with pytest.raises(ps.AssumptionError) as exc:
        compute_v0(get_instance("example_d"), get_analysis("example_d"), sol)
    assert exc.value.failing_parts == (3,)


def test_derivatives_reported_on_grid(get_instance, get_analysis):
    inst = get_instance("example_a1")
    an = get_analysis("example_a1")
    sol = solve_hjb(an.coefficients, inst.gamma)
    # The dominant mode collapses the solve to one linear system.
    assert sol.iterations == 1
    b, s2 = an.coefficients[int(sol.mode_at[0])]
    cf = single_mode_value(b, s2, inst.gamma)
    assert np.max(np.abs(sol.u - cf.u(sol.grid))) <= 5e-5
    assert np.max(np.abs(sol.d2u[:100] - cf.d2u(sol.grid[:100]))) <= 5e-3


def _dense_u_system(mode_at, stencils, grid, dz, gamma):
    """The (n+1) x (n+1) system in u itself: the interior stencil rows
    with right-hand side -z, and the one-sided rows u'(0) = 0 and
    u'(z_max) = 1/gamma."""
    n = len(grid) - 1
    a = np.zeros((n + 1, n + 1))
    for i in range(1, n):
        a[i, i - 1 : i + 2] = stencils[mode_at[i]][:3]
    a[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * dz)
    a[n, n - 2 :] = np.array([1.0, -4.0, 3.0]) / (2.0 * dz)
    rhs = -grid.copy()
    rhs[0] = 0.0
    rhs[n] = 1.0 / gamma
    return a, rhs


def _check_against_dense_u_system(modes, gamma, mode_at, z_max):
    grid_n = len(mode_at) - 1
    dz = z_max / grid_n
    grid = np.linspace(0.0, z_max, grid_n + 1)
    stencils = hjb._stencils(modes, dz, gamma)
    a, rhs = _dense_u_system(mode_at, stencils, grid, dz, gamma)
    u_ref = np.linalg.solve(a, rhs)
    u = hjb._solve_linear(mode_at, stencils, dz, gamma) + grid / gamma
    # Both solves are backward stable, so each is within about
    # cond(A) eps of the exact solution; allow 10 cond(A) eps.
    kappa = np.linalg.cond(a, np.inf)
    tol = 10.0 * kappa * np.finfo(float).eps * np.max(np.abs(u_ref))
    assert np.max(np.abs(u - u_ref)) <= tol


@settings(max_examples=200, deadline=None)
@given(
    # |b| up to 5 with small sigma2 pushes |b| dz past sigma2 on coarse
    # grids, so both upwind stencils occur besides the centred one.
    modes=st.lists(
        st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 2.0)), min_size=1, max_size=4
    ),
    gamma=st.floats(0.1, 3.0),
    grid_n=st.integers(3, 300),
    data=st.data(),
)
@example(modes=[(-5.0, 0.01), (5.0, 0.01), (0.0, 1.0)], gamma=1.0, grid_n=3, data=None)
@example(modes=[(-5.0, 0.01), (5.0, 0.01), (0.0, 1.0)], gamma=0.1, grid_n=4, data=None)
def test_linear_solve_matches_dense_u_system(modes, gamma, grid_n, data):
    modes = tuple(modes)
    if data is None:
        mode_at = np.arange(grid_n + 1) % len(modes)
    else:
        field = st.lists(
            st.integers(0, len(modes) - 1), min_size=grid_n + 1, max_size=grid_n + 1
        )
        mode_at = np.array(data.draw(field))
    _check_against_dense_u_system(modes, gamma, mode_at, default_z_max(modes, gamma))


@settings(max_examples=200, deadline=None)
@given(
    # Drawn as in test_linear_solve_matches_dense_u_system, so both upwind
    # differences occur besides the centred one.
    modes=st.lists(
        st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 2.0)), min_size=1, max_size=4
    ),
    gamma=st.floats(0.1, 3.0),
    grid_n=st.integers(3, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(modes=[(-5.0, 0.01), (5.0, 0.01), (0.0, 1.0)], gamma=1.0, grid_n=3, seed=0)
def test_hamiltonians_match_written_out_differences(modes, gamma, grid_n, seed):
    # H_m = b_m u' + sigma2_m/2 u'' with u' = w' + 1/gamma and u'' = w'':
    # inside, w' is centred where |b| dz <= sigma2, else upwind (forward
    # for b > 0); at z = 0 the drift term drops; at z_max w' and w'' take
    # the one-sided second order stencils.
    modes = tuple(modes)
    n = grid_n
    dz = default_z_max(modes, gamma) / n
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, n + 1)
    stencils = hjb._stencils(modes, dz, gamma)
    ham = hjb._hamiltonians(w, stencils, modes, dz, gamma)
    d2 = (w[2:] - 2.0 * w[1:n] + w[: n - 1]) / dz**2
    dw_n = (3.0 * w[n] - 4.0 * w[n - 1] + w[n - 2]) / (2.0 * dz)
    d2_0 = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / dz**2
    d2_n = (2.0 * w[n] - 5.0 * w[n - 1] + 4.0 * w[n - 2] - w[n - 3]) / dz**2
    w_near = np.max([np.abs(w[: n - 1]), np.abs(w[1:n]), np.abs(w[2:])], axis=0)
    eps = np.finfo(float).eps
    w_max = np.max(np.abs(w))
    for (b, s2), (lo, di, hi, _), row in zip(modes, stencils, ham):
        if abs(b) * dz <= s2:
            dw = (w[2:] - w[: n - 1]) / (2.0 * dz)
        elif b > 0:
            dw = (w[2:] - w[1:n]) / dz
        else:
            dw = (w[1:n] - w[: n - 1]) / dz
        ref = b * (dw + 1.0 / gamma) + 0.5 * s2 * d2
        # Roundoff bound: either side sums a handful of terms, each a few
        # ulps off, whose magnitudes add up to at most `size`.
        size = (abs(lo) + abs(di) + abs(hi) + gamma) * w_near + abs(b) / gamma
        assert np.all(np.abs(row[1:n] - ref) <= 8.0 * eps * size)
        edge = 6.0 * s2 * w_max / dz**2 + abs(b) * (4.0 * w_max / dz + 1.0 / gamma)
        assert abs(row[0] - 0.5 * s2 * d2_0) <= 8.0 * eps * edge
        assert abs(row[n] - (b * (dw_n + 1.0 / gamma) + 0.5 * s2 * d2_n)) <= 8.0 * eps * edge


@pytest.mark.parametrize("b", [-3.1, 3.1])
@pytest.mark.parametrize("grid_n", [3, 4, 7, 300])
def test_linear_solve_with_singular_corner_row(b, grid_n):
    # With dz = 1, sigma2 = 0.1 and gamma = 1, the upwind row next to the
    # wall that b drifts towards has a zero diagonal once the one-sided
    # boundary row is substituted into it.
    mode_at = np.zeros(grid_n + 1, dtype=np.int64)
    _check_against_dense_u_system(((b, 0.1),), 1.0, mode_at, float(grid_n))


@pytest.mark.parametrize("name", ["mm1", "example_a"])
def test_u0_matches_closed_form_at_grid_64000(name, get_instance, get_analysis):
    inst, an = get_instance(name), get_analysis(name)
    m0 = dominant_mode(an.coefficients)
    cf = single_mode_value(*an.coefficients[m0], inst.gamma)
    sol = solve_hjb(an.coefficients, inst.gamma, HjbConfig(grid_n=64000))
    assert abs(sol.u0 - cf.u0) <= 2e-7


def test_fine_grid_solves_switching_instance(get_instance, get_analysis):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    sol = solve_hjb(an.coefficients, inst.gamma, HjbConfig(grid_n=256000))
    # u0 of the smooth-fit closed form, pasting the two modes' solutions
    # with C^2 contact at the threshold.
    assert abs(sol.u0 - 0.3538526026) <= 1e-8


# sha256 of u, du, d2u and mode_at (each dtype, then bytes), iterations and
# residual_max of solve_hjb on example_a2, by grid size.
HJB_PINS = {
    4000: ("88a960c9b3a35dc52a90fac378d2a240e542cf98e518aeaa53fcdb5efc26bdda", 3,
           2.057187753479184e-12),
    64000: ("a312a974bff369f42878a4b69907892665d4455c88af684a265df912fa2e8b61", 3,
            4.4903053497691303e-10),
}


@pytest.mark.parametrize("grid_n", sorted(HJB_PINS))
def test_solve_hjb_pinned(grid_n, get_instance, get_analysis):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    sol = solve_hjb(an.coefficients, inst.gamma, HjbConfig(grid_n=grid_n))
    h = hashlib.sha256()
    for a in (sol.u, sol.du, sol.d2u, sol.mode_at):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    assert (h.hexdigest(), sol.iterations, sol.residual_max) == HJB_PINS[grid_n]


def test_linear_solve_peak_memory(get_instance, get_analysis):
    # The three right-hand sides are reduced one at a time, keeping only the
    # two entries of each that the 2 x 2 solve reads. On example_a2 at grid
    # 64000 the traced peak is 12.3 times the solution's bytes; reduced
    # together as a 3-row stack they took 18.4 times.
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    grid_n = 64000
    sol = solve_hjb(an.coefficients, inst.gamma, HjbConfig(grid_n=grid_n))
    dz = default_z_max(an.coefficients, inst.gamma) / grid_n
    stencils = hjb._stencils(an.coefficients, dz, inst.gamma)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        w = hjb._solve_linear(sol.mode_at, stencils, dz, inst.gamma)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert np.array_equal(w + sol.grid / inst.gamma, sol.u)
    assert peak <= 15 * w.nbytes


def test_residual_past_roundoff_floor_advises_coarser_grid(get_instance, get_analysis):
    inst, an = get_instance("mm1"), get_analysis("mm1")
    with pytest.raises(HjbConvergenceError, match="roundoff floor .*; coarsen the grid"):
        solve_hjb(an.coefficients, inst.gamma, HjbConfig(grid_n=512000))


@pytest.mark.parametrize(
    "offset,advice",
    [(1e-3, "the linear solve lost accuracy"), (1e4, "coarsen the grid")],
)
def test_residual_advice_follows_roundoff_floor(
    get_instance, get_analysis, monkeypatch, offset, advice
):
    # Shifting w by a constant c leaves every derivative alone and leaves a
    # residual of gamma c; a large |w| also lifts the roundoff floor past tol.
    inst, an = get_instance("mm1"), get_analysis("mm1")
    solve = hjb._solve_linear
    monkeypatch.setattr(hjb, "_solve_linear", lambda *args: solve(*args) + offset)
    with pytest.raises(HjbConvergenceError, match=f"roundoff floor .*; {advice}$"):
        solve_hjb(an.coefficients, inst.gamma, HjbConfig(grid_n=4000))


def test_hjb_solve_imports_no_scipy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, psslab\n"
        "psslab.solve_hjb(((0.0, 2.0), (-0.1, 3.0)), 1.0)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
