"""Solver for the one-dimensional workload control equation.

With one drift/variance pair (b_m, sigma2_m) per mode m, the value
function of the discounted workload control problem solves

    min_m [ b_m u'(z) + (sigma2_m / 2) u''(z) ] + z - gamma u(z) = 0

on (0, infinity) with u'(0) = 0 and linear growth. The minimizing mode at
each workload level z is the optimal allocation there, so the solution
doubles as a feedback policy: a partition of [0, infinity) into mode
intervals.

Discretization: uniform grid on [0, z_max]; centered second difference
for u''; for u' a centered difference where the cell Peclet condition
|b_m| dz <= sigma2_m holds (second order) and an upwind difference
otherwise (keeps every mode matrix an M-matrix, hence the policy
iteration monotone). u'(0) = 0 and the far field condition
u'(z_max) = 1/gamma are imposed with second order one-sided stencils.
The nonlinear min is resolved by Howard policy iteration: solve the
linear system of the current mode field, reselect the pointwise argmin,
repeat. When one mode minimizes both b and sigma2 it is optimal
everywhere and the solve reduces to a single linear system.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .lp import AssumptionError, LpAnalysis
from .model import PssInstance

Coefficients = tuple[tuple[float, float], ...]


class HjbConvergenceError(RuntimeError):
    """Policy iteration or residual tolerance failure."""


@dataclass(frozen=True)
class SingleModeValue:
    """Closed form value for a single fixed mode.

        u(z) = c1 + c2 z + (c2 / c3) exp(-c3 z)

    with c2 = 1/gamma, c3 = (b + sqrt(b^2 + 2 sigma2 gamma)) / sigma2 and
    c1 = b / gamma^2; satisfies the mode's linear equation with u'(0) = 0.
    """

    b: float
    sigma2: float
    gamma: float
    c1: float
    c2: float
    c3: float

    @property
    def u0(self) -> float:
        return self.c1 + self.c2 / self.c3

    def u(self, z):
        z = np.asarray(z, dtype=float)
        return self.c1 + self.c2 * z + (self.c2 / self.c3) * np.exp(-self.c3 * z)

    def du(self, z):
        z = np.asarray(z, dtype=float)
        return self.c2 * (1.0 - np.exp(-self.c3 * z))

    def d2u(self, z):
        z = np.asarray(z, dtype=float)
        return self.c2 * self.c3 * np.exp(-self.c3 * z)


def single_mode_value(b: float, sigma2: float, gamma: float) -> SingleModeValue:
    if sigma2 <= 0 or gamma <= 0:
        raise ValueError("sigma2 and gamma must be positive")
    c2 = 1.0 / gamma
    c3 = (b + math.sqrt(b * b + 2.0 * sigma2 * gamma)) / sigma2
    c1 = b / gamma**2
    return SingleModeValue(b=b, sigma2=sigma2, gamma=gamma, c1=c1, c2=c2, c3=c3)


def dominant_mode(coefficients: Coefficients) -> int | None:
    """Index of a mode minimizing both b and sigma2, if one exists.

    Ties resolve to the smallest index; None when drift and variance
    disagree about the best mode.
    """
    bs = [c[0] for c in coefficients]
    s2 = [c[1] for c in coefficients]
    b_min, s2_min = min(bs), min(s2)
    for m in range(len(coefficients)):
        if bs[m] == b_min and s2[m] == s2_min:
            return m
    return None


def default_z_max(coefficients: Coefficients, gamma: float) -> float:
    """Truncation point far enough that the reflected state is negligible."""
    s_max = max(math.sqrt(c[1]) for c in coefficients)
    b_max = max(abs(c[0]) for c in coefficients)
    return 20.0 * s_max / math.sqrt(gamma) + 20.0 * b_max / gamma


@dataclass(frozen=True)
class HjbConfig:
    """Grid of the solve: [0, z_max] in grid_n cells; z_max defaults to
    ``default_z_max`` of the coefficients."""

    z_max: float | None = None
    grid_n: int = 4000


_TOL_POLICY = 1e-10  # sup-norm change of u that ends policy iteration
_TOL_RESIDUAL = 1e-7  # largest interior residual accepted
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class HjbSolution:
    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    mode_at: np.ndarray
    switch_points: tuple[float, ...]
    u0: float
    residual_max: float
    excess_min: float
    iterations: int
    coefficients: Coefficients
    gamma: float
    config: HjbConfig = field(repr=False)


def _stencils(coefficients: Coefficients, dz: float, gamma: float):
    """Per-mode tridiagonal row (lower, diag, upper) for the interior."""
    rows = []
    for b, s2 in coefficients:
        diff = s2 / (2.0 * dz * dz)
        if abs(b) * dz <= s2:
            lo = diff - b / (2.0 * dz)
            hi = diff + b / (2.0 * dz)
            di = -2.0 * diff - gamma
        elif b > 0:
            lo = diff
            hi = diff + b / dz
            di = -2.0 * diff - b / dz - gamma
        else:
            lo = diff - b / dz
            hi = diff
            di = -2.0 * diff + b / dz - gamma
        rows.append((lo, di, hi))
    return rows


def _derivatives(u: np.ndarray, dz: float) -> tuple[np.ndarray, np.ndarray]:
    """u' and u'': centered differences inside, second order one-sided
    stencils at both ends."""
    n = len(u) - 1
    du = np.empty_like(u)
    du[1:n] = (u[2:] - u[: n - 1]) / (2.0 * dz)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dz)
    du[n] = (3.0 * u[n] - 4.0 * u[n - 1] + u[n - 2]) / (2.0 * dz)
    d2u = np.empty_like(u)
    d2u[1:n] = (u[2:] - 2.0 * u[1:n] + u[: n - 1]) / (dz * dz)
    d2u[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (dz * dz)
    d2u[n] = (2.0 * u[n] - 5.0 * u[n - 1] + 4.0 * u[n - 2] - u[n - 3]) / (dz * dz)
    return du, d2u


def _hamiltonians(u: np.ndarray, coefficients: Coefficients, dz: float) -> np.ndarray:
    """H_m = b_m u' + sigma2_m/2 u'' at every grid point, per mode.

    Uses each mode's own advection stencil so the argmin is consistent
    with the assembled linear systems. At z = 0 the imposed u'(0) = 0
    removes the drift term; at z_max the far field slope is used.
    """
    n = len(u) - 1
    du_c, d2 = _derivatives(u, dz)
    du_f = np.empty_like(u)
    du_f[1:n] = (u[2:] - u[1:n]) / dz
    du_b = np.empty_like(u)
    du_b[1:n] = (u[1:n] - u[: n - 1]) / dz

    out = np.empty((len(coefficients), n + 1))
    for m, (b, s2) in enumerate(coefficients):
        if abs(b) * dz <= s2:
            du = du_c
        elif b > 0:
            du = du_f
        else:
            du = du_b
        out[m, 1:n] = b * du[1:n] + 0.5 * s2 * d2[1:n]
        out[m, 0] = 0.5 * s2 * d2[0]
        out[m, n] = b * du_c[n] + 0.5 * s2 * d2[n]
    return out


def _minimizing_modes(ham: np.ndarray, coefficients: Coefficients) -> np.ndarray:
    """Pointwise argmin of the Hamiltonians. At z = 0 the drift term is
    absent, so modes tied there are ranked by b, their order as z -> 0+
    (where u' > 0), not by index."""
    mode_at = np.argmin(ham, axis=0)
    tied = np.flatnonzero(ham[:, 0] == ham[mode_at[0], 0])
    mode_at[0] = min(tied, key=lambda m: coefficients[m][0])
    return mode_at


def _solve_linear(
    mode_at: np.ndarray,
    stencils,
    grid: np.ndarray,
    dz: float,
    gamma: float,
) -> np.ndarray:
    # Imported here, not at module load: scipy.linalg adds about 27 MB of
    # RSS and 0.45 s to every process that imports psslab, even one that
    # only runs analyze.
    from scipy.linalg import solve_banded

    n = len(grid) - 1
    lo = np.array([stencils[m][0] for m in range(len(stencils))])[mode_at]
    di = np.array([stencils[m][1] for m in range(len(stencils))])[mode_at]
    hi = np.array([stencils[m][2] for m in range(len(stencils))])[mode_at]

    ab = np.zeros((5, n + 1))
    ab[1, 2 : n + 1] = hi[1:n]  # A[i, i+1]
    ab[2, 1:n] = di[1:n]  # A[i, i]
    ab[3, 0 : n - 1] = lo[1:n]  # A[i, i-1]
    rhs = -grid.copy()

    inv2dz = 1.0 / (2.0 * dz)
    ab[2, 0] = -3.0 * inv2dz
    ab[1, 1] = 4.0 * inv2dz
    ab[0, 2] = -1.0 * inv2dz
    rhs[0] = 0.0
    ab[2, n] = 3.0 * inv2dz
    ab[3, n - 1] = -4.0 * inv2dz
    ab[4, n - 2] = 1.0 * inv2dz
    rhs[n] = 1.0 / gamma
    return solve_banded((2, 2), ab, rhs)


def solve_hjb(
    coefficients: Coefficients, gamma: float, config: HjbConfig | None = None
) -> HjbSolution:
    """Solve the mode-switching workload equation on a truncated domain."""
    if not coefficients:
        raise ValueError("at least one mode is required")
    for b, s2 in coefficients:
        if s2 <= 0:
            raise ValueError("every mode needs sigma2 > 0")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if config is None:
        config = HjbConfig()
    if config.grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    z_max = config.z_max if config.z_max is not None else default_z_max(coefficients, gamma)
    n = config.grid_n
    grid = np.linspace(0.0, z_max, n + 1)
    dz = z_max / n
    stencils = _stencils(coefficients, dz, gamma)

    m0 = dominant_mode(coefficients)
    if m0 is not None:
        mode_at = np.full(n + 1, m0, dtype=np.int64)
        u = _solve_linear(mode_at, stencils, grid, dz, gamma)
        ham = _hamiltonians(u, coefficients, dz)
        iterations = 1
    else:
        mode_at = np.zeros(n + 1, dtype=np.int64)
        u = None
        iterations = 0
        for _ in range(_MAX_ITERATIONS):
            iterations += 1
            u_new = _solve_linear(mode_at, stencils, grid, dz, gamma)
            ham = _hamiltonians(u_new, coefficients, dz)
            new_mode = _minimizing_modes(ham, coefficients)
            moved = not np.array_equal(new_mode, mode_at)
            settled = u is not None and float(np.max(np.abs(u_new - u))) <= _TOL_POLICY
            u = u_new
            mode_at = new_mode
            if not moved:
                # u and ham already belong to this mode field.
                break
            if settled:
                u = _solve_linear(mode_at, stencils, grid, dz, gamma)
                ham = _hamiltonians(u, coefficients, dz)
                break
            # Held across the next solve, this array fragments the heap and
            # raises peak RSS by about 5 MB at grid 64000.
            del ham
        else:
            raise HjbConvergenceError(
                f"policy iteration did not settle in {_MAX_ITERATIONS} iterations"
            )

    sel = ham[mode_at, np.arange(n + 1)]
    residual = sel + grid - gamma * u
    residual_max = float(np.max(np.abs(residual[1:n])))
    if residual_max > _TOL_RESIDUAL:
        raise HjbConvergenceError(
            f"residual {residual_max:.3e} exceeds tol {_TOL_RESIDUAL:.1e}; "
            "refine the grid or enlarge z_max"
        )
    if len(coefficients) > 1:
        excess_min = float(np.min(ham - sel[None, :]))
    else:
        excess_min = 0.0

    du, d2u = _derivatives(u, dz)
    cut = np.flatnonzero(mode_at[:-1] != mode_at[1:])
    switches = 0.5 * (grid[cut] + grid[cut + 1])
    return HjbSolution(
        grid=grid,
        u=u,
        du=du,
        d2u=d2u,
        mode_at=mode_at,
        switch_points=tuple(switches.tolist()),
        u0=float(u[0]),
        residual_max=residual_max,
        excess_min=excess_min,
        iterations=iterations,
        coefficients=tuple(coefficients),
        gamma=gamma,
        config=config,
    )


@dataclass(frozen=True)
class ModePolicy:
    """Piecewise constant feedback: workload level -> mode index.

    ``modes[p]`` applies on [thresholds[p-1], thresholds[p]); the last
    entry extends to infinity. Thresholds are strictly increasing.
    """

    thresholds: tuple[float, ...]
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.thresholds) + 1:
            raise ValueError("need exactly one more mode than thresholds")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @classmethod
    def constant(cls, mode: int) -> "ModePolicy":
        return cls(thresholds=(), modes=(mode,))

    def __call__(self, z: float) -> int:
        return self.modes[bisect_right(self.thresholds, z)]

    def mode_of(self, z: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.thresholds), z, side="right")
        return np.asarray(self.modes)[idx]

    @property
    def intervals(self) -> tuple[tuple[float, float, int], ...]:
        bounds = (0.0,) + self.thresholds + (math.inf,)
        return tuple(
            (bounds[p], bounds[p + 1], self.modes[p]) for p in range(len(self.modes))
        )


def extract_policy(solution: HjbSolution) -> ModePolicy:
    """Collapse the grid mode field into maximal constant intervals."""
    mode_at = solution.mode_at
    starts = np.flatnonzero(mode_at[1:] != mode_at[:-1]) + 1
    modes = mode_at[np.concatenate(([0], starts))].tolist()
    return ModePolicy(thresholds=solution.switch_points, modes=tuple(modes))


def compute_v0(inst: PssInstance, analysis: LpAnalysis, solution: HjbSolution) -> float:
    """Lower bound constant: (h_q / y*_q) u(0)."""
    if not analysis.assumptions.all_pass:
        raise AssumptionError(
            "the lower bound requires all structural assumptions to hold",
            analysis.assumptions.failing_parts,
        )
    q = analysis.q
    return inst.h[q] / float(analysis.dual.y[q]) * solution.u0
