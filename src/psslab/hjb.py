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

Linear solve: the unknown is the bounded w = u - z/gamma, whose second
differences lose less to rounding than those of u. Interior rows keep
their stencils with right-hand side -b_m/gamma; the boundary rows
w'(0) = -1/gamma and w'(z_max) = 0 give w_0 and w_n from two inner
neighbours, and substituted into rows 1 and n - 1 leave a tridiagonal
system. Its other rows are diagonally dominant by gamma, so cyclic
reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7(4), 1970)
solves them without pivoting in log2(n) vectorised passes. Rows 1 and
n - 1 lose dominance under strong drift towards their wall and are
matched by a 2 x 2 solve instead (see ``_solve_linear``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

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


def _stencils(coefficients: Coefficients, dz: float, gamma: float):
    """Per-mode tridiagonal row (lower, diag, upper) for the interior and
    its right-hand side -b/gamma in the unknown w = u - z/gamma."""
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
        rows.append((lo, di, hi, -b / gamma))
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


def _hamiltonians(w: np.ndarray, stencils, coefficients: Coefficients, dz: float,
                  gamma: float) -> np.ndarray:
    """H_m = b_m u' + sigma2_m/2 u'' per grid point and mode, from u' = w' + 1/gamma, u'' = w''.

    Inside, each mode's assembled row applied to w gives b_m w' +
    sigma2_m/2 w'' - gamma w, so H_m is that plus gamma w + b_m/gamma and
    the argmin sees the very stencils of the linear systems. At z = 0 the
    imposed u'(0) = 0 removes the drift term; at z_max the far field slope
    is used.
    """
    n = len(w) - 1
    du, d2 = _derivatives(w, dz)
    du[n] += 1.0 / gamma
    out = np.empty((len(coefficients), n + 1))
    for m, ((lo, di, hi, r), (b, s2)) in enumerate(zip(stencils, coefficients)):
        out[m, 1:n] = lo * w[: n - 1] + di * w[1:n] + hi * w[2:] + gamma * w[1:n] - r
        out[m, 0] = 0.5 * s2 * d2[0]
        out[m, n] = b * du[n] + 0.5 * s2 * d2[n]
    return out


def _minimizing_modes(ham: np.ndarray, coefficients: Coefficients) -> np.ndarray:
    """Pointwise argmin of the Hamiltonians. At z = 0 the drift term is
    absent, so modes tied there are ranked by b, their order as z -> 0+
    (where u' > 0), not by index."""
    mode_at = np.argmin(ham, axis=0)
    tied = np.flatnonzero(ham[:, 0] == ham[mode_at[0], 0])
    mode_at[0] = min(tied, key=lambda m: coefficients[m][0])
    return mode_at


def _cyclic_reduction(lo, di, hi, rhs) -> np.ndarray:
    """Solve lo[i] x[i-1] + di[i] x[i] + hi[i] x[i+1] = rhs[..., i] for
    diagonally dominant rows, lo[0] = hi[-1] = 0 and len(di) = 2^k - 1."""
    if len(di) == 1:
        return rhs / di
    f = lo[1::2] / di[:-1:2]
    g = hi[1::2] / di[2::2]
    odd = _cyclic_reduction(-f * lo[:-1:2], di[1::2] - f * hi[:-1:2] - g * lo[2::2], -g * hi[2::2],
                            rhs[..., 1::2] - f * rhs[..., :-1:2] - g * rhs[..., 2::2])
    x = np.zeros(rhs.shape[:-1] + (len(di) + 2,))  # x[..., i + 1] is unknown i
    x[..., 2:-1:2] = odd
    x[..., 1:-1:2] = (rhs[..., ::2] - lo[::2] * x[..., :-2:2] - hi[::2] * x[..., 2::2]) / di[::2]
    return x[..., 1:-1]


def _solve_linear(mode_at: np.ndarray, stencils, dz: float, gamma: float) -> np.ndarray:
    """w = u - z/gamma for the mode field ``mode_at``. Cyclic reduction on
    the rows other than 1 and n - 1 writes w as xp + w_1 x1 + w_{n-1} xn;
    rows 1 and n - 1 then fix w_1 and w_{n-1}, and one more reduction with
    those values gives w."""
    n = len(mode_at) - 1
    c = 2.0 * dz / gamma
    # (diag, off-diag, rhs) of rows 1 and n - 1 after the substitution of
    # w_0 = (4 w_1 - w_2 + c) / 3 and w_n = (4 w_{n-1} - w_{n-2}) / 3
    lo, di, hi, r = stencils[mode_at[1]]
    p1, q1, r1 = di + 4.0 * lo / 3.0, hi - lo / 3.0, r - lo * c / 3.0
    lo, di, hi, r = stencils[mode_at[n - 1]]
    pn, qn, rn = di + 4.0 * hi / 3.0, lo - hi / 3.0, r

    # identity rows for w_1, w_{n-1} and the padding to 2^k - 1 rows
    rows = np.array([*stencils, (0.0, 1.0, 0.0, 0.0)]).T
    index = np.full((1 << (n - 1).bit_length()) - 1, len(stencils))
    index[1 : n - 2] = mode_at[2 : n - 1]
    lo, di, hi, rhs = rows[:, index]
    k = n - 3  # the inner neighbour of w_{n-1}

    def ends(b):
        """Entries 1 and k of the reduction of b, all the 2 x 2 solve reads."""
        return _cyclic_reduction(lo, di, hi, b)[[1, k]]

    def unit(row):
        e = np.zeros(len(index))
        e[row] = 1.0
        return e

    # One right-hand side at a time, so that only one solution is held.
    xp, x1, xn = ends(rhs), ends(unit(0)), ends(unit(n - 2))
    rhs[0], rhs[n - 2] = np.linalg.solve(
        [[p1 + q1 * x1[0], q1 * xn[0]], [qn * x1[1], pn + qn * xn[1]]],
        [r1 - q1 * xp[0], rn - qn * xp[1]],
    )
    w = np.empty(n + 1)
    w[1:n] = _cyclic_reduction(lo, di, hi, rhs)[: n - 1]
    w[0] = (4.0 * w[1] - w[2] + c) / 3.0
    w[n] = (4.0 * w[n - 1] - w[n - 2]) / 3.0
    return w


def solve_hjb(
    coefficients: Coefficients, gamma: float, config: HjbConfig | None = None
) -> HjbSolution:
    """Solve the mode-switching workload equation on a truncated domain."""
    if not coefficients:
        raise ValueError("at least one mode is required")
    for b, s2 in coefficients:
        if not (math.isfinite(b) and 0 < s2 < math.inf):
            raise ValueError("every mode needs a finite b and a finite sigma2 > 0")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    if config is None:
        config = HjbConfig()
    if config.grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    if config.z_max is not None and not 0 < config.z_max < math.inf:
        raise ValueError("z_max must be finite and positive")
    z_max = config.z_max if config.z_max is not None else default_z_max(coefficients, gamma)
    n = config.grid_n
    grid = np.linspace(0.0, z_max, n + 1)
    dz = z_max / n
    # The stencils divide by dz^2, which underflows on a fine enough grid;
    # just above that, sigma2 / (2 dz^2) overflows.
    stencils = _stencils(coefficients, dz, gamma) if dz * dz > 0.0 else None
    if stencils is None or not np.isfinite(stencils).all():
        raise HjbConvergenceError(
            f"grid step {dz:.1e} is too fine for floating point: its stencils "
            "divide by 0 or overflow; coarsen the grid"
        )

    m0 = dominant_mode(coefficients)
    if m0 is not None:
        mode_at = np.full(n + 1, m0, dtype=np.int64)
        w = _solve_linear(mode_at, stencils, dz, gamma)
        ham = _hamiltonians(w, stencils, coefficients, dz, gamma)
        iterations = 1
    else:
        mode_at = np.zeros(n + 1, dtype=np.int64)
        w = None
        for iterations in range(1, _MAX_ITERATIONS + 1):
            w_new = _solve_linear(mode_at, stencils, dz, gamma)
            ham = _hamiltonians(w_new, stencils, coefficients, dz, gamma)
            new_mode = _minimizing_modes(ham, coefficients)
            moved = not np.array_equal(new_mode, mode_at)
            settled = w is not None and float(np.max(np.abs(w_new - w))) <= _TOL_POLICY
            w = w_new
            mode_at = new_mode
            if not moved:
                # w and ham already belong to this mode field.
                break
            if settled:
                w = _solve_linear(mode_at, stencils, dz, gamma)
                ham = _hamiltonians(w, stencils, coefficients, dz, gamma)
                break
            # Held across the next solve, this array fragments the heap and
            # raises wcp-a2's peak RSS by about 8 MB at grid 64000.
            del ham
        else:
            raise HjbConvergenceError(
                f"policy iteration did not settle in {_MAX_ITERATIONS} iterations"
            )

    sel = ham[mode_at, np.arange(n + 1)]
    residual_max = float(np.max(np.abs(sel[1:n] - gamma * w[1:n])))
    if residual_max > _TOL_RESIDUAL:
        s2 = max(c[1] for c in coefficients)  # floor: sigma2/2 w'' with each w_i off by eps|w|
        floor = 2.0 * np.finfo(float).eps * np.abs(w).max() * s2 / dz**2
        # ham reuses the system's stencils: above the floor the solve failed.
        fix = "coarsen the grid" if floor >= _TOL_RESIDUAL else "the linear solve lost accuracy"
        raise HjbConvergenceError(
            f"residual {residual_max:.3e} exceeds tol {_TOL_RESIDUAL:.1e} at a roundoff floor "
            f"of about {floor:.1e}; {fix}"
        )
    if len(coefficients) > 1:
        excess_min = float(np.min(ham - sel[None, :]))
    else:
        excess_min = 0.0

    du, d2u = _derivatives(w, dz)
    du += 1.0 / gamma
    cut = np.flatnonzero(mode_at[:-1] != mode_at[1:])
    switches = 0.5 * (grid[cut] + grid[cut + 1])
    return HjbSolution(
        grid=grid,
        u=w + grid / gamma,
        du=du,
        d2u=d2u,
        mode_at=mode_at,
        switch_points=tuple(switches.tolist()),
        u0=float(w[0]),
        residual_max=residual_max,
        excess_min=excess_min,
        iterations=iterations,
        coefficients=tuple(coefficients),
        gamma=gamma,
    )


@dataclass(frozen=True)
class ModePolicy:
    """Piecewise constant feedback: workload level -> mode index.

    ``modes[p]`` applies on [thresholds[p-1], thresholds[p]); the last
    entry extends to infinity. Thresholds are finite and strictly
    increasing.
    """

    thresholds: tuple[float, ...]
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.thresholds) + 1:
            raise ValueError("need exactly one more mode than thresholds")
        if not all(map(math.isfinite, self.thresholds)):
            raise ValueError("thresholds must be finite")
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
    if inst != analysis.instance:
        raise ValueError("inst is of another instance than the analysis")
    if solution.coefficients != analysis.coefficients or solution.gamma != inst.gamma:
        raise ValueError("the solution is for other coefficients or another gamma")
    q = analysis.q
    return inst.h[q] / float(analysis.dual.y[q]) * solution.u0
