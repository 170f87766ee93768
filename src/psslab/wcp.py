"""Monte Carlo for the one-dimensional reflected workload diffusion.

The controlled state follows dZ = b(mode) dt + sigma(mode) dB with
reflection at 0; the mode is chosen by a feedback policy on the current
level, and the cost is the expected discounted area under Z. Paths are
generated by Euler steps with the mode frozen at the step's left
endpoint. Reflection is realized through the one-sided regulator: with
psi the cumulative driving path, the running maximum of psi^- is the
local time L and Z = psi + L.

Two boundary treatments are available. The plain scheme reflects using
psi sampled at grid points only; it is the textbook projected Euler step
Z <- max(0, Z + dpsi) and satisfies the discrete complementarity
identities exactly, but its boundary bias is O(sqrt(dt)), which is
visible at practical step sizes. The default scheme additionally samples
the within-step minimum of the driving Brownian bridge in closed form,
which removes the boundary bias (the reflected increment is then exact
in law for the frozen coefficients). Estimates use the default scheme;
set bridge=False to get the plain projected Euler path.

Streams are counter based: path p of seed s owns the bit generator
Philox(SeedSequence(s, spawn_key=(p,))). Its normals drive the Euler
increments; the bridge scheme's minima use standard exponentials from a
copy of that generator jumped 2**128 draws ahead, so the two streams
never overlap. One kernel advances a batch of paths in lockstep and draws
each path's noise _CHUNK steps at a time, so memory is O(batch x chunk)
whatever the horizon, and a path depends only on (seed, path_id), not on
the batch width, the chunk length or scheduling. simulate_wcp is that
kernel at width one with its lane recorded.

The noise buffers are step-major, (chunk, batch): each path draws its
chunk into a row of a small lane-major scratch, which is copied in
transposed, so a step reads its noise as contiguous rows. A step finds
each path's policy interval with one comparison per threshold, which
counts the thresholds <= z exactly as a sorted search would, ties
included, and gathers that interval's coefficients with one take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hjb import ModePolicy

Coefficients = tuple[tuple[float, float], ...]
Z95 = 1.959963984540054


@dataclass(frozen=True)
class SamplePath1D:
    """One simulated path: len(times) == len(values) == len(local_time)
    == len(mode_trace) + 1; mode_trace[k] acted on step k."""

    times: np.ndarray
    values: np.ndarray
    local_time: np.ndarray
    mode_trace: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.values < 0):
            raise ValueError("reflected path went negative")
        d = np.diff(self.local_time)
        if self.local_time[0] != 0.0 or np.any(d < 0):
            raise ValueError("local time must be nondecreasing from 0")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    half_width_95: float
    n_paths: int
    step: float
    horizon: float
    truncation_bound: float


def skorokhod_map(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided reflection of a path sampled on a grid.

    eta(t) = max_{s<=t} psi(s)^-, phi = psi + eta; phi >= 0, eta
    nondecreasing, and eta grows only where phi = 0.
    """
    psi = np.asarray(psi, dtype=float)
    eta = np.maximum.accumulate(np.maximum(-psi, 0.0))
    return psi + eta, eta


_CHUNK = 512  # time steps of noise drawn per path at a time
_BATCH = 2048  # paths advanced together by estimate_wcp_cost
_BLOCK = 128  # lanes per transposed copy into the step-major noise buffers


def _n_steps(step: float, horizon: float) -> int:
    """Number of Euler steps of a run, after checking 0 < step <= horizon
    with horizon finite."""
    if not (0 < step <= horizon and math.isfinite(horizon)):
        raise ValueError("need 0 < step <= horizon, horizon finite")
    return int(round(horizon / step))


def _path_streams(seed: int, path_id: int, bridge: bool):
    """Generators of one path: its Euler normals, and for the bridge
    scheme the exponentials of its within-step minima (else None)."""
    seq = np.random.SeedSequence(seed, spawn_key=(path_id,))
    normals = np.random.Generator(np.random.Philox(seq))
    if not bridge:
        return normals, None
    # The state of Philox(seq).jumped(), without jumped()'s detour through
    # a generator seeded from OS entropy.
    ahead = np.random.Philox(seq)
    ahead.advance(2**128)
    return normals, np.random.Generator(ahead)


def _interval_lookup(thresholds, width):
    """A function of z (width values) that returns the index of the policy
    interval holding each z, or None when there are no thresholds. The
    index is the number of thresholds <= z, which is
    np.searchsorted(thresholds, z, side="right"), ties included; the
    returned array is overwritten by the next call.

    It makes one comparison per threshold, with no search. The count fits
    in a byte below 256 thresholds, and the first comparison then writes
    its booleans straight into the bytes of the result. Thresholds are
    0-d arrays, which a comparison takes without converting a Python
    float on every call.
    """
    if not thresholds:
        return None
    first, *rest = (np.array(float(t)) for t in thresholds)
    idx = np.zeros(width, dtype=np.uint8 if len(thresholds) < 256 else np.intp)
    low = idx.view(np.bool_) if idx.itemsize == 1 else idx
    hit = np.empty(width, dtype=np.bool_)

    def lookup(z):
        np.greater_equal(z, first, out=low, casting="unsafe")
        for t in rest:
            np.add(idx, np.greater_equal(z, t, out=hit), out=idx)
        return idx

    return lookup


def _fill_noise(streams, n, normals, expo, scratch):
    """Draw the next n steps of noise of every lane into rows :n of the
    step-major buffers normals and expo (expo None for the plain scheme).

    Each lane fills its own row of the lane-major scratch with one call per
    stream; the scratch is then copied in transposed, len(scratch) lanes
    at a time.
    """
    block = len(scratch)
    for l0 in range(0, len(streams), block):
        lanes = streams[l0 : l0 + block]
        cols = slice(l0, l0 + len(lanes))
        rows = scratch[: len(lanes), :n]
        for row, (gen_n, _) in zip(rows, lanes):
            gen_n.standard_normal(out=row)
        normals[:n, cols] = rows.T
        if expo is not None:
            for row, (_, gen_e) in zip(rows, lanes):
                gen_e.standard_exponential(out=row)
            expo[:n, cols] = rows.T


def _steps(policy, coefficients, z0, step, n_steps, seed, path_ids, bridge):
    """Advance the paths path_ids together from z0, one Euler step at a time.

    Yields (z, eta), the reflected state and the local time after each
    step; the arrays are overwritten by the next step. Noise is drawn
    _CHUNK steps at a time per path into step-major buffers, so step k
    reads one contiguous row and memory does not grow with n_steps. Each
    step looks up its per-lane coefficients by the interval of z, found
    by comparisons against the thresholds (_interval_lookup).
    """
    b, s2 = np.array([coefficients[m] for m in policy.modes], dtype=float).T
    # Per interval: the drift and the noise scale of one step, and the
    # 2 s^2 dt of its bridge minimum.
    table = np.array([b * step, np.sqrt(s2) * math.sqrt(step), 2.0 * s2 * step])

    width = len(path_ids)
    streams = [_path_streams(seed, p, bridge) for p in path_ids]
    normals = np.empty((_CHUNK, width))
    expo = np.empty((_CHUNK, width)) if bridge else None
    scratch = np.empty((min(width, _BLOCK), _CHUNK))
    psi = np.full(width, float(z0))
    eta = np.zeros(width)
    z = psi.copy()
    dpsi, tmp, tmp2 = np.empty(width), np.empty(width), np.empty(width)
    interval_of = _interval_lookup(policy.thresholds, width)
    coef = np.repeat(table[:, :1], width, axis=1)
    bk, sk, gk = coef
    for c0 in range(0, n_steps, _CHUNK):
        n = min(_CHUNK, n_steps - c0)
        _fill_noise(streams, n, normals, expo, scratch)
        for k in range(n):
            if interval_of is not None:
                table.take(interval_of(z), axis=1, out=coef, mode="clip")
            np.multiply(sk, normals[k], out=dpsi)
            dpsi += bk
            if bridge:
                # Closed-form minimum of the Brownian bridge between the step
                # endpoints, psi + (dpsi - sqrt(dpsi^2 + 2 s^2 dt E)) / 2 with
                # E ~ Exp(1); exact in law for coefficients frozen over the step.
                np.multiply(dpsi, dpsi, out=tmp)
                np.multiply(gk, expo[k], out=tmp2)
                tmp += tmp2
                np.sqrt(tmp, out=tmp)
                tmp -= dpsi
                tmp *= 0.5
                tmp -= psi
                psi += dpsi
            else:
                psi += dpsi
                np.negative(psi, out=tmp)
            np.maximum(eta, tmp, out=eta)
            np.add(psi, eta, out=z)
            yield z, eta


def simulate_wcp(
    policy: ModePolicy,
    coefficients: Coefficients,
    z0: float,
    step: float,
    horizon: float,
    seed: int,
    path_id: int = 0,
    bridge: bool = True,
) -> SamplePath1D:
    """Generate one path of the controlled reflected diffusion: lane
    path_id of the batch that estimate_wcp_cost runs."""
    if z0 < 0:
        raise ValueError("z0 must be nonnegative")
    n_steps = _n_steps(step, horizon)
    values = np.empty(n_steps + 1)
    local = np.zeros(n_steps + 1)
    values[0] = z0
    lanes = _steps(policy, coefficients, z0, step, n_steps, seed, (path_id,), bridge)
    for k, (z, eta) in enumerate(lanes, 1):
        values[k] = z[0]
        local[k] = eta[0]
    # Each step's mode is the policy's at the value the step started from.
    modes = policy.mode_of(values[:-1])
    times = np.arange(n_steps + 1) * step
    return SamplePath1D(times=times, values=values, local_time=local, mode_trace=modes)


def discounted_tail_bound(
    coefficients: Coefficients, gamma: float, z0: float, horizon: float
) -> float:
    """Upper bound on the discarded cost integral(horizon, inf).

    Uses E Z_t <= 2 (z0 + B t + S sqrt(pi t / 2)) with B = max |b_m| and
    S = max sigma_m (the reflected path is dominated by twice the running
    supremum of the free one) and sqrt(t) <= (1 + t) / 2.
    """
    b_max = max(abs(c[0]) for c in coefficients)
    s_max = max(math.sqrt(c[1]) for c in coefficients)
    a = 2.0 * z0 + s_max * math.sqrt(math.pi / 2.0)
    c = 2.0 * b_max + s_max * math.sqrt(math.pi / 2.0)
    return math.exp(-gamma * horizon) * (a / gamma + c * (horizon + 1.0 / gamma) / gamma)


def estimate_wcp_cost(
    policy: ModePolicy,
    coefficients: Coefficients,
    gamma: float,
    z0: float = 0.0,
    step: float = 1e-3,
    horizon: float | None = None,
    n_paths: int = 10_000,
    seed: int = 0,
    bridge: bool = True,
) -> McEstimate:
    """Monte Carlo mean of the discounted area under the controlled path.

    Per-path costs are the trapezoid rule on the simulation grid with
    weights exp(-gamma t); the 95% half width is the normal interval over
    paths. Paths run _BATCH at a time; costs depend only on (seed,
    path_id), never on that layout.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if horizon is None:
        horizon = 12.0 / gamma
    n_steps = _n_steps(step, horizon)
    # Trapezoid weights exp(-gamma t_k), with the end weights halved.
    weights = np.exp(-gamma * step * np.arange(n_steps + 1))
    weights[[0, -1]] *= 0.5
    w = weights.tolist()
    costs = np.empty(n_paths)

    for start in range(0, n_paths, _BATCH):
        ids = range(start, min(start + _BATCH, n_paths))
        acc = np.full(len(ids), w[0] * float(z0))
        wz = np.empty(len(ids))
        lanes = _steps(policy, coefficients, z0, step, n_steps, seed, ids, bridge)
        for k, (z, _) in enumerate(lanes, 1):
            np.multiply(z, w[k], out=wz)
            acc += wz
        costs[start : start + len(ids)] = acc * step

    mean = float(np.mean(costs))
    hw = float(Z95 * np.std(costs, ddof=1) / math.sqrt(n_paths))
    return McEstimate(
        mean=mean,
        half_width_95=hw,
        n_paths=n_paths,
        step=step,
        horizon=n_steps * step,
        truncation_bound=discounted_tail_bound(coefficients, gamma, z0, n_steps * step),
    )
