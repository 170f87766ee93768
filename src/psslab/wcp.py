"""Monte Carlo for the one-dimensional reflected workload diffusion.

The controlled state follows dZ = b(mode) dt + sigma(mode) dB with
reflection at 0; the mode is chosen by a feedback policy on the current
level, and the cost is the expected discounted area under Z. Paths are
generated by Euler steps with the mode frozen at the step's left
endpoint. Reflection is realized through the one-sided regulator: with
psi the cumulative driving path, the local time L is the running maximum
of -psi at the within-step minima of its Brownian bridges, and
Z = psi + L. Those minima are sampled in closed form, so the reflected
increment is exact in law for the frozen coefficients, without the
O(sqrt(dt)) boundary bias of the projected Euler step Z <- max(0, Z +
dpsi) (Asmussen, Glynn & Pitman, Ann. Appl. Probab. 5(4), 1995).

Streams are counter based and shared by blocks of _LANES paths: block b
of seed s owns the bit generator Philox(SeedSequence(s, spawn_key=(b,))),
and path p is lane p % _LANES of block p // _LANES. A block's normals
drive the Euler increments, drawn step-major: step k of lane l is draw
k * _LANES + l. The bridge minima use standard exponentials, drawn the
same way from a copy of that generator advanced 2**128 draws, so the
two streams never overlap. A path therefore depends only on
(seed, path_id), not on the batch width, the chunk length or scheduling.

One kernel advances whole blocks of paths in lockstep. Noise is drawn
_CHUNK steps at a time, each block's stream straight into its own
(chunk, _LANES) slab with one call, and the estimate's discount weights
are computed a chunk at a time too, so memory is O(batch x chunk)
whatever the horizon: for a batch of 32 blocks, 2 buffers x 2 streams x
32 blocks x 128 steps x 64 lanes x 8 bytes = 8.4 MB of noise. The
draws release the interpreter lock: while the kernel steps through one
chunk, the batch's one executor thread takes the next chunk's fill
calls, one per block and stream, from a queue, and the kernel's thread
takes those left once it has stepped. Each call runs once, so the draws
do not depend on which thread makes them. A step
finds each path's policy interval with one comparison per threshold,
which counts the thresholds <= z exactly as a sorted search would, ties
included, and gathers that interval's coefficients with one take.

simulate_wcp gives one lane of that kernel bit for bit, but evaluates it
a chunk at a time: on the guess that the policy interval of the chunk's
first step holds throughout, psi is a running sum of the increments and
the local time a running maximum, in the kernel's floating-point order,
and the chunk is evaluated again from the first step whose interval
differs from the guess.
"""

from __future__ import annotations

import math
from collections import deque
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

    @classmethod
    def from_costs(
        cls, costs: np.ndarray, step: float, horizon: float, truncation_bound: float
    ) -> "McEstimate":
        """The mean of per-path costs and its normal 95% half width."""
        n = len(costs)
        hw = float(Z95 * np.std(costs, ddof=1) / math.sqrt(n))
        return cls(float(np.mean(costs)), hw, n, step, horizon, truncation_bound)


def default_horizon(gamma: float) -> float:
    """The simulated horizon when none is given: 12 / gamma, where the
    discount factor is exp(-12), about 6e-6."""
    return 12.0 / gamma


def skorokhod_map(psi: np.ndarray, eta0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One-sided reflection of a path sampled on a grid.

    eta(t) = max_{s<=t} psi(s)^-, phi = psi + eta; phi >= 0, eta
    nondecreasing, and eta grows only where phi = 0. eta0, the last eta of
    an earlier piece of the path, continues the map on the next piece.
    """
    psi = np.asarray(psi, dtype=float)
    eta = np.maximum.accumulate(np.maximum(-psi, 0.0))
    np.maximum(eta, eta0, out=eta)
    return psi + eta, eta


_LANES = 64  # paths per noise stream; block b holds paths b * _LANES onwards
# Time steps of noise drawn at a time into each of two buffers: a block's
# two buffers of two streams hold 2 x 2 x 128 x 64 x 8 bytes = 0.26 MB.
_CHUNK = 128
_BATCH = 32 * _LANES  # paths advanced together by estimate_wcp_cost, a multiple of _LANES
# Most Euler steps of a run: above 2**53 a step's index, which the discount
# weight exp(-gamma * step * k) takes as a float, is no longer exact.
MAX_STEPS = 2**53


def _check_run(z0: float, step: float, horizon: float, path_id: int = 0) -> int:
    """Number of Euler steps of a run, after checking that z0 is finite and
    nonnegative, path_id nonnegative, 0 < step <= horizon with horizon
    finite, and that the run has at most MAX_STEPS steps."""
    if not 0.0 <= z0 < math.inf:
        raise ValueError("z0 must be finite and nonnegative")
    if path_id < 0:
        raise ValueError("path_id must be nonnegative")
    if not (0 < step <= horizon and math.isfinite(horizon)):
        raise ValueError("need 0 < step <= horizon, horizon finite")
    n_steps = horizon / step
    if not n_steps <= MAX_STEPS:
        raise ValueError("need horizon / step <= 2**53 steps")
    return int(round(n_steps))


def _block_streams(seed: int, block: int):
    """Generators of one block of _LANES paths: its Euler normals and the
    exponentials of its within-step bridge minima."""
    seq = np.random.SeedSequence(seed, spawn_key=(block,))
    normals = np.random.Generator(np.random.Philox(seq))
    # The state of Philox(seq).jumped(), without jumped()'s detour through
    # a generator seeded from OS entropy.
    ahead = np.random.Philox(seq)
    ahead.advance(2**128)
    return normals, np.random.Generator(ahead)


def _step_table(policy: ModePolicy, coefficients: Coefficients, step: float) -> np.ndarray:
    """Per policy interval (column): the drift and the noise scale of one
    step, and the 2 s^2 dt of its bridge minimum. Every policy mode must
    index coefficients."""
    for m in policy.modes:
        if not 0 <= m < len(coefficients):
            raise ValueError(f"mode {m} is not in 0..{len(coefficients) - 1}")
    b, s2 = np.array([coefficients[m] for m in policy.modes], dtype=float).T
    return np.array([b * step, np.sqrt(s2) * math.sqrt(step), 2.0 * s2 * step])


def _interval_lookup(thresholds, shape):
    """A function of z (an array of the given shape) that returns the index
    of the policy interval holding each z, or None when there are no
    thresholds. The index is the number of thresholds <= z, which is
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
    idx = np.zeros(shape, dtype=np.uint8 if len(thresholds) < 256 else np.intp)
    low = idx.view(np.bool_) if idx.itemsize == 1 else idx
    hit = np.empty(shape, dtype=np.bool_)

    def lookup(z):
        np.greater_equal(z, first, out=low, casting="unsafe")
        for t in rest:
            np.add(idx, np.greater_equal(z, t, out=hit), out=idx)
        return idx

    return lookup


def _fill_noise(calls):
    """Make the fill calls (draw, out) of the deque calls until it is empty.
    Both threads of _noise take calls from one deque, so each runs once and
    the draws do not depend on which thread makes them."""
    while True:
        try:
            draw, out = calls.popleft()
        except IndexError:
            return
        draw(out=out)


def _noise(seed, blocks, n_steps):
    """Yield the noise of blocks, _CHUNK steps at a time: (normals, expo),
    each of shape (len(blocks), n, _LANES) with n <= _CHUNK, valid until
    the next chunk is asked for. Meanwhile the batch's one executor thread
    and then the caller take the next chunk's fill calls from one queue
    (_fill_noise); each runs once, so the draws do not depend on which
    thread makes them. Leaving the executor, on close too, joins its
    thread, so no thread outlives the generator."""
    # Imported only when used: concurrent.futures loads logging, which
    # importing psslab does not.
    from concurrent.futures import ThreadPoolExecutor

    streams = [_block_streams(seed, b) for b in blocks]
    shape = (len(streams), _CHUNK, _LANES)
    bufs = [(np.empty(shape), np.empty(shape)) for _ in range(2)]
    sizes = [min(_CHUNK, n_steps - c0) for c0 in range(0, n_steps, _CHUNK)]
    draws = [g.standard_normal for g, _ in streams] + [g.standard_exponential for _, g in streams]
    slabs = [[*normals, *expo] for normals, expo in bufs]
    queues = (deque(zip(draws, (s[:n] for s in slabs[c % 2]))) for c, n in enumerate(sizes))
    calls, filled = next(queues), None
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="wcp-noise") as helper:
        for c, n in enumerate(sizes):
            _fill_noise(calls)
            if filled is not None:
                filled.result()
            if c + 1 < len(sizes):
                calls = next(queues)
                filled = helper.submit(_fill_noise, calls)
            normals, expo = bufs[c % 2]
            yield normals[:, :n], expo[:, :n]


def _bridge_level(dpsi, spread, expo, psi, out, tmp):
    """Write to out the reflection level of a step from psi by dpsi,
    (sqrt(dpsi^2 + 2 s^2 dt E) - dpsi) / 2 - psi with spread =
    2 s^2 dt and E ~ Exp(1) in expo: minus the closed-form minimum of the
    Brownian bridge between the step's endpoints, exact in law for
    coefficients frozen over the step. tmp is scratch of out's shape."""
    np.multiply(dpsi, dpsi, out=out)
    np.multiply(spread, expo, out=tmp)
    out += tmp
    np.sqrt(out, out=out)
    out -= dpsi
    out *= 0.5
    np.subtract(out, psi, out=out)


def _steps(policy, coefficients, z0, step, n_steps, seed, blocks):
    """Advance the paths of blocks together from z0, one Euler step at a time.

    Yields (z, eta), the reflected state and the local time after each
    step, of shape (len(blocks), _LANES) with lane l of row r holding path
    blocks[r] * _LANES + l; the arrays are overwritten by the next step.
    Step k of a chunk reads row k of every block's noise slab. Each step
    looks up its per-lane coefficients by the interval of z, found by
    comparisons against the thresholds (_interval_lookup).
    """
    table = _step_table(policy, coefficients, step)
    shape = (len(blocks), _LANES)
    psi = np.full(shape, float(z0))
    eta = np.zeros(shape)
    z = psi.copy()
    dpsi, tmp, tmp2 = np.empty(shape), np.empty(shape), np.empty(shape)
    interval_of = _interval_lookup(policy.thresholds, shape)
    coef = np.empty((3, *shape))
    coef[...] = table[:, :1, None]
    bk, sk, gk = coef
    noise = _noise(seed, blocks, n_steps)
    try:
        for normals, expo in noise:
            for k in range(normals.shape[1]):
                if interval_of is not None:
                    table.take(interval_of(z), axis=1, out=coef, mode="clip")
                np.multiply(sk, normals[:, k], out=dpsi)
                dpsi += bk
                _bridge_level(dpsi, gk, expo[:, k], psi, tmp, tmp2)
                psi += dpsi
                np.maximum(eta, tmp, out=eta)
                np.add(psi, eta, out=z)
                yield z, eta
    finally:
        noise.close()


def simulate_wcp(
    policy: ModePolicy,
    coefficients: Coefficients,
    z0: float,
    step: float,
    horizon: float,
    seed: int,
    path_id: int = 0,
) -> SamplePath1D:
    """Generate one path of the controlled reflected diffusion: lane
    path_id of the batch that estimate_wcp_cost runs, bit for bit.

    Steps k.. of a chunk are evaluated at once with the coefficients of
    the interval z[k] lies in: the increments by the kernel's formulas,
    psi as their running sum from psi[k], and the local time as the
    running maximum from eta[k] of each step's reflection level. Both
    accumulations fold left, as the kernel's steps do. Values are right
    up to the first later step whose z lies in another interval, and the
    evaluation restarts there.
    """
    n_steps = _check_run(z0, step, horizon, path_id)
    block, lane = divmod(path_id, _LANES)
    drift, scale, spread = _step_table(policy, coefficients, step)
    thresholds = np.asarray(policy.thresholds, dtype=float)
    psi = np.empty(n_steps + 1)
    local = np.empty(n_steps + 1)
    values = np.empty(n_steps + 1)
    psi[0] = values[0] = z0
    local[0] = 0.0
    end = 0
    for normals, expo in _noise(seed, range(block, block + 1), n_steps):
        k0, end = end, end + normals.shape[1]
        k = k0
        while k < end:
            i = thresholds.searchsorted(values[k], side="right")
            new = slice(k + 1, end + 1)
            dpsi = normals[0, k - k0 :, lane] * scale[i]
            dpsi += drift[i]
            psi[new] = dpsi
            np.add.accumulate(psi[k : end + 1], out=psi[k : end + 1])
            _bridge_level(dpsi, spread[i], expo[0, k - k0 :, lane], psi[k:end], local[new],
                          np.empty_like(dpsi))
            np.maximum.accumulate(local[k : end + 1], out=local[k : end + 1])
            np.add(psi[new], local[new], out=values[new])
            moved = np.flatnonzero(thresholds.searchsorted(values[k + 1 : end], side="right") != i)
            k = k + 1 + moved[0] if moved.size else end
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
) -> McEstimate:
    """Monte Carlo mean of the discounted area under the controlled path.

    Per-path costs are the trapezoid rule on the simulation grid with
    weights exp(-gamma t); the 95% half width is the normal interval over
    paths. Paths run _BATCH at a time; costs depend only on (seed,
    path_id), never on that layout.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    if horizon is None:
        horizon = default_horizon(gamma)
    n_steps = _check_run(z0, step, horizon)
    costs = _path_costs(policy, coefficients, gamma, z0, step, n_steps, n_paths, seed)
    horizon = n_steps * step
    return McEstimate.from_costs(
        costs, step, horizon, discounted_tail_bound(coefficients, gamma, z0, horizon)
    )


def _weights(gamma, step, n_steps):
    """Yield the trapezoid weights exp(-gamma t_k) of steps k = 1 ..
    n_steps, the last one halved, computed _CHUNK steps at a time."""
    for k0 in range(0, n_steps, _CHUNK):
        k1 = min(k0 + _CHUNK, n_steps)
        w = np.exp(-gamma * step * np.arange(k0 + 1, k1 + 1))
        if k1 == n_steps:
            w[-1] *= 0.5
        yield from w.tolist()


def _path_costs(policy, coefficients, gamma, z0, step, n_steps, n_paths, seed):
    """Discounted cost of paths 0 .. n_paths - 1, whole blocks of _LANES
    paths at a time (lanes past n_paths are run and dropped)."""
    costs = np.empty(n_paths)
    per_batch = _BATCH // _LANES
    n_blocks = -(-n_paths // _LANES)
    for b0 in range(0, n_blocks, per_batch):
        blocks = range(b0, min(b0 + per_batch, n_blocks))
        # The weight of t_0 = 0 is exp(0) halved.
        acc = np.full((len(blocks), _LANES), 0.5 * float(z0))
        wz = np.empty_like(acc)
        lanes = _steps(policy, coefficients, z0, step, n_steps, seed, blocks)
        for (z, _), w in zip(lanes, _weights(gamma, step, n_steps)):
            np.multiply(z, w, out=wz)
            acc += wz
        part = costs[b0 * _LANES : blocks.stop * _LANES]
        np.multiply(acc.ravel()[: len(part)], step, out=part)
    return costs
