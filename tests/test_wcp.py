"""Reflected diffusion simulation: reflection map, paths, estimates."""

import collections
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psslab import wcp
from psslab.hjb import ModePolicy
from psslab.wcp import (
    SamplePath1D,
    _block_streams,
    discounted_tail_bound,
    estimate_wcp_cost,
    simulate_wcp,
    skorokhod_map,
)


def test_reflection_map_worked_example():
    psi = np.array([0.0, 1.0, -1.0, 0.5, -2.0])
    phi, eta = skorokhod_map(psi)
    assert phi.tolist() == [0.0, 1.0, 0.0, 1.5, 0.0]
    assert eta.tolist() == [0.0, 0.0, 1.0, 1.0, 2.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_reflection_map_minimality(values):
    psi = np.array(values)
    phi, eta = skorokhod_map(psi)
    # The least nondecreasing eta >= 0 that keeps psi + eta >= 0.
    assert np.array_equal(eta, np.maximum.accumulate(np.maximum(-psi, 0.0)))
    assert np.all(phi >= 0.0)
    # The pushing process moves only while the path sits at zero.
    grows = np.flatnonzero(np.diff(eta, prepend=0.0) > 0.0)
    assert np.all(phi[grows] == 0.0)


def test_single_path_layout_and_policy_trace():
    pol = ModePolicy(thresholds=(0.5,), modes=(0, 1))
    coef = ((-0.05, 0.3), (-0.15, 0.45))
    path = simulate_wcp(pol, coef, 0.0, 1e-2, 1.0, seed=3)
    assert len(path.times) == 101
    assert len(path.values) == 101
    assert len(path.local_time) == 101
    assert len(path.mode_trace) == 100
    assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(1.0)
    assert np.all(path.values >= 0.0)
    assert path.local_time[0] == 0.0 and np.all(np.diff(path.local_time) >= 0.0)
    assert np.array_equal(path.mode_trace, pol.mode_of(path.values[:-1]))


def test_bridge_path_equals_python_loop():
    # Each step in plain Python floats: the Euler increment, the reflection
    # level at the bridge minimum, psi, and the local time as a running max.
    # The path spans several noise chunks; path 70 is lane 6 of block 1,
    # whose streams are drawn step-major.
    b, s2 = -0.2, 0.5
    step, n = 1e-2, 1100
    path = simulate_wcp(ModePolicy.constant(0), ((b, s2),), 1.0, step, n * step, seed=9, path_id=70)
    assert wcp._LANES == 64
    gen_n, gen_e = _block_streams(9, 1)
    normals = gen_n.standard_normal((n, 64))[:, 6].tolist()
    expo = gen_e.standard_exponential((n, 64))[:, 6].tolist()
    drift, scale, spread = b * step, math.sqrt(s2) * math.sqrt(step), 2.0 * s2 * step
    psi, eta = 1.0, 0.0
    values, local = [psi], [eta]
    for k in range(n):
        dpsi = scale * normals[k] + drift
        level = (math.sqrt(dpsi * dpsi + spread * expo[k]) - dpsi) * 0.5 - psi
        psi += dpsi
        eta = max(eta, level)
        values.append(psi + eta)
        local.append(eta)
    assert local[-1] > 0.0
    assert path.values.tolist() == values
    assert path.local_time.tolist() == local


def test_exponential_stream_is_the_jumped_normal_stream():
    for seed, block in ((0, 0), (9, 4), (21, 1562)):
        gen_n, gen_e = _block_streams(seed, block)
        bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,)))
        # The states hold short arrays, which repr prints in full.
        assert repr(gen_n.bit_generator.state) == repr(bits.state)
        assert repr(gen_e.bit_generator.state) == repr(bits.jumped().state)


def test_reflected_brownian_motion_mean():
    # Driftless unit-variance reflection from zero: E Z_1 = sqrt(2/pi).
    # Paths 0-399 of one batch of blocks are the paths simulate_wcp gives
    # for those ids.
    blocks = range(-(-400 // wcp._LANES))
    lanes = wcp._steps(ModePolicy.constant(0), ((0.0, 1.0),), 0.0, 1e-3, 1000, 5, blocks)
    for z, _ in lanes:
        pass
    vals = z.ravel()[:400].copy()
    for p in (7, 300):
        assert vals[p] == simulate_wcp(
            ModePolicy.constant(0), ((0.0, 1.0),), 0.0, 1e-3, 1.0, seed=5, path_id=p
        ).values[-1]
    target = math.sqrt(2.0 / math.pi)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - target) <= 3.0 * se


def test_paths_are_reproducible_and_distinct():
    pol = ModePolicy.constant(0)
    coef = ((0.0, 2.0),)
    a = simulate_wcp(pol, coef, 0.0, 1e-2, 0.5, seed=7, path_id=2)
    b = simulate_wcp(pol, coef, 0.0, 1e-2, 0.5, seed=7, path_id=2)
    c = simulate_wcp(pol, coef, 0.0, 1e-2, 0.5, seed=7, path_id=3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.local_time, b.local_time)
    assert not np.array_equal(a.values, c.values)


def test_cost_estimate_matches_closed_form_value():
    est = estimate_wcp_cost(
        ModePolicy.constant(0), ((0.0, 2.0),), gamma=1.0, n_paths=3000, seed=0
    )
    assert est.n_paths == 3000
    assert abs(est.mean - 1.0) <= max(1.5 * est.half_width_95, 0.02)
    assert est.truncation_bound <= 1e-3


def test_cost_estimate_independent_of_batch_layout(monkeypatch):
    # 300 paths are five blocks, the last one part used. 250 steps are
    # several chunks of 37 or two of 128, each with a short last one, or
    # one short chunk of 256, the old default. Batches of one, two or five
    # blocks.
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    kw = dict(gamma=1.0, step=1e-2, horizon=2.5, n_paths=300, seed=12)
    ref = estimate_wcp_cost(pol, coef, **kw)
    for chunk in (37, 256, wcp._CHUNK):
        monkeypatch.setattr(wcp, "_CHUNK", chunk)
        for blocks in (1, 2, 5):
            monkeypatch.setattr(wcp, "_BATCH", blocks * wcp._LANES)
            est = estimate_wcp_cost(pol, coef, **kw)
            assert est.mean == ref.mean
            assert est.half_width_95 == ref.half_width_95


def test_path_costs_independent_of_path_count():
    # The 300-path run uses only part of its last block; the 384-path run
    # fills it and adds a block.
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    args = (pol, coef, 1.0, 0.4, 1e-2, 250)
    short = wcp._path_costs(*args, 300, 12)
    long = wcp._path_costs(*args, 384, 12)
    assert len(short) == 300 and len(long) == 384
    assert np.array_equal(short, long[:300])


def test_recorded_path_is_the_estimates_lane():
    # A switching policy and path 133: lane 5 of block 2.
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    gamma, z0, step, horizon = 0.7, 0.2, 1e-2, 6.0
    n_steps = int(round(horizon / step))
    assert n_steps > 2 * wcp._CHUNK
    ids = (0, 1, 2 * wcp._LANES + 5)
    weights = np.exp(-gamma * step * np.arange(n_steps + 1))
    weights[[0, -1]] *= 0.5
    kernel = np.empty((n_steps + 1, len(ids)))
    kernel[0] = z0
    lanes = wcp._steps(pol, coef, z0, step, n_steps, 4, range(3))
    for k, (z, _) in enumerate(lanes, 1):
        kernel[k] = z.ravel()[list(ids)]
    paths = [simulate_wcp(pol, coef, z0, step, horizon, 4, p) for p in ids]
    for path, lane in zip(paths, kernel.T):
        assert np.array_equal(path.values, lane)
        assert set(path.mode_trace) == {0, 1}
    est = estimate_wcp_cost(pol, coef, gamma, z0, step, horizon, 2, 4)
    costs = [step * weights @ path.values for path in paths[:2]]
    assert np.mean(costs) == pytest.approx(est.mean, rel=1e-13, abs=0.0)


def _noise_threads():
    return [t for t in threading.enumerate() if t.name.startswith("wcp-noise")]


def test_no_noise_thread_outlives_a_run():
    pol = ModePolicy.constant(0)
    coef = ((0.0, 1.0),)
    estimate_wcp_cost(pol, coef, gamma=1.0, step=1e-2, horizon=8.0, n_paths=100, seed=1)
    assert _noise_threads() == []
    # Stopped one step past a chunk boundary, with the next chunk in flight.
    lanes = wcp._steps(pol, coef, 0.0, 1e-2, 3 * wcp._CHUNK, 1, range(2))
    for _ in range(wcp._CHUNK + 1):
        next(lanes)
    lanes.close()
    assert _noise_threads() == []


# The double-buffered noise slab of one block at a 128-step chunk: 2
# buffers x 2 streams x 128 steps x 64 lanes x 8 bytes = 0.26 MB.
BLOCK_SLAB = 2 * 2 * 128 * 64 * 8


def _traced_peak(n_paths, step, horizon):
    """Traced peak bytes of a switching-policy estimate of n_paths paths."""
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    # The first run imports concurrent.futures, which the peak should not count.
    estimate_wcp_cost(pol, coef, gamma=1.0, step=1e-2, horizon=1.0, n_paths=2, seed=0)
    tracemalloc.start()
    try:
        estimate_wcp_cost(pol, coef, gamma=1.0, step=step, horizon=horizon, n_paths=n_paths,
                          seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_is_one_noise_slab_of_its_batch():
    # A full batch of 2048 paths over 800 steps, at least three chunks.
    # Its slab is 32 blocks' worth, 8.4 MB; the peak read 8.70 MB.
    assert 800 >= 3 * wcp._CHUNK
    assert _traced_peak(wcp._BATCH, 1e-2, 8.0) <= 1.25 * 32 * BLOCK_SLAB


def test_estimate_memory_does_not_grow_with_the_horizon():
    # One block over 30,000 steps. Its slab is 0.26 MB, and the peak read
    # 0.29 MB; weights held for every step would take about 1.2 MB.
    assert _traced_peak(wcp._LANES, 1e-3, 30.0) <= 1.5 * BLOCK_SLAB


def _thread_of_fill():
    return "helper" if threading.current_thread().name.startswith("wcp-noise") else "caller"


def _one_filler(monkeypatch, filler):
    """Patch _fill_noise so that, after the first chunk, which the caller
    fills before any helper starts, only filler ("helper" or "caller")
    makes fill calls. Returns the count of calls each made, "first" for the
    first chunk's; clear it between runs."""
    fill = wcp._fill_noise
    made = collections.Counter()

    def one_sided_fill(calls):
        thread = _thread_of_fill()
        if thread == "caller" and not made["first"]:
            thread = "first"
        if thread in (filler, "first"):
            made[thread] += len(calls)
            fill(calls)

    monkeypatch.setattr(wcp, "_fill_noise", one_sided_fill)
    return made


@pytest.mark.parametrize("chunk", [37, 256])
@pytest.mark.parametrize("filler", ["helper", "caller"])
def test_noise_does_not_depend_on_which_thread_draws_it(monkeypatch, filler, chunk):
    # 150 paths are three blocks, the last one part used; 600 steps are
    # 17 chunks of 37, or two of 256 and a short one. Path 133 is lane 5
    # of block 2.
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    monkeypatch.setattr(wcp, "_CHUNK", chunk)
    later_chunks = -(-600 // chunk) - 1

    def runs():
        yield estimate_wcp_cost(pol, coef, 0.7, 0.2, 1e-2, 6.0, 150, 3), 3
        yield simulate_wcp(pol, coef, 0.2, 1e-2, 6.0, 3, 133).values.tobytes(), 1

    ordinary = [out for out, _ in runs()]
    made = _one_filler(monkeypatch, filler)
    for (out, blocks), ref in zip(runs(), ordinary):
        assert out == ref
        # Every later chunk's call, one per block and stream, went to filler.
        assert made == {"first": 2 * blocks, filler: 2 * blocks * later_chunks}
        made.clear()


def _run_with_failing_fill(monkeypatch, thread, nth):
    """Run an estimate whose nth fill call on thread raises, and check that
    the error reaches the caller and no helper thread is left."""
    fill = wcp._fill_noise
    made = collections.Counter()

    def failing_fill(calls):
        name = _thread_of_fill()
        made[name] += 1
        if (name, made[name]) == (thread, nth):
            raise RuntimeError("fill failed")
        fill(calls)

    monkeypatch.setattr(wcp, "_fill_noise", failing_fill)
    errors = []

    def run():
        try:
            estimate_wcp_cost(ModePolicy.constant(0), ((0.0, 1.0),), 1.0, step=1e-2, horizon=8.0)
        except RuntimeError as exc:
            errors.append(exc)

    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive()
    assert [str(e) for e in errors] == ["fill failed"]
    assert _noise_threads() == []


def test_failed_noise_fill_reaches_the_caller(monkeypatch):
    # The helper's first call, on the second chunk.
    _run_with_failing_fill(monkeypatch, "helper", 1)


def test_failed_caller_fill_reaches_the_caller(monkeypatch):
    # The caller's first call fills the first chunk before any helper
    # starts; its second, on the second chunk, runs while the helper does.
    _run_with_failing_fill(monkeypatch, "caller", 2)


# Bridge-scheme pins, recorded when the streams became one per block of
# _LANES paths: repr of the estimate's mean and half width, and the sha256
# of one recorded path. 1300 steps are five full noise chunks and a short
# one; 300 paths are five blocks, the last one part used.
BRIDGE_PINS = {
    "threshold:2": (
        "1.0958901666336918",
        "0.059753759535614695",
        "0edd9e8b60dd321b7f0f630f3f0298c70137d0deb6e9a285d4539f455e260db6",
    ),
    "static:1": (
        "1.137233803400639",
        "0.062806725284365",
        "599ce48f88c8b693ec6aff0fc145020096a00d4283d33185db76e935b144d4f9",
    ),
}


@pytest.mark.parametrize("label", sorted(BRIDGE_PINS))
def test_bridge_scheme_pinned(label):
    pol = {
        "threshold:2": ModePolicy(thresholds=(0.2, 0.5), modes=(1, 0, 1)),
        "static:1": ModePolicy.constant(1),
    }[label]
    coef = ((-0.05, 0.3), (-0.15, 0.45))
    est = estimate_wcp_cost(
        pol, coef, gamma=0.5, z0=0.25, step=1e-2, horizon=13.0, n_paths=300, seed=21
    )
    path = simulate_wcp(pol, coef, 0.25, 1e-2, 13.0, seed=21, path_id=5)
    sha = hashlib.sha256()
    for arr in (path.times, path.values, path.local_time, path.mode_trace):
        sha.update(arr.tobytes())
    assert (repr(est.mean), repr(est.half_width_95), sha.hexdigest()) == BRIDGE_PINS[label]
    if label == "threshold:2":
        # The path visits all three intervals.
        assert set(np.searchsorted(pol.thresholds, path.values, side="right")) == {0, 1, 2}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 4.0), max_size=3, unique=True).map(sorted),
    st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40),
    st.data(),
)
def test_interval_lookup_matches_searchsorted(thresholds, values, data):
    # Some z sit exactly on a threshold: a tie counts as above it.
    z = np.array(values + [data.draw(st.sampled_from(thresholds)) for _ in thresholds])
    lookup = wcp._interval_lookup(tuple(thresholds), len(z))
    if not thresholds:
        assert lookup is None
        return
    idx = lookup(z)
    assert np.array_equal(idx, np.searchsorted(np.asarray(thresholds), z, side="right"))
    pol = ModePolicy(thresholds=tuple(thresholds), modes=tuple(range(len(thresholds) + 1)))
    assert np.array_equal(np.asarray(pol.modes)[idx], pol.mode_of(z))
    # A second call overwrites the first result.
    zeros = np.zeros(len(z))
    assert np.array_equal(lookup(zeros), np.searchsorted(thresholds, zeros, side="right"))


def test_interval_lookup_counts_past_a_byte():
    # 300 thresholds: the count no longer fits in a uint8 index.
    thresholds = np.linspace(0.0, 3.0, 300)
    z = np.concatenate([thresholds, [-1.0, 1.5, 4.0]])
    idx = wcp._interval_lookup(tuple(thresholds), len(z))(z)
    assert np.array_equal(idx, np.searchsorted(thresholds, z, side="right"))
    assert idx.max() == 300


def test_tail_bound_decreases_with_horizon():
    coef = ((-0.1, 0.4), (0.2, 1.0))
    bounds = [discounted_tail_bound(coef, 1.0, 0.5, t) for t in (5.0, 10.0, 20.0)]
    assert bounds[0] > bounds[1] > bounds[2] > 0.0


def test_input_validation():
    pol = ModePolicy.constant(0)
    coef = ((0.0, 1.0),)
    with pytest.raises(ValueError):
        simulate_wcp(pol, coef, -1.0, 1e-2, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_wcp(pol, coef, 0.0, 0.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_wcp(pol, coef, 0.0, 1e-2, 1e-3, seed=0)
    with pytest.raises(ValueError):
        estimate_wcp_cost(pol, coef, gamma=1.0, n_paths=1)
    # nan and inf pass a plain gamma <= 0 test and make the estimate nan.
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            estimate_wcp_cost(pol, coef, gamma=gamma, horizon=1.0, n_paths=4)


STEP_ERROR = "need 0 < step <= horizon"
COUNT_ERROR = r"need horizon / step <= 2\*\*53 steps"
Z0_ERROR = "z0 must be finite and nonnegative"
MODE_ERROR = r"mode -?\d+ is not in 0\.\.0"


@pytest.mark.parametrize(
    "step, horizon, z0, path_id, mode, match",
    [
        pytest.param(0.0, 1.0, 0.0, 0, 0, STEP_ERROR, id="0.0-1.0"),
        pytest.param(-1.0, 1.0, 0.0, 0, 0, STEP_ERROR, id="-1.0-1.0"),
        pytest.param(math.nan, 1.0, 0.0, 0, 0, STEP_ERROR, id="nan-1.0"),
        pytest.param(1e-2, 1e-3, 0.0, 0, 0, STEP_ERROR, id="0.01-0.001"),
        pytest.param(1e-2, math.inf, 0.0, 0, 0, STEP_ERROR, id="0.01-inf"),
        # More steps than a float counts exactly: refused before any array
        # of the run is made.
        pytest.param(1e-300, 1.0, 0.0, 0, 0, COUNT_ERROR, id="1e-300-1.0"),
        pytest.param(0.5, 1e300, 0.0, 0, 0, COUNT_ERROR, id="0.5-1e300"),
        pytest.param(1.0, 2.0**53 + 2.0, 0.0, 0, 0, COUNT_ERROR, id="1.0-2**53+2"),
        pytest.param(1e-2, 1.0, -1.0, 0, 0, Z0_ERROR, id="z0=-1"),
        pytest.param(1e-2, 1.0, math.nan, 0, 0, Z0_ERROR, id="z0=nan"),
        pytest.param(1e-2, 1.0, math.inf, 0, 0, Z0_ERROR, id="z0=inf"),
        pytest.param(1e-2, 1.0, 0.0, -1, 0, "path_id must be nonnegative", id="path_id=-1"),
        pytest.param(1e-2, 1.0, 0.0, 0, -1, MODE_ERROR, id="mode=-1"),
        pytest.param(1e-2, 1.0, 0.0, 0, 1, MODE_ERROR, id="mode=1"),
    ],
)
def test_step_and_horizon_checked_by_both_entry_points(step, horizon, z0, path_id, mode, match):
    # estimate_wcp_cost takes no path id: it runs paths 0 onwards. A policy
    # mode must index the single mode of coef.
    pol = ModePolicy.constant(mode)
    coef = ((0.0, 1.0),)
    if path_id == 0:
        with pytest.raises(ValueError, match=match):
            estimate_wcp_cost(pol, coef, gamma=1.0, z0=z0, step=step, horizon=horizon, n_paths=2)
    with pytest.raises(ValueError, match=match):
        simulate_wcp(pol, coef, z0, step, horizon, seed=0, path_id=path_id)


def test_path_container_rejects_bad_series():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        SamplePath1D(
            times=t,
            values=np.array([0.0, -1.0]),
            local_time=np.array([0.0, 0.0]),
            mode_trace=np.array([0]),
        )
    with pytest.raises(ValueError):
        SamplePath1D(
            times=t,
            values=np.array([0.0, 1.0]),
            local_time=np.array([0.5, 0.0]),
            mode_trace=np.array([0]),
        )
