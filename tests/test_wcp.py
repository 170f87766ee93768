"""Reflected diffusion simulation: reflection map, schemes, estimates."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psslab import wcp
from psslab.hjb import ModePolicy
from psslab.wcp import (
    SamplePath1D,
    _path_streams,
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


def test_plain_scheme_equals_reflected_free_path():
    # With the bridge correction off, the discrete path is exactly the
    # reflection map applied to the discrete free path.
    # The path spans several noise chunks.
    b, s2 = -0.2, 0.5
    step, n = 1e-2, 1100
    path = simulate_wcp(
        ModePolicy.constant(0), ((b, s2),), 1.0, step, n * step, seed=9, path_id=4, bridge=False
    )
    gen, no_bridge = _path_streams(9, 4, bridge=False)
    assert no_bridge is None
    normals = gen.standard_normal(n)
    psi = np.empty(n + 1)
    psi[0] = 1.0
    for k in range(n):
        psi[k + 1] = psi[k] + (b * step + math.sqrt(s2) * math.sqrt(step) * normals[k])
    phi, eta = skorokhod_map(psi)
    assert np.array_equal(path.values, phi)
    assert np.array_equal(path.local_time, eta)


def test_exponential_stream_is_the_jumped_normal_stream():
    for seed, path_id in ((0, 0), (9, 4), (21, 2047)):
        gen_n, gen_e = _path_streams(seed, path_id, bridge=True)
        bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(path_id,)))
        # The states hold short arrays, which repr prints in full.
        assert repr(gen_n.bit_generator.state) == repr(bits.state)
        assert repr(gen_e.bit_generator.state) == repr(bits.jumped().state)


def test_reflected_brownian_motion_mean():
    # Driftless unit-variance reflection from zero: E Z_1 = sqrt(2/pi).
    # Lanes 0-399 of one batch are the paths simulate_wcp gives for those ids.
    lanes = wcp._steps(ModePolicy.constant(0), ((0.0, 1.0),), 0.0, 1e-3, 1000, 5, range(400), True)
    for z, _ in lanes:
        pass
    vals = z.copy()
    assert vals[7] == simulate_wcp(
        ModePolicy.constant(0), ((0.0, 1.0),), 0.0, 1e-3, 1.0, seed=5, path_id=7
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
    # 250 steps: several chunks of 37 with a short last one, or one short
    # chunk; lanes copied in blocks of 5, or of 128 with a short last block.
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    kw = dict(gamma=1.0, step=1e-2, horizon=2.5, n_paths=300, seed=12)
    monkeypatch.setattr(wcp, "_BATCH", 300)
    ref = estimate_wcp_cost(pol, coef, **kw)
    for chunk, block in ((37, 5), (wcp._CHUNK, wcp._BLOCK)):
        monkeypatch.setattr(wcp, "_CHUNK", chunk)
        monkeypatch.setattr(wcp, "_BLOCK", block)
        for batch in (1, 7, 300):
            monkeypatch.setattr(wcp, "_BATCH", batch)
            est = estimate_wcp_cost(pol, coef, **kw)
            assert est.mean == ref.mean
            assert est.half_width_95 == ref.half_width_95


def test_recorded_path_is_the_estimates_lane():
    pol = ModePolicy(thresholds=(0.3,), modes=(1, 0))
    coef = ((-0.1, 0.8), (0.1, 0.5))
    gamma, z0, step, horizon = 0.7, 0.2, 1e-2, 6.0
    est = estimate_wcp_cost(pol, coef, gamma, z0, step, horizon, n_paths=2, seed=4)
    n_steps = int(round(horizon / step))
    assert n_steps > wcp._CHUNK
    weights = np.exp(-gamma * step * np.arange(n_steps + 1))
    weights[[0, -1]] *= 0.5
    costs = [
        step * weights @ simulate_wcp(pol, coef, z0, step, horizon, seed=4, path_id=p).values
        for p in (0, 1)
    ]
    assert np.mean(costs) == pytest.approx(est.mean, rel=1e-13, abs=0.0)


# sha256 of times, values, local_time and mode_trace of plain-scheme paths,
# recorded before the chunked kernel: the normal streams are unchanged.
PLAIN_PATH_SHA256 = {
    (3, "threshold"): "cfa656c048c844164c30ea770da74e6f77f2ae347301e29e00a4043248a7d22b",
    (3, "static:1"): "32ac18e731683a4afc03f9957ab82e4cbdb483c44ffb6a534a1ebb6071abf146",
    (17, "threshold"): "5c819776d322b050854a82673f41000ae55102c18ca82bdd026392c310f5534e",
    (17, "static:1"): "5c6df89bbb320994a647998054ac69905a21f89454c58e792f64c0c2ad6b11a5",
}


@pytest.mark.parametrize("seed, label", sorted(PLAIN_PATH_SHA256))
def test_plain_scheme_paths_pinned(seed, label):
    pol = {
        "threshold": ModePolicy(thresholds=(0.5,), modes=(0, 1)),
        "static:1": ModePolicy.constant(1),
    }[label]
    coef = ((-0.05, 0.3), (-0.15, 0.45))
    path = simulate_wcp(pol, coef, 0.25, 1e-2, 13.0, seed=seed, path_id=5, bridge=False)
    sha = hashlib.sha256()
    for arr in (path.times, path.values, path.local_time, path.mode_trace):
        sha.update(arr.tobytes())
    assert sha.hexdigest() == PLAIN_PATH_SHA256[seed, label]


# Bridge-scheme pins, recorded before the step-major kernel: repr of the
# estimate's mean and half width, and the sha256 of one recorded path.
# 1300 steps are two full noise chunks and a short one; 300 paths span three
# transposed-copy blocks.
BRIDGE_PINS = {
    "threshold:2": (
        "1.0509545770254551",
        "0.05934401044906681",
        "2746ac427648f3b770db26f5a59766bd71e1d6ae141a1f3b6fc7a9758b9d55b8",
    ),
    "static:1": (
        "1.0898400631264444",
        "0.062225706431381526",
        "ccb47ffd110e6aea758ffa65f463cccc32a13cf9215b28d3a67d313fab9b5e24",
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
    with pytest.raises(ValueError):
        estimate_wcp_cost(pol, coef, gamma=0.0)


@pytest.mark.parametrize(
    "step, horizon",
    [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1e-2, 1e-3), (1e-2, math.inf)],
)
def test_step_and_horizon_checked_by_both_entry_points(step, horizon):
    pol = ModePolicy.constant(0)
    coef = ((0.0, 1.0),)
    with pytest.raises(ValueError, match="need 0 < step <= horizon"):
        estimate_wcp_cost(pol, coef, gamma=1.0, step=step, horizon=horizon, n_paths=2)
    with pytest.raises(ValueError, match="need 0 < step <= horizon"):
        simulate_wcp(pol, coef, 0.0, step, horizon, seed=0)


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
