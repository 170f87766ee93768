"""Prelimit queueing simulation: traces, scaling, pathwise relations."""

import hashlib
import math
import pathlib
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psslab as ps
from psslab import qcp
from psslab.hjb import ModePolicy
from psslab.qcp import (
    _Context,
    MinimumNError,
    PolicySpec,
    _simulate,
    allocate,
    check_trace_inequalities,
    compute_scaled,
    effective_rates,
    estimate_qcp_cost,
    identity_residual_exact,
    renewal_stream,
    run_qcp,
    verify_lower_bound,
)
from psslab.wcp import default_horizon


def test_effective_rates_scaling(get_instance):
    inst = get_instance("example_a2")
    lam_n, mu_n = effective_rates(inst, 100)
    assert lam_n == [100 * 5.0, 100 * 4.0]
    # hat_mu = 1 on the first activity enters at sqrt(n).
    assert mu_n[0] == pytest.approx(100 * 3.0 + 10.0)
    assert mu_n[1:] == [400.0, 600.0, 800.0]


def _min_n10_instance():
    """One class on one server whose smallest admissible n is 10."""
    doc = {
        "classes": [{"lambda": 1, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0}],
        "servers": 1,
        "activities": [{"i": 1, "k": 1, "mu": 1, "hat_mu": -3.0, "c2_s": 1.0}],
        "gamma": 1.0,
    }
    import json

    return ps.load_instance(json.dumps(doc))


def test_minimum_n_reported():
    inst = _min_n10_instance()
    with pytest.raises(MinimumNError) as exc:
        effective_rates(inst, 4)
    assert exc.value.min_n == 10
    lam_n, mu_n = effective_rates(inst, 10)
    assert mu_n[0] > 0.0


def test_verify_bound_checks_every_run_before_simulating(monkeypatch):
    inst = _min_n10_instance()
    an = ps.analyze(inst)
    sol = ps.solve_hjb(an.coefficients, inst.gamma, ps.HjbConfig(grid_n=100))
    simulated = []
    monkeypatch.setattr(qcp, "_rep_cost", simulated.append)
    static = (PolicySpec.static_mode(0),)
    bad = [
        ((100, 4), static, 1.0, MinimumNError, "smallest admissible n is 10"),
        ((100, 0), static, 1.0, ValueError, "n must be a positive"),
        ((100,), static, math.inf, ValueError, "horizon"),
        ((100,), static + (PolicySpec.static_mode(5),), 1.0, ValueError, "mode 5"),
    ]
    for n_list, policies, horizon, error, match in bad:
        with pytest.raises(error, match=match):
            verify_lower_bound(inst, an, sol, n_list, policies, n_reps=8, horizon=horizon)
    assert simulated == []


def philox(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def test_renewal_sources():
    key = (0, (0, 0, 0))
    det = renewal_stream(0.0, 4.0, philox(key))
    assert [next(det) for _ in range(3)] == [0.25, 0.25, 0.25]
    gam = renewal_stream(0.5, 2.0, philox(key))
    draws = np.array([next(gam) for _ in range(4000)])
    assert np.all(draws > 0.0)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.03)
    assert np.var(draws) == pytest.approx(0.5 * 0.25, rel=0.2)
    with pytest.raises(ValueError, match="scv"):
        renewal_stream(-0.5, 2.0, philox(key))
    for rate in (0.0, -1.0):
        with pytest.raises(ValueError, match="rate"):
            renewal_stream(0.5, rate, philox(key))


def test_renewal_stream_across_buffer_refill():
    scv = 0.5
    key = (9, 1, 4)
    src = renewal_stream(scv, 3.0, philox(key))
    draws = [next(src) for _ in range(1100)]
    assert all(type(v) is float for v in draws)
    rng = philox(key)
    blocks = [rng.gamma(1.0 / scv, scv / 3.0, 512) for _ in range(3)]
    assert draws == np.concatenate(blocks)[:1100].tolist()
    det = renewal_stream(0.0, 4.0, philox(key))
    assert type(next(det)) is float


ALL_PASS = ("example_a", "example_a1", "example_a2", "example_b", "example_c", "example_e", "mm1")


def _fresh_allocation(policy, x, w_hat, an):
    """The allocation at state (x, w_hat), built from scratch."""
    p = bisect_right(policy.selector.thresholds, w_hat)
    xi = [float(v) for v in an.modes[policy.selector.modes[p]].xi]
    return allocate(policy.rules[p], xi, list(x), an.instance)


@st.composite
def allocation_cases(draw, get_instance, get_analysis):
    name = draw(st.sampled_from(ALL_PASS))
    inst, an = get_instance(name), get_analysis(name)
    x = draw(st.lists(st.integers(0, 3), min_size=inst.num_classes, max_size=inst.num_classes))
    w_hat = draw(st.floats(0.0, 20.0))
    kind = draw(st.sampled_from(["static", "threshold", "priority", "switching orders"]))
    wc = draw(st.booleans())
    mode = st.integers(0, len(an.modes) - 1)
    if kind == "static":
        policy = PolicySpec.static_mode(draw(mode), work_conserving=wc)
    elif kind == "threshold":
        cuts = sorted(draw(st.sets(st.floats(0.0, 20.0), max_size=3)))
        modes = draw(st.lists(mode, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        policy = PolicySpec.workload_threshold(ModePolicy(tuple(cuts), tuple(modes)), wc)
    elif kind == "priority":
        orders = tuple(draw(st.permutations(acts)) for acts in inst.server_activities)
        policy = PolicySpec.server_priority(orders)
    else:
        # A different priority order on each interval of a switching selector.
        cuts = sorted(draw(st.sets(st.floats(0.0, 20.0), min_size=1, max_size=3)))
        rules = tuple(
            tuple(tuple(draw(st.permutations(acts))) for acts in inst.server_activities)
            for _ in range(len(cuts) + 1)
        )
        policy = PolicySpec(ModePolicy(tuple(cuts), (0,) * len(rules)), rules, "orders")
    return inst, an, x, w_hat, policy


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_allocation_admissible_and_cache_exact(get_instance, get_analysis, data):
    inst, an, x, w_hat, policy = data.draw(allocation_cases(get_instance, get_analysis))
    assert an.assumptions.all_pass
    alloc = _fresh_allocation(policy, x, w_hat, an)
    assert all(a >= 0.0 for a in alloc)
    for j, act in enumerate(inst.activities):
        if alloc[j] > 0.0:
            assert x[act.class_index - 1] >= 1
    for acts in inst.server_activities:
        assert sum(alloc[j] for j in acts) <= 1.0 + 1e-12
    # An orders rule gives each server's whole effort to its first
    # backlogged activity in the order of the interval in force.
    p = bisect_right(policy.selector.thresholds, w_hat)
    if isinstance(policy.rules[p], tuple):
        for order in policy.rules[p]:
            live = [j for j in order if x[inst.activities[j].class_index - 1] >= 1]
            assert [alloc[j] for j in order] == [float(j == live[0]) if live else 0.0 for j in order]
    # The kernel looks allocations up by (backlog mask, selector interval).
    # Fill the cache from the empty state and from another state with x's
    # key, then read it at x.
    ctx = _Context(an, policy)
    mask = sum(1 << i for i, v in enumerate(x) if v >= 1)
    ctx.allocation([0] * len(x), 0, p)
    ctx.allocation([min(v, 1) for v in x], mask, p)
    cached = ctx.allocation(x, mask, p)
    assert cached == alloc
    assert ctx.allocation([max(v, 2) if v else 0 for v in x], mask, p) is cached


@pytest.mark.parametrize("label", ["static:1:wc", "threshold", "priority", "orders"])
def test_recorded_allocations_match_fresh_fill(get_instance, get_analysis, label):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    if label == "orders":
        below = tuple(inst.server_activities)
        above = tuple(order[::-1] for order in below)
        policy = PolicySpec(ModePolicy((0.36,), (0, 0)), (below, above), label)
    else:
        policy = _pinned_policy(inst, an, label)
    # Seed 7 takes W-hat past 0.36 in 66 of 441 rows.
    trace = run_qcp(inst, an, 25, policy, horizon=1.0, seed=7)
    y = [float(v) for v in an.dual.y]
    intervals = set()
    for x, alloc in zip(trace.x.tolist(), trace.alloc.tolist()):
        w_hat = sum(yi * xi for yi, xi in zip(y, x)) * (1.0 / math.sqrt(25))
        assert tuple(alloc) == _fresh_allocation(policy, x, w_hat, an)
        intervals.add(bisect_right(policy.selector.thresholds, w_hat))
    assert intervals == ({0, 1} if policy.selector.thresholds else {0})


def test_work_conserving_reallocation(get_analysis):
    an = get_analysis("example_a")
    # Mode 1 is (1, 1/2, 0, 1/2); with class 1 empty the plain rule idles
    # most of both servers while the conserving one fills them via class 2.
    plain = _fresh_allocation(PolicySpec.static_mode(1), (0, 5), 0.0, an)
    assert plain == (0.0, 0.0, 0.0, 0.5)
    wc = _fresh_allocation(PolicySpec.static_mode(1, work_conserving=True), (0, 5), 0.0, an)
    assert wc == (0.0, 0.0, 1.0, 1.0)
    # Both classes backlogged: the mode passes through unchanged.
    assert _fresh_allocation(
        PolicySpec.static_mode(1, work_conserving=True), (3, 3), 0.0, an
    ) == (1.0, 0.5, 0.0, 0.5)
    # Nothing to serve: everything idles.
    assert _fresh_allocation(
        PolicySpec.static_mode(1, work_conserving=True), (0, 0), 0.0, an
    ) == (0.0, 0.0, 0.0, 0.0)


def test_priority_allocation(get_analysis):
    an = get_analysis("example_a")
    spec = PolicySpec.server_priority(((0, 2), (3, 1)))
    assert _fresh_allocation(spec, (2, 2), 0.0, an) == (1.0, 0.0, 0.0, 1.0)
    assert _fresh_allocation(spec, (0, 2), 0.0, an) == (0.0, 0.0, 1.0, 1.0)
    assert _fresh_allocation(spec, (0, 0), 0.0, an) == (0.0, 0.0, 0.0, 0.0)


def test_policy_validation(get_analysis):
    an = get_analysis("example_a")
    # Checked against the analysis: mode indices and per-server orders.
    with pytest.raises(ValueError):
        _Context(an, PolicySpec.static_mode(5))
    with pytest.raises(ValueError):
        _Context(an, PolicySpec.workload_threshold(ModePolicy.constant(9)))
    with pytest.raises(ValueError):
        _Context(an, PolicySpec.server_priority(((0, 1), (2, 3))))
    # Checked on construction: one known rule per selector interval.
    with pytest.raises(ValueError, match="one rule per selector interval"):
        PolicySpec(ModePolicy((1.0,), (0, 1)), ("xi",), "threshold")
    with pytest.raises(ValueError, match="unknown allocation rule"):
        PolicySpec(ModePolicy.constant(0), ("mystery",), "mystery")


def test_policy_labels():
    assert PolicySpec.static_mode(0).label == "static:0"
    assert PolicySpec.static_mode(2, work_conserving=True).label == "static:2:wc"
    assert PolicySpec.workload_threshold(ModePolicy.constant(0)).label == "threshold"
    assert PolicySpec.server_priority(((0,),)).label == "priority"


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
def test_run_arguments_checked(get_instance, get_analysis, horizon):
    inst, an = get_instance("mm1"), get_analysis("mm1")
    policy = PolicySpec.static_mode(0)
    with pytest.raises(ValueError, match="horizon"):
        run_qcp(inst, an, 25, policy, horizon=horizon)
    with pytest.raises(ValueError, match="horizon"):
        estimate_qcp_cost(inst, an, 25, policy, 2, horizon=horizon)
    with pytest.raises(ValueError, match="n must be"):
        estimate_qcp_cost(inst, an, 0, policy, 2, horizon=1.0)


def test_trace_conservation_and_admissibility(get_instance, get_analysis):
    inst = get_instance("example_a")
    an = get_analysis("example_a")
    trace = run_qcp(inst, an, n=49, policy=PolicySpec.static_mode(1), horizon=2.0, seed=3)
    assert trace.times[0] == 0.0 and trace.times[-1] == 2.0
    assert np.all(np.diff(trace.times) >= 0.0)
    assert np.all(trace.x[0] == 0)
    # Flow conservation per class at every event.
    for i, acts in enumerate(inst.class_activities):
        served = trace.departures[:, list(acts)].sum(axis=1)
        assert np.array_equal(trace.x[:, i], trace.arrivals[:, i] - served)
    # Allocations stay admissible and only serve backlogged classes.
    assert np.all(trace.alloc >= 0.0)
    for k, acts in enumerate(inst.server_activities):
        assert np.max(trace.alloc[:, list(acts)].sum(axis=1)) <= 1.0 + 1e-12
    for j, act in enumerate(inst.activities):
        on = trace.alloc[:, j] > 0.0
        assert np.all(trace.x[on, act.class_index - 1] >= 1)
    # Busyness accumulates at the recorded rates.
    gaps = np.diff(trace.times)[:, None]
    rebuilt = np.cumsum(trace.alloc[:-1] * gaps, axis=0)
    assert np.max(np.abs(trace.busy[1:] - rebuilt)) <= 1e-9


def test_fluid_utilization_tracks_mode(get_instance, get_analysis):
    inst = get_instance("example_a")
    an = get_analysis("example_a")
    trace = run_qcp(inst, an, n=400, policy=PolicySpec.static_mode(1), horizon=5.0, seed=1)
    xi = [float(v) for v in an.modes[1].xi]
    frac = trace.busy[-1] / trace.times[-1]
    assert np.max(np.abs(frac - np.array(xi))) <= 0.05


@pytest.mark.parametrize(
    "name,policy",
    [
        ("example_a1", PolicySpec.static_mode(0)),
        ("example_a1", PolicySpec.static_mode(1, work_conserving=True)),
        ("example_a2", None),
        ("example_e", PolicySpec.static_mode(1)),
        ("mm1", PolicySpec.server_priority(((0,),))),
    ],
)
def test_scaled_identity_and_pathwise_relations(get_instance, get_analysis, name, policy):
    inst = get_instance(name)
    an = get_analysis(name)
    if policy is None:
        policy = PolicySpec.workload_threshold(
            ModePolicy(thresholds=(0.36,), modes=(0, 1))
        )
    trace = run_qcp(inst, an, n=64, policy=policy, horizon=3.0, seed=2)
    series = compute_scaled(trace, 64, an)
    assert series.identity_residual <= 1e-6 * series.scale
    assert len(series.times) == 2 * len(trace.times) - 1
    # Scaled counts are integers over sqrt(n).
    back = series.x_hat * 8.0
    assert np.max(np.abs(back - np.round(back))) <= 1e-6
    checks = check_trace_inequalities(series, an)
    assert checks.max_relative_violation <= 1e-8
    assert np.all(np.diff(series.i_hat, axis=0) >= -1e-9)


def test_exact_identity_on_perfect_square(get_instance, get_analysis):
    inst = get_instance("example_a")
    an = get_analysis("example_a")
    trace = run_qcp(inst, an, n=25, policy=PolicySpec.static_mode(0), horizon=1.5, seed=11)
    assert identity_residual_exact(trace, 25, an) == F(0)


def test_zero_horizon_trace(get_instance, get_analysis):
    inst = get_instance("example_a")
    an = get_analysis("example_a")
    trace = run_qcp(inst, an, n=9, policy=PolicySpec.static_mode(0), horizon=0.0, seed=0)
    assert np.all(trace.x == 0)
    assert trace.times[-1] == 0.0
    series = compute_scaled(trace, 9, an)
    assert series.identity_residual == 0.0


def test_trace_reproducible_across_calls(get_instance, get_analysis):
    inst = get_instance("example_a")
    an = get_analysis("example_a")
    kw = dict(n=36, policy=PolicySpec.static_mode(1), horizon=1.0)
    t1 = run_qcp(inst, an, seed=5, rep=3, **kw)
    t2 = run_qcp(inst, an, seed=5, rep=3, **kw)
    t3 = run_qcp(inst, an, seed=5, rep=4, **kw)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.x, t2.x)
    assert not np.array_equal(t1.times, t3.times)


def test_cost_estimate_reuses_recorded_rep0(get_instance, get_analysis, monkeypatch):
    monkeypatch.delenv("PSS_THREADS", raising=False)
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    pol = _pinned_policy(inst, an, "threshold")
    trace = run_qcp(inst, an, 25, pol, horizon=3.0, seed=4, rep=0)
    assert (trace.cost, trace.h_horizon) == _simulate(inst, an, 25, pol, 3.0, 4, 0, False)[1:]
    ref = estimate_qcp_cost(inst, an, 25, pol, 5, horizon=3.0, seed=4)
    simulated = []
    rep_cost = qcp._rep_cost
    monkeypatch.setattr(qcp, "_rep_cost", lambda args: simulated.append(args[-1]) or rep_cost(args))
    assert estimate_qcp_cost(inst, an, 25, pol, 5, horizon=3.0, seed=4, rep0=trace) == ref
    assert simulated == [1, 2, 3, 4]
    # A trace of another run is refused: each argument that keys the
    # streams or the dynamics is checked, and the replication must be 0.
    other = [
        (run_qcp(inst, an, 25, pol, horizon=3.0, seed=4, rep=3), {}),
        (trace, dict(seed=5)),
        (trace, dict(horizon=2.0)),
        (trace, dict(n=36)),
        (trace, dict(policy=PolicySpec.static_mode(0))),
        (trace, dict(inst=replace(inst, gamma=inst.gamma * 2))),
    ]
    for rep0, change in other:
        kw = dict(inst=inst, n=25, policy=pol, horizon=3.0, seed=4) | change
        with pytest.raises(ValueError, match="rep0"):
            estimate_qcp_cost(analysis=an, n_reps=5, rep0=rep0, **kw)


def test_cost_estimate_reproducible_and_thread_invariant(get_instance, get_analysis, monkeypatch):
    monkeypatch.delenv("PSS_THREADS", raising=False)
    inst = get_instance("mm1")
    an = get_analysis("mm1")
    pol = PolicySpec.static_mode(0)
    a = estimate_qcp_cost(inst, an, n=25, policy=pol, n_reps=6, horizon=3.0, seed=4)
    b = estimate_qcp_cost(inst, an, n=25, policy=pol, n_reps=6, horizon=3.0, seed=4)
    assert a.mean == b.mean and a.half_width_95 == b.half_width_95
    monkeypatch.setenv("PSS_THREADS", "2")
    c = estimate_qcp_cost(inst, an, n=25, policy=pol, n_reps=6, horizon=3.0, seed=4)
    assert c.mean == a.mean and c.half_width_95 == a.half_width_95
    with pytest.raises(ValueError):
        estimate_qcp_cost(inst, an, n=25, policy=pol, n_reps=1, seed=4)

    # verify_lower_bound runs all its estimates over one pool.
    import concurrent.futures

    from psslab.hjb import solve_hjb

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    sol = solve_hjb(an.coefficients, inst.gamma)
    kw = dict(
        n_list=(25, 36),
        policies=(pol, PolicySpec.server_priority(((0,),))),
        n_reps=4,
        horizon=3.0,
        seed=4,
    )
    pooled = verify_lower_bound(inst, an, sol, **kw)
    assert len(pools) == 1
    monkeypatch.setenv("PSS_THREADS", "1")
    assert verify_lower_bound(inst, an, sol, **kw) == pooled
    assert len(pools) == 1


def test_scaled_series_require_assumptions(get_instance, get_analysis):
    # The prelimit system itself runs under any static mode, but scaled
    # series need the unique dual point.
    inst_d = get_instance("example_d")
    an_d = get_analysis("example_d")
    trace = run_qcp(inst_d, an_d, n=25, policy=PolicySpec.static_mode(0), horizon=0.5, seed=0)
    assert trace.times[-1] == 0.5
    with pytest.raises(ps.AssumptionError):
        compute_scaled(trace, 25, an_d)


@pytest.mark.parametrize(
    "check", [compute_scaled, identity_residual_exact], ids=["scaled", "exact"]
)
def test_trace_must_match_analysis(get_instance, get_analysis, check):
    # example_a1 and example_a2 are both 2x2 with 4 activities, so a2's trace
    # fits a1's arrays; only the instance comparison tells them apart.
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    trace = run_qcp(inst, an, n=25, policy=PolicySpec.static_mode(0), horizon=0.5, seed=3)
    with pytest.raises(ValueError, match="another instance"):
        check(trace, 25, get_analysis("example_a1"))
    with pytest.raises(ValueError, match="n does not match"):
        check(trace, 16, an)


def test_mixed_inputs_refused_before_any_replication(get_instance, get_analysis, monkeypatch):
    # example_a1 and example_a2 are both 2x2 with 4 activities, so a run of
    # one against the other's analysis would go through unnoticed.
    a1, an1 = get_instance("example_a1"), get_analysis("example_a1")
    a2, an2 = get_instance("example_a2"), get_analysis("example_a2")
    simulated = []
    monkeypatch.setattr(qcp, "_rep_cost", simulated.append)
    pol = PolicySpec.static_mode(0)
    config = ps.HjbConfig(grid_n=100)
    sol = ps.solve_hjb(an2.coefficients, a2.gamma, config)
    bound = dict(n_list=(25,), policies=(pol,), n_reps=4, horizon=0.5)
    with pytest.raises(ValueError, match="another instance"):
        run_qcp(a1, an2, 25, pol, horizon=0.5)
    with pytest.raises(ValueError, match="another instance"):
        estimate_qcp_cost(a1, an2, 25, pol, 4, horizon=0.5)
    with pytest.raises(ValueError, match="another instance"):
        verify_lower_bound(a1, an2, sol, **bound)
    with pytest.raises(ValueError, match="another instance"):
        ps.compute_v0(a1, an2, sol)
    others = [
        ps.solve_hjb(an1.coefficients, a2.gamma, config),
        ps.solve_hjb(an2.coefficients, 2.0 * a2.gamma, config),
    ]
    for other in others:
        with pytest.raises(ValueError, match="other coefficients or another gamma"):
            verify_lower_bound(a2, an2, other, **bound)
        with pytest.raises(ValueError, match="other coefficients or another gamma"):
            ps.compute_v0(a2, an2, other)
    assert simulated == []


def _switching_trace(get_instance, get_analysis):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    policy = PolicySpec.workload_threshold(ModePolicy(thresholds=(0.36,), modes=(0, 1)))
    return run_qcp(inst, an, n=64, policy=policy, horizon=3.0, seed=2), an


def test_left_limits_hold_counts_and_take_own_time(get_instance, get_analysis):
    trace, an = _switching_trace(get_instance, get_analysis)
    series = compute_scaled(trace, 64, an)
    # The selector switches both ways along this trace.
    above = series.w > 0.36
    assert np.any(~above[:-1] & above[1:]) and np.any(above[:-1] & ~above[1:])
    left, previous, own = slice(1, None, 2), slice(0, -1, 2), slice(2, None, 2)
    assert np.array_equal(series.x_hat[previous], trace.x[:-1] / 8.0)
    assert np.array_equal(series.times[own], trace.times[1:])
    for name in ("x_hat", "w", "h"):
        values = getattr(series, name)
        assert np.array_equal(values[left], values[previous]), name
    for name in ("times", "i_hat", "l", "l_an"):
        values = getattr(series, name)
        assert np.array_equal(values[left], values[own]), name
    assert identity_residual_exact(trace, 64, an) == F(0)


def test_compute_scaled_peak_memory_near_its_output(get_instance, get_analysis):
    # Each series is computed once per event row and then laid on the grid,
    # so the traced peak stays near the bytes returned: 1.06 times them
    # here, against 3.00 when every count and effort column was doubled.
    trace, an = _switching_trace(get_instance, get_analysis)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        series = compute_scaled(trace, 64, an)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    fields = ("times", "x_hat", "i_hat", "w", "f", "l", "l_an", "h")
    returned = sum(getattr(series, name).nbytes for name in fields)
    assert peak <= 1.4 * returned


# perfbench/grids.py's generic 3x3 grid at seed 1: its activities 0 and 6
# are always nonbasic, with Lan coefficients z*_k - y*_i mu_j = 1/24.
GENERIC_3X3 = pathlib.Path(__file__).resolve().parent / "data" / "generic_3x3.json"


@pytest.fixture(scope="module")
def generic_grid():
    inst = ps.load_instance(GENERIC_3X3.read_bytes())
    return inst, ps.analyze(inst)


@pytest.mark.parametrize("name", ["example_a2", "example_e", "generic_3x3"])
def test_scaled_series_match_the_matrix_products(get_instance, get_analysis, generic_grid, name):
    # compute_scaled sums over activities and servers term by term, so no
    # BLAS call is made; the matrix products give the same series to
    # rounding, and the exact identity still holds. example_e has three
    # servers and seven activities; the generic grid a nonzero Lan.
    n = 64
    if name == "example_a2":
        trace, an = _switching_trace(get_instance, get_analysis)
    elif name == "example_e":
        an = get_analysis(name)
        trace = run_qcp(get_instance(name), an, n, PolicySpec.static_mode(1, True), 2.0, seed=3)
    else:
        inst, an = generic_grid
        n = 16
        trace = run_qcp(inst, an, n, PolicySpec.server_priority(inst.server_activities), seed=1)
    inst, rt = an.instance, math.sqrt(n)
    series = compute_scaled(trace, n, an)
    *per_activity, y_lam = qcp._identity_coefficients(an)
    y_of, y_mu, lan = (np.array([float(v) for v in c]) for c in per_activity)
    y, z = (np.array([float(v) for v in d]) for d in (an.dual.y, an.dual.z))
    servers = np.zeros((inst.num_servers, inst.num_activities))
    for j, act in enumerate(inst.activities):
        servers[act.server_index - 1, j] = 1.0
    t, busy = trace.times, trace.busy
    x_hat = qcp._on_grid(trace.x / rt, held=True)
    i_hat = qcp._on_grid(rt * (t[:, None] - busy @ servers.T), held=False)
    f = qcp._on_grid((trace.arrivals @ y - trace.departures @ y_of) / rt, held=True)
    qcp._on_grid(rt * (busy @ y_mu - t * float(y_lam)), held=False, out=f)
    expected = {
        "x_hat": x_hat,
        "i_hat": i_hat,
        "w": x_hat @ y,
        "h": x_hat @ np.array(inst.h, float),
        "l": i_hat @ z,
        "l_an": qcp._on_grid(rt * (busy @ lan), held=False),
        "f": f,
    }
    for field, values in expected.items():
        got = getattr(series, field)
        assert got.shape == values.shape, field
        assert np.max(np.abs(got - values)) <= 1e-12 * series.scale, field
    assert identity_residual_exact(trace, n, an) == F(0)


def test_check_trace_inequalities_peak_memory(get_instance, get_analysis):
    # The checks run over the event rows and the left limits apart, or in
    # place; the reflection holds two series on the whole grid, and the
    # idleness step one plus about 100 KB of numpy iteration buffers (two
    # series at this length). The traced peak measured 3.13 times one
    # series here, against 5.17 with whole-grid temporaries for every check.
    trace, an = _switching_trace(get_instance, get_analysis)
    series = compute_scaled(trace, 64, an)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        checks = check_trace_inequalities(series, an)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert checks.max_relative_violation <= 1e-8
    assert peak <= 3.5 * series.f.nbytes


def _stream_runs(get_instance, get_analysis, generic_grid):
    """(instance, analysis, n, policy, horizon, seed) of short runs: one
    whose selector switches 26 times over 529 rows, one with a nonzero Lan,
    a zero horizon, and a positive horizon before the first event, so with
    no allocation change after row 0."""
    a2, an2 = get_instance("example_a2"), get_analysis("example_a2")
    inst, an = generic_grid
    return {
        "switching": (a2, an2, 16, _pinned_policy(a2, an2, "threshold"), 2.0, 1),
        "lan": (inst, an, 16, PolicySpec.server_priority(inst.server_activities), 2.0, 1),
        "zero_horizon": (
            get_instance("example_a"), get_analysis("example_a"), 9, PolicySpec.static_mode(0), 0.0, 0
        ),
        "no_change": (get_instance("mm1"), get_analysis("mm1"), 1, PolicySpec.static_mode(0), 0.05, 0),
    }


@pytest.mark.parametrize("size", [1, 2, 7, qcp._BLOCK, 10**9])
@pytest.mark.parametrize("run", ["switching", "lan", "zero_horizon", "no_change"])
def test_streamed_checks_equal_the_whole_trace_at_any_block_size(
    get_instance, get_analysis, generic_grid, monkeypatch, run, size
):
    inst, an, n, policy, horizon, seed = _stream_runs(get_instance, get_analysis, generic_grid)[run]
    trace = run_qcp(inst, an, n, policy, horizon, seed)
    series = compute_scaled(trace, n, an)
    expected = qcp.ScaledChecks(
        len(trace.times), series.scale, series.identity_residual, check_trace_inequalities(series, an)
    )
    if run == "no_change":
        assert len(trace.times) == 2 and trace.times[-1] == horizon
    monkeypatch.setattr(qcp, "_BLOCK", size)
    recorded = qcp.record_qcp(inst, an, n, policy, horizon, seed)
    assert (recorded.cost, recorded.h_horizon) == (trace.cost, trace.h_horizon)
    blocks = []
    got = qcp.check_scaled(recorded, n, an, on_block=blocks.append)
    # repr tells the sign of a zero apart, as the JSON report does.
    assert repr(got) == repr(expected)
    assert len(blocks) == -(-len(trace.times) // size)
    for field in qcp._Grid._fields:
        joined = np.concatenate([getattr(b, field) for b in blocks])
        assert np.array_equal(joined, getattr(series, field)), field


def test_checks_over_overlapping_pieces_equal_the_whole(get_analysis):
    # Random series violate every relation, so each running maximum, and
    # the Skorokhod map's maximum carried from piece to piece, shows.
    an = get_analysis("example_a2")
    rng = np.random.default_rng(5)
    rows = 2 * 300 - 1

    def walk(*shape):
        return rng.normal(size=(rows, *shape)).cumsum(axis=0)

    grid = qcp._Grid(
        times=np.arange(rows, dtype=float),
        x_hat=rng.integers(-1, 3, (rows, 2)) / 4.0,
        i_hat=walk(2),
        w=walk(),
        f=walk(),
        l=walk(),
        l_an=walk(),
        h=walk(),
    )
    whole = qcp._Checks(an)
    whole.add(grid)
    assert min(vars(whole.result(1.0)).values()) > 0.0
    for size in (1, 2, 7, 300):
        pieces = qcp._Checks(an)
        for start in range(0, rows - 1, 2 * size):
            pieces.add(qcp._Grid(*(s[start : start + 2 * size + 1] for s in grid)))
        assert repr(pieces.result(1.0)) == repr(whole.result(1.0)), size


def test_lan_nonzero_on_the_generic_grid(generic_grid):
    # No shipped instance that passes the assumptions has an always-nonbasic
    # activity; this grid has two, and both policies give them effort.
    inst, an = generic_grid
    assert an.assumptions.all_pass
    lan = qcp._identity_coefficients(an)[2]
    assert lan == [F(1, 24), 0, 0, 0, 0, 0, F(1, 24), 0, 0]
    policies = {"priority": 0.8, "static:0:wc": 0.1}
    for label, lan_min in policies.items():
        policy = _pinned_policy(inst, an, label)
        trace = run_qcp(inst, an, 16, policy, seed=1)
        assert np.all(trace.busy[-1, [0, 6]] > 0.0), label
        series = compute_scaled(trace, 16, an)
        assert np.max(np.abs(series.l_an)) > lan_min, label
        assert identity_residual_exact(trace, 16, an) == F(0)
        streamed = qcp.check_scaled(qcp.record_qcp(inst, an, 16, policy, seed=1), 16, an)
        assert streamed.identity_residual == series.identity_residual
        assert streamed.checks == check_trace_inequalities(series, an)
        assert streamed.checks.max_relative_violation <= 1e-8


def _traced(call):
    """(result, traced bytes held after, traced peak) of call(), both over
    the traced bytes before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, held - before, peak - before


def test_streamed_checks_hold_the_event_log_plus_one_block(get_instance, get_analysis):
    # Measured before this test first ran (example_a2, n = 64, threshold
    # 0.36, seed 2, default _BLOCK): the traced peak of record_qcp plus
    # check_scaled was at most 1.9 times the event log plus one block's
    # grid series, and check_scaled's own peak 1.46 and 1.55 MB at horizons
    # 12 and 48 (13,513 and 55,585 rows), where compute_scaled's grew from
    # 2.27 to 9.34 MB.
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    policy = _pinned_policy(inst, an, "threshold")
    peaks, whole = [], []
    for horizon in (12.0, 48.0):
        run, log, _ = _traced(lambda: qcp.record_qcp(inst, an, 64, policy, horizon, seed=2))
        block = []
        _, _, peak = _traced(
            lambda: qcp.check_scaled(run, 64, an, lambda g: block.append(sum(a.nbytes for a in g)))
        )
        assert log + peak <= 2.5 * (log + max(block)), horizon
        peaks.append(peak)
        trace = run_qcp(inst, an, 64, policy, horizon, seed=2)
        whole.append(_traced(lambda: compute_scaled(trace, 64, an))[2])
        del run, trace
    assert peaks[1] <= 1.2 * peaks[0]
    assert whole[1] >= 3.0 * whole[0]


@pytest.mark.parametrize(
    "n_list, policies, name",
    [((), (PolicySpec.static_mode(0),), "n_list"), ((25,), (), "policies")],
    ids=["n_list", "policies"],
)
def test_verify_bound_refuses_empty_lists(get_instance, get_analysis, n_list, policies, name):
    # An empty n_list would be a vacuous PASS, with no runs.
    inst, an = get_instance("mm1"), get_analysis("mm1")
    sol = ps.solve_hjb(an.coefficients, inst.gamma, ps.HjbConfig(grid_n=100))
    with pytest.raises(ValueError, match=name):
        verify_lower_bound(inst, an, sol, n_list, policies, n_reps=2, horizon=0.5)


def test_verify_bound_small(get_instance, get_analysis):
    from psslab.hjb import solve_hjb

    inst = get_instance("mm1")
    an = get_analysis("mm1")
    sol = solve_hjb(an.coefficients, inst.gamma)
    rep = verify_lower_bound(
        inst,
        an,
        sol,
        n_list=(25,),
        policies=(PolicySpec.static_mode(0),),
        n_reps=12,
        horizon=6.0,
        seed=0,
    )
    assert rep.verdict in ("PASS", "FAIL")
    assert len(rep.runs) == 1
    run = rep.runs[0]
    assert run.n == 25 and run.policy == "static:0"
    assert run.margin == pytest.approx(run.mean - rep.v0, abs=1e-12)
    assert rep.min_by_n == ((25, run.mean),)
    assert rep.v0 == pytest.approx(sol.u0, rel=1e-12)


# (cost, H_T, count digest, float digest) of the event kernel. The count
# digest covers the integer columns (x, arrivals, departures), which fix the
# event sequence; it was recorded before the kernel moved to absolute clock
# times and must never change. The float digest covers times, busy and alloc
# and moves with the order of floating point operations, so it is pinned
# with the cost and H_T of the current kernel.
KERNEL_PINS = {
    ("example_a", "priority", 3): (1.7119606678866828, 7.4,
        "3bd95d6b2d965be48010ff7f26c194b6b95b869fe15bcdba3b11bb0259fc5701",
        "2c128b36fe6fc2a93bf1dee32faa520c30d746d098bf5c965a6010c2a8184cf8"),
    ("example_a", "priority", 8): (2.373048598853331, 7.2,
        "468b3495148decdf742d23b5fb5199d0300dd09e07f3d3a3f6f11e435fe7afcb",
        "c7c994fb57eca70c05c94dbdf4b005662f83b7882f8c44b9b77eb9ebf469ec4e"),
    ("example_a", "static:0", 3): (2.272678999118074, 5.0,
        "e81380b5e955bcc148d9368194d60c54eb9f8c3b2cf6976cbdbe334ad01d0da4",
        "3f032ae6eb078937beaabd25bfb57a10658caa16758d3f318861c3ad39b33462"),
    ("example_a", "static:0", 8): (3.506753569216074, 13.600000000000001,
        "cf18cb3c9d269a6ad6a87b9389a9e8a4baf72c85883819e34917842c9ffa6f36",
        "c430fc99a14a4aa1071861c5c97a369300c0e0fcc8dacbbe21ec8c1fe9332d73"),
    ("example_a", "static:0:wc", 3): (1.2571506723261496, 5.800000000000001,
        "acb7ad6300dca12b78cea4e363e31bd10b3bc184f99be556a1663fc05a1f18ea",
        "fb2d17edd85c2390710e7e354bad89e9bfe9087a6018aa60974d92a42ddc19be"),
    ("example_a", "static:0:wc", 8): (1.343315862635144, 6.6000000000000005,
        "6cd7802ad9a006e556e0e3110d607456705ec2a18119c20dbc07ee2740c3cadf",
        "cbfca8d71dc20cd606b000355d7fbdd6fe49e28005140caae3447f13382c64ea"),
    ("example_a", "static:1", 3): (1.4418258776851216, 4.6000000000000005,
        "a1a89dbad76f5c3604a44907a5b80a161ce4d0ea66df06e1546d5118516d3341",
        "70140bab864fca10432565233093383f0cdc3c9bd71cbe99bdead4f070b7cca5"),
    ("example_a", "static:1", 8): (3.0001326645944904, 8.6,
        "3abef19686c5205c90a3b47904f50955eddbc143c1c3b2caf98bd176223139bd",
        "7eda829e5fb50155a7f6ec873136346724276efead01cf43a6d7d3489c7876c7"),
    ("example_a", "static:1:wc", 3): (0.905991424275452, 3.6,
        "010d985bf88e123e9bfd63f41dd2517081d0a347bf068bdfd8c9297eb30ad92a",
        "d823a13f43517e1931d1bde3e8a8d2f96ad357842cbb202092aa558612008094"),
    ("example_a", "static:1:wc", 8): (2.3957741852172822, 5.4,
        "d92dcbd10db979e701ddda32588dfa58effa61fe7d9e258bc1009d9e6a28c11b",
        "5c5b0ac909870869acc54196dbd81dad0d2890116ff23a2a6e9113d379f6d7cd"),
    ("example_a", "threshold", 3): (1.9105233175870138, 7.0,
        "7022d967be605bd06cb35692b4373fe1d6648319cd28207ec86ec1e4fdd8db9e",
        "b38695b1b1b711c551d940385dbee984a63a9153a2b7ed99524216873ee131f5"),
    ("example_a", "threshold", 8): (2.737998192301765, 9.4,
        "e4c083aafaaae7dc8ae06f1c92b411b219239b6a75b45032a7a06f0e7676efc2",
        "1d76c011381557731bdfda1c07aed083eb9c16e1c37fb5136d5e78a2f01a31bc"),
    ("example_a2", "priority", 3): (1.138002571918482, 8.200000000000001,
        "2050faaded08f9ea6d8346f5a85d9c74d8a03611769e1c76825c7dfef078a287",
        "d8b951a54d3774aba0184459de0e7cbd2ea4be411b0c54c8f08ddda8545d3245"),
    ("example_a2", "priority", 8): (1.582764042705475, 4.0,
        "a1fff4388242653f47627af31a840f6536f50c533a5ddb6c59a4de2e2f4ff955",
        "b70e2de8a1b1fc83f227de6a2d7a3c41a8b70d9af10d050a039fdc0f8aef5ebe"),
    ("example_a2", "static:0", 3): (1.4697253243008077, 5.0,
        "d0a235a584aa3cd643a427db5c6615bec1880abc0f2bb8f0b7cdf27f6d7048e1",
        "8c1134e5369a09dd75b3196d12823adccffe89b9ca9ab3f6819597db3be37b36"),
    ("example_a2", "static:0", 8): (3.3649098944652076, 14.8,
        "c8501845153234625de4ea0665f41d3741fdc144a769a7d26c823f485f3d1e59",
        "7a8056d23fd5d86835a36c4222c6f8327464d6e413a4a0c27d9d3dc6b28deb20"),
    ("example_a2", "static:0:wc", 3): (0.7262281350240856, 4.4,
        "acfe63131d42b819291e0023f9666be7ee49f1c720f843633e5fe99d9e490e2b",
        "581c3c74efc971bd605d4f81540a2ce10644d29c77f764313345e55b667d75c3"),
    ("example_a2", "static:0:wc", 8): (2.3486252299349712, 6.2,
        "c03183911119cb3a50ae729bbf1b9401df1b3bc9768cc1e4e72730936bfd2b46",
        "ca4c3acb01ea252cce1e0f585163f97fce81e60bc1a34138ec803084bfa91a7b"),
    ("example_a2", "static:1", 3): (1.3512065241176594, 4.0,
        "4017520a675e0f1897ff3571c4263a27b139ff7546b2ef1b61fbc5b1428d7206",
        "c35ddfc1cf006f74157b0ee548c65788a3ad0f9910262e96a8036b5e23b33b29"),
    ("example_a2", "static:1", 8): (2.667855310544521, 8.4,
        "cb1b2a19afd600c7d5484d251ebfd0dbff8517e2b13046842002f50041a4209c",
        "7d90d277d535fc8b30f34cb286b7a58eef99b5253f020d00c62de30d80bdb324"),
    ("example_a2", "static:1:wc", 3): (0.9304148324330541, 0.6000000000000001,
        "a08b76d1ab622ce1277d9cb1868a7739d32cf65c602896d87960731ec267d3ef",
        "ae779e1d7c0ad705c0d3c8263c661b4bb9eace5239e48c2b920a1a4be5fb6690"),
    ("example_a2", "static:1:wc", 8): (1.392303645061483, 3.4000000000000004,
        "38f276d5925bafd3bb44869b53d7550953c74e9233da27be93a893597b2eb892",
        "d24cfe4a31708d204f6491a433d800b5b8cd53d72814aa17908d659e154169a7"),
    ("example_a2", "threshold", 3): (1.3696297990366266, 5.4,
        "2d956544783ca316d1e1485ffde66d8b93426e39646c7ffa75aea343a8fad20a",
        "368ba228d659c47c1215834cd508523b4f94017adad31bdc1796c7e2571fe94f"),
    ("example_a2", "threshold", 8): (2.8777945618353606, 10.200000000000001,
        "cb8ba08a1a8d2f2722e2dc585e7484ec4e3057a0f77f2e5cf750423477646085",
        "47dab01d94e5646bb95483ef91f0e750df4adcbafd74153bf07158f798828dd4"),
    ("example_a2", "threshold:wc", 3): (0.7295661067485695, 5.0,
        "d10fca592615f62992ec73e1680c3242edb919f27bcc7b165f74fe6cc22ff18a",
        "0661db9195fdf1d9f3ee765c58e76f0c18aa54c529d7c9c16e6568dcf2fb172e"),
    ("example_a2", "threshold:wc", 8): (1.7075638440402852, 5.800000000000001,
        "df187a7e0a78eb2331091a5365f1c89f058a39d6cbb654703fc2fe0726f2a512",
        "8dff0ec447704bf047c93229d1e787fb5ca2c92c5d3d4c50ec7007b0db375e09"),
    ("generic_3x3", "priority", 3): (6.146408333636412, 15.0,
        "1462672d760705b1791859ab1f1d919274bc8529f806fd8a549089f68812b486",
        "6317bb141ff642a22db7c6dd10b602dfb70bc61dbaf24368639c06fa593560d5"),
    ("generic_3x3", "priority", 8): (2.7613819652398623, 18.875,
        "4aeb1008036bba682a2f3997a474f414b42b73dbd871d0ce4690ecaae5f74846",
        "935fae2bc00efed9aaeeaaa4a9930ae5d1189f00bcefd1403370ae2746475a1a"),
    ("generic_3x3", "static:0:wc", 3): (3.706872272900909, 6.875,
        "b52a96185b5640be944912ac6699558ad45f28121a4017e82a494e47fd672b4b",
        "d5f68303317e081b79f67f4b5fc8f93131c59219bfe009d9a4b48c523d70aa1b"),
    ("generic_3x3", "static:0:wc", 8): (1.6310662368765312, 12.375,
        "2a57ccae471ce90db0fc14864eb89bf4574949b4fe19efbb0eb5b5b684245e94",
        "506788b0ec5ba9f2468604974a4f469d8252fc3e6549e4e5df4bba25d81a7e14"),
    ("mm1", "priority", 3): (1.0067117064482562, 2.5,
        "cfa88e380666def177a068a6a98066255ec9dbab1238242aa975405f77603c94",
        "e8892b6541fea743e1e14f5f35dea3e62d8a51784ad3f488fe7d2ff46806b53a"),
    ("mm1", "priority", 8): (0.5785714663732556, 5.800000000000001,
        "c85f6d4e6b93003fa097eb22a2e05c7effdf11045a695d996271efc9e4f3b7e4",
        "49c2c597d1a81bcb4dec8037a1dd70adc09f9b7e3db83a2a0b5f0a004da43479"),
    ("mm1", "static:0", 3): (1.0067117064482562, 2.5,
        "cfa88e380666def177a068a6a98066255ec9dbab1238242aa975405f77603c94",
        "e8892b6541fea743e1e14f5f35dea3e62d8a51784ad3f488fe7d2ff46806b53a"),
    ("mm1", "static:0", 8): (0.5785714663732556, 5.800000000000001,
        "c85f6d4e6b93003fa097eb22a2e05c7effdf11045a695d996271efc9e4f3b7e4",
        "49c2c597d1a81bcb4dec8037a1dd70adc09f9b7e3db83a2a0b5f0a004da43479"),
    ("mm1", "static:0:wc", 3): (1.0067117064482562, 2.5,
        "cfa88e380666def177a068a6a98066255ec9dbab1238242aa975405f77603c94",
        "e8892b6541fea743e1e14f5f35dea3e62d8a51784ad3f488fe7d2ff46806b53a"),
    ("mm1", "static:0:wc", 8): (0.5785714663732556, 5.800000000000001,
        "c85f6d4e6b93003fa097eb22a2e05c7effdf11045a695d996271efc9e4f3b7e4",
        "49c2c597d1a81bcb4dec8037a1dd70adc09f9b7e3db83a2a0b5f0a004da43479"),
    ("mm1", "threshold", 3): (1.0067117064482562, 2.5,
        "cfa88e380666def177a068a6a98066255ec9dbab1238242aa975405f77603c94",
        "e8892b6541fea743e1e14f5f35dea3e62d8a51784ad3f488fe7d2ff46806b53a"),
    ("mm1", "threshold", 8): (0.5785714663732556, 5.800000000000001,
        "c85f6d4e6b93003fa097eb22a2e05c7effdf11045a695d996271efc9e4f3b7e4",
        "49c2c597d1a81bcb4dec8037a1dd70adc09f9b7e3db83a2a0b5f0a004da43479"),
    ("mm1", "threshold:wc", 3): (1.0067117064482562, 2.5,
        "cfa88e380666def177a068a6a98066255ec9dbab1238242aa975405f77603c94",
        "e8892b6541fea743e1e14f5f35dea3e62d8a51784ad3f488fe7d2ff46806b53a"),
    ("mm1", "threshold:wc", 8): (0.5785714663732556, 5.800000000000001,
        "c85f6d4e6b93003fa097eb22a2e05c7effdf11045a695d996271efc9e4f3b7e4",
        "49c2c597d1a81bcb4dec8037a1dd70adc09f9b7e3db83a2a0b5f0a004da43479"),
}
# generic_3x3 has three classes and nine activities, so a clock of 1 + 3 + 9
# entries, the largest of the pinned runs.
KERNEL_RUNS = {
    "example_a": (25, 2.0),
    "example_a2": (25, 2.0),
    "generic_3x3": (16, 2.0),
    "mm1": (100, 8.0),
}


def _pinned_policy(inst, an, label):
    if label.startswith("threshold"):
        wc = label == "threshold:wc"
        if len(an.modes) > 1:
            return PolicySpec.workload_threshold(ModePolicy(thresholds=(0.36,), modes=(0, 1)), wc)
        return PolicySpec.workload_threshold(ModePolicy.constant(0), wc)
    if label == "priority":
        return PolicySpec.server_priority(inst.server_activities)
    parts = label.split(":")
    return PolicySpec.static_mode(int(parts[1]), work_conserving=len(parts) == 3)


def _digest(trace, fields) -> str:
    h = hashlib.sha256()
    for a in (getattr(trace, f) for f in fields):
        h.update(a.dtype.str.encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,label,seed", sorted(KERNEL_PINS))
def test_event_kernel_pinned(get_instance, get_analysis, generic_grid, name, label, seed):
    inst, an = generic_grid if name == "generic_3x3" else (get_instance(name), get_analysis(name))
    n, horizon = KERNEL_RUNS[name]
    policy = _pinned_policy(inst, an, label)
    assert policy.label == label
    cost, h_t, counts, floats = KERNEL_PINS[(name, label, seed)]
    _, got_cost, got_h_t = _simulate(inst, an, n, policy, horizon, seed, 1, record=False)
    assert (got_cost, got_h_t) == (cost, h_t)
    trace = run_qcp(inst, an, n, policy, horizon=horizon, seed=seed, rep=1)
    assert _digest(trace, ("x", "arrivals", "departures")) == counts
    assert _digest(trace, ("times", "busy", "alloc")) == floats


# The benchmark's trace: example_a2 at n = 400 under the HJB threshold
# policy, seed 1, replication 0 and the default horizon, with 86,119 event
# rows. KERNEL_PINS stop at n = 100 and horizon 8; this pins a long run in
# the same four figures.
BENCHMARK_TRACE_PIN = (6.302875928460204, 15.75,
    "88c3476aed53dc4ac7ec0730ab4be29d98787d80c4dd04f20654effbdb0468c7",
    "af06810c5a6208aba83aaa9e7f63bc7499c33eb6ef8d70a0bd1dd22698b55a74")


def test_event_kernel_pinned_at_benchmark_size(get_instance, get_analysis):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    policy = PolicySpec.workload_threshold(
        ps.extract_policy(ps.solve_hjb(an.coefficients, inst.gamma))
    )
    cost, h_t, counts, floats = BENCHMARK_TRACE_PIN
    horizon = default_horizon(inst.gamma)
    _, got_cost, got_h_t = _simulate(inst, an, 400, policy, horizon, 1, 0, record=False)
    assert (got_cost, got_h_t) == (cost, h_t)
    trace = run_qcp(inst, an, 400, policy, seed=1, rep=0)
    assert len(trace.times) == 86_119
    assert (trace.cost, trace.h_horizon) == (cost, h_t)
    assert _digest(trace, ("x", "arrivals", "departures")) == counts
    assert _digest(trace, ("times", "busy", "alloc")) == floats
    # At 8 rows, activity 0 (clock index 3, c2_s = 4) completes twice at one
    # instant: the service drawn at the first completion is positive but
    # below half an ulp of its threshold, so neither the threshold (busy at a
    # completion) nor the completion time moves, and the new clock entry
    # equals t.
    tied = np.flatnonzero(trace.times[1:] == trace.times[:-1])
    assert len(tied) == 8
    steps = np.diff(trace.departures, axis=0)
    assert (steps[tied - 1] == (1, 0, 0, 0)).all() and (steps[tied] == (1, 0, 0, 0)).all()
    threshold = trace.busy[tied, 0]
    assert np.array_equal(trace.busy[tied + 1, 0], threshold)
    _, mu_n = effective_rates(inst, 400)
    seq = np.random.SeedSequence(1, spawn_key=(0, 1, 0))
    services = renewal_stream(inst.c2_service[0], mu_n[0], np.random.Generator(np.random.Philox(seq)))
    draws = np.fromiter(services, float, int(trace.departures[-1, 0]) + 1)
    service = draws[trace.departures[tied, 0]]
    assert (service > 0).all() and (service < np.spacing(threshold) / 2).all()


# One class on two servers, its two activities of equal dyadic rate with
# deterministic services (c2_s = 0): at n = 16 each service takes exactly
# 1/16. The two activities gain and lose effort together, so their
# thresholds, re-bases and completion times are equal floats, and they
# complete at the same instant, a random arrival time plus a whole number of
# 1/16. TIE_PIN holds the horizon, set on the last such instant before 2 of
# a longer run (the streams do not depend on the horizon), then cost and H
# at the horizon and the count and float digests.
TIE_DOC = {
    "classes": [{"lambda": 2, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0}],
    "servers": 2,
    "activities": [
        {"i": 1, "k": 1, "mu": 1, "hat_mu": 0.0, "c2_s": 0.0},
        {"i": 1, "k": 2, "mu": 1, "hat_mu": 0.0, "c2_s": 0.0},
    ],
    "gamma": 1.0,
}
TIE_PIN = (1.966712209651303, 0.5929634826128231, 2.5,
    "611d71b6b97e5048a9730e0b797adb14afd47fd13d65c06cd3277e7c3979316a",
    "478b0063e82d39cd1094699b623dc337736ade1cf662e6e77995153850d54c02")


def test_tied_events_resolve_by_clock_index():
    import json

    inst = ps.load_instance(json.dumps(TIE_DOC))
    an = ps.analyze(inst)
    policy = PolicySpec.static_mode(0)
    run = qcp.record_qcp(inst, an, 16, policy, 4.0, seed=1)
    times, events = np.frombuffer(run.log[0]), np.frombuffer(run.log[1], np.intc)
    tied = np.flatnonzero(times[1:] == times[:-1])
    assert len(tied) > 20
    # Clock indices 1, 2 and 3 are the arrivals and activities 0 and 1, and
    # the lower index goes first at every tied instant. Mostly the two
    # activities complete together; where activity 0's completion empties
    # the class, activity 1 keeps the effort that reached its threshold and
    # completes at the next arrival's instant, after the arrival.
    pairs = events[tied], events[tied + 1]
    assert set(zip(*(p.tolist() for p in pairs))) == {(2, 3), (1, 3)}
    both = tied[(pairs[0] == 2) & (times[tied] <= 2.0)]
    horizon = float(times[both[-1]])
    pin_horizon, cost, h_t, counts, floats = TIE_PIN
    assert horizon == pin_horizon
    _, got_cost, got_h_t = _simulate(inst, an, 16, policy, horizon, 1, 0, record=False)
    assert (got_cost, got_h_t) == (cost, h_t)
    # The horizon ties with both completions and ends the run before them.
    trace = run_qcp(inst, an, 16, policy, horizon, seed=1)
    assert (trace.cost, trace.h_horizon) == (cost, h_t)
    assert trace.times[-1] == horizon > trace.times[-2]
    assert np.array_equal(trace.departures[-1], trace.departures[-2])
    assert trace.x[-1, 0] >= 2
    assert _digest(trace, ("x", "arrivals", "departures")) == counts
    assert _digest(trace, ("times", "busy", "alloc")) == floats
