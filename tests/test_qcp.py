"""Prelimit queueing simulation: traces, scaling, pathwise relations."""

import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psslab as ps
from psslab.hjb import ModePolicy
from psslab.qcp import (
    _Context,
    MinimumNError,
    PolicySpec,
    RenewalSource,
    _simulate,
    check_trace_inequalities,
    compute_scaled,
    effective_rates,
    estimate_qcp_cost,
    identity_residual_exact,
    policy_allocation,
    run_qcp,
    verify_lower_bound,
)


def test_effective_rates_scaling(get_instance):
    inst = get_instance("example_a2")
    lam_n, mu_n = effective_rates(inst, 100)
    assert lam_n == [100 * 5.0, 100 * 4.0]
    # hat_mu = 1 on the first activity enters at sqrt(n).
    assert mu_n[0] == pytest.approx(100 * 3.0 + 10.0)
    assert mu_n[1:] == [400.0, 600.0, 800.0]


def test_minimum_n_reported():
    doc = {
        "classes": [{"lambda": 1, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0}],
        "servers": 1,
        "activities": [{"i": 1, "k": 1, "mu": 1, "hat_mu": -3.0, "c2_s": 1.0}],
        "gamma": 1.0,
    }
    import json

    inst = ps.load_instance(json.dumps(doc))
    with pytest.raises(MinimumNError) as exc:
        effective_rates(inst, 4)
    assert exc.value.min_n == 10
    lam_n, mu_n = effective_rates(inst, 10)
    assert mu_n[0] > 0.0


def philox(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def test_renewal_sources():
    key = (0, (0, 0, 0))
    det = RenewalSource(0.0, 4.0, philox(key))
    assert [det.next() for _ in range(3)] == [0.25, 0.25, 0.25]
    gam = RenewalSource(0.5, 2.0, philox(key))
    draws = np.array([gam.next() for _ in range(4000)])
    assert np.all(draws > 0.0)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.03)
    assert np.var(draws) == pytest.approx(0.5 * 0.25, rel=0.2)
    with pytest.raises(ValueError, match="scv"):
        RenewalSource(-0.5, 2.0, philox(key))


def test_renewal_stream_across_buffer_refill():
    scv = 0.5
    key = (9, 1, 4)
    src = RenewalSource(scv, 3.0, philox(key))
    draws = [src.next() for _ in range(1100)]
    assert all(type(v) is float for v in draws)
    rng = philox(key)
    blocks = [rng.gamma(1.0 / scv, scv / 3.0, 512) for _ in range(3)]
    assert draws == np.concatenate(blocks)[:1100].tolist()
    det = RenewalSource(0.0, 4.0, philox(key))
    assert type(det.next()) is float


ALL_PASS = ("example_a", "example_a1", "example_a2", "example_b", "example_c", "example_e", "mm1")


@st.composite
def allocation_cases(draw, get_instance, get_analysis):
    name = draw(st.sampled_from(ALL_PASS))
    inst, an = get_instance(name), get_analysis(name)
    x = draw(st.lists(st.integers(0, 3), min_size=inst.num_classes, max_size=inst.num_classes))
    w_hat = draw(st.floats(0.0, 20.0))
    kind = draw(st.sampled_from(["static", "threshold", "priority"]))
    wc = draw(st.booleans())
    mode = st.integers(0, len(an.modes) - 1)
    if kind == "static":
        policy = PolicySpec.static_mode(draw(mode), work_conserving=wc)
    elif kind == "threshold":
        cuts = sorted(draw(st.sets(st.floats(0.0, 20.0), max_size=3)))
        modes = draw(st.lists(mode, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        policy = PolicySpec.workload_threshold(ModePolicy(tuple(cuts), tuple(modes)), wc)
    else:
        orders = tuple(draw(st.permutations(acts)) for acts in inst.server_activities)
        policy = PolicySpec.server_priority(orders)
    return inst, an, x, w_hat, policy


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_allocation_admissible_and_cache_exact(get_instance, get_analysis, data):
    inst, an, x, w_hat, policy = data.draw(allocation_cases(get_instance, get_analysis))
    assert an.assumptions.all_pass
    alloc = policy_allocation(policy, x, w_hat, an)
    assert all(a >= 0.0 for a in alloc)
    for j, act in enumerate(inst.activities):
        if alloc[j] > 0.0:
            assert x[act.class_index - 1] >= 1
    for acts in inst.server_activities:
        assert sum(alloc[j] for j in acts) <= 1.0 + 1e-12
    # The kernel looks allocations up by (backlog mask, mode). Fill the
    # cache from the empty state and from another state with x's key,
    # then read it at x.
    ctx = _Context(an, policy)
    mask = sum(1 << i for i, v in enumerate(x) if v >= 1)
    m = ctx.mode_at(w_hat)
    ctx.cached_allocation([0] * len(x), 0, m)
    ctx.cached_allocation([min(v, 1) for v in x], mask, m)
    cached, active = ctx.cached_allocation(x, mask, m)
    assert cached == alloc
    assert active == [j for j, a in enumerate(alloc) if a > 0.0]


@pytest.mark.parametrize("label", ["static:1:wc", "threshold", "priority"])
def test_recorded_allocations_match_fresh_fill(get_instance, get_analysis, label):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    policy = _pinned_policy(inst, an, label)
    trace = run_qcp(inst, an, 25, policy, horizon=1.0, seed=6)
    y = [float(v) for v in an.dual.y]
    for x, alloc in zip(trace.x.tolist(), trace.alloc.tolist()):
        w_hat = sum(yi * xi for yi, xi in zip(y, x)) * (1.0 / math.sqrt(25))
        assert tuple(alloc) == policy_allocation(policy, x, w_hat, an)


def test_work_conserving_reallocation(get_analysis):
    an = get_analysis("example_a")
    # Mode 1 is (1, 1/2, 0, 1/2); with class 1 empty the plain rule idles
    # most of both servers while the conserving one fills them via class 2.
    plain = policy_allocation(PolicySpec.static_mode(1), (0, 5), 0.0, an)
    assert plain == (0.0, 0.0, 0.0, 0.5)
    wc = policy_allocation(PolicySpec.static_mode(1, work_conserving=True), (0, 5), 0.0, an)
    assert wc == (0.0, 0.0, 1.0, 1.0)
    # Both classes backlogged: the mode passes through unchanged.
    assert policy_allocation(
        PolicySpec.static_mode(1, work_conserving=True), (3, 3), 0.0, an
    ) == (1.0, 0.5, 0.0, 0.5)
    # Nothing to serve: everything idles.
    assert policy_allocation(
        PolicySpec.static_mode(1, work_conserving=True), (0, 0), 0.0, an
    ) == (0.0, 0.0, 0.0, 0.0)


def test_priority_allocation(get_analysis):
    an = get_analysis("example_a")
    spec = PolicySpec.server_priority(((0, 2), (3, 1)))
    assert policy_allocation(spec, (2, 2), 0.0, an) == (1.0, 0.0, 0.0, 1.0)
    assert policy_allocation(spec, (0, 2), 0.0, an) == (0.0, 0.0, 1.0, 1.0)
    assert policy_allocation(spec, (0, 0), 0.0, an) == (0.0, 0.0, 0.0, 0.0)


def test_policy_validation(get_analysis):
    an = get_analysis("example_a")
    with pytest.raises(ValueError):
        policy_allocation(PolicySpec.static_mode(5), (1, 1), 0.0, an)
    with pytest.raises(ValueError):
        policy_allocation(PolicySpec(kind="threshold"), (1, 1), 0.0, an)
    with pytest.raises(ValueError):
        policy_allocation(
            PolicySpec.workload_threshold(ModePolicy.constant(9)), (1, 1), 0.0, an
        )
    with pytest.raises(ValueError):
        policy_allocation(PolicySpec.server_priority(((0, 1), (2, 3))), (1, 1), 0.0, an)
    with pytest.raises(ValueError):
        policy_allocation(PolicySpec(kind="mystery"), (1, 1), 0.0, an)


def test_policy_labels():
    assert PolicySpec.static_mode(0).label == "static:0"
    assert PolicySpec.static_mode(2, work_conserving=True).label == "static:2:wc"
    assert PolicySpec.workload_threshold(ModePolicy.constant(0)).label == "threshold"
    assert PolicySpec.server_priority(((0,),)).label == "priority"


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


def test_scaled_series_require_assumptions(get_instance, get_analysis):
    # The prelimit system itself runs under any static mode, but scaled
    # series need the unique dual point.
    inst_d = get_instance("example_d")
    an_d = get_analysis("example_d")
    trace = run_qcp(inst_d, an_d, n=25, policy=PolicySpec.static_mode(0), horizon=0.5, seed=0)
    assert trace.times[-1] == 0.5
    with pytest.raises(ps.AssumptionError):
        compute_scaled(trace, 25, an_d)


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


# (cost, H_T, trace digest) of the event kernel, recorded before the kernel
# was rewritten for speed; any change to the floats or their order of
# operations shows here.
KERNEL_PINS = {
    ("example_a", "static:0", 3): (2.2726789991180603, 5.0,
        "ebd70dd41e906bddba633e78a22216749f6f17a80b1ff6f146ce1cbcb92311f8"),
    ("example_a", "static:0", 8): (3.5067535692160763, 13.600000000000001,
        "809795c5910ac80e3ceaeee57c1633d7a259dba6e7d490b22cbb529221a895aa"),
    ("example_a", "static:0:wc", 3): (1.2571506723261574, 5.800000000000001,
        "c99bc488ed17dbbbe62fd9a11b366ab8460e67d5098fe54662a8ec8485c2fd76"),
    ("example_a", "static:0:wc", 8): (1.3433158626351471, 6.6000000000000005,
        "44f1b47898370ef37939a767bc8e120541b75faf34edd100f4b50fe454792420"),
    ("example_a", "static:1", 3): (1.441825877685122, 4.6000000000000005,
        "89c60fc985f0334692fedcbb14b4d05b29dd9b5e607d7f3cb7608f7c17a0cbac"),
    ("example_a", "static:1", 8): (3.000132664594489, 8.6,
        "759321bfbd6fd80a48349a03a3e038a4b8717285fdce1e88a5e0c9bcfd308fb8"),
    ("example_a", "static:1:wc", 3): (0.9059914242754501, 3.6,
        "068f3f72b42df69e5f00866c3c2a0d9790d7fea3d48ba65626edbd9a819a0ed4"),
    ("example_a", "static:1:wc", 8): (2.395774185217279, 5.4,
        "cfd9d6cf1407faeaf220a70401d2a35bf861a7608790980a99c070754716a91e"),
    ("example_a", "threshold", 3): (1.9105233175870093, 7.0,
        "c49ce9f35bba0775892d1f9378c29c680da0f34852ab457d6de87f644c28b59b"),
    ("example_a", "threshold", 8): (2.7379981923017533, 9.4,
        "09abb2d7cf2ca49e235d231d688ff1cb0b8243d378ef0835a56c6be1a436e8a2"),
    ("example_a", "priority", 3): (1.7119606678866837, 7.4,
        "39f59d055b1fdf3055c89aac87480a3405900f548c2467a23e85185b76ec40e7"),
    ("example_a", "priority", 8): (2.373048598853337, 7.2,
        "de02a598367739bc4937b3882870ae1c699efcc69e53184327fada7cc5a424f4"),
    ("example_a2", "static:0", 3): (1.469725324300807, 5.0,
        "a2ee1ad74958b18822bc4432245c5b1f1ad3c27ef30a28f2e87cda35d16c2166"),
    ("example_a2", "static:0", 8): (3.364909894465212, 14.8,
        "432300c07193e0f8dc86159554e794bd19b8b517918cca1e2f59fe8106ed89e4"),
    ("example_a2", "static:0:wc", 3): (0.726228135024084, 4.4,
        "ac7607574b590bff680734d16c7fe6458d3bcef7701af988d9b549b2ce1f249b"),
    ("example_a2", "static:0:wc", 8): (2.348625229934976, 6.2,
        "d9fa86d6fb7f2e94d95c10c16f711776b78cdcbe593af917f81180516203904f"),
    ("example_a2", "static:1", 3): (1.351206524117654, 4.0,
        "235e7c4fbd4c5309788e68192bbceeecfce324fa9b416cb561fe3833e22a6ddc"),
    ("example_a2", "static:1", 8): (2.667855310544527, 8.4,
        "9e92ef5d1b10a16a53ed8ffb8faba89fcb35b4d9cd66b5bc88131fa619fc0153"),
    ("example_a2", "static:1:wc", 3): (0.9304148324330522, 0.6000000000000001,
        "f172603ca16e11a949ae3f3c31161d6fa8cc698e08642d082ce46a494d4a6e47"),
    ("example_a2", "static:1:wc", 8): (1.3923036450614876, 3.4000000000000004,
        "fd33d125e4369824ec9f0c231e9d4ad1c9c8793a37a6f880020e215e66ec4ed8"),
    ("example_a2", "threshold", 3): (1.3696297990366233, 5.4,
        "70853a42edf69f45870ef62f46160f71b751bf9211ca2dd042ff6b35fb423b3e"),
    ("example_a2", "threshold", 8): (2.8777945618353664, 10.200000000000001,
        "af2c8d3cd66ed5f37a8a351dd0bb9b21fecaf5df928b9ba4a3133de20418f6b7"),
    ("example_a2", "priority", 3): (1.138002571918483, 8.200000000000001,
        "58d4aec022a1a5d9ec2a72f323f95a6db23db137f58dd8135476e25b37a760a6"),
    ("example_a2", "priority", 8): (1.5827640427054754, 4.0,
        "659a6d0805f7cfc7309673d40dd2019a7da2a6130733669cb4073c0c9691d658"),
    ("mm1", "static:0", 3): (1.0067117064482531, 2.5,
        "fa6c8da26fe915bd08be9449f3a847b69a76ea73a23c87e1fbe87c238d4a6178"),
    ("mm1", "static:0", 8): (0.5785714663732593, 5.800000000000001,
        "5a89eac8bb72988eedbb0f8f1e34cf84d033cfb7a9659c045289f2973fe33d14"),
    ("mm1", "static:0:wc", 3): (1.0067117064482531, 2.5,
        "fa6c8da26fe915bd08be9449f3a847b69a76ea73a23c87e1fbe87c238d4a6178"),
    ("mm1", "static:0:wc", 8): (0.5785714663732593, 5.800000000000001,
        "5a89eac8bb72988eedbb0f8f1e34cf84d033cfb7a9659c045289f2973fe33d14"),
    ("mm1", "threshold", 3): (1.0067117064482531, 2.5,
        "fa6c8da26fe915bd08be9449f3a847b69a76ea73a23c87e1fbe87c238d4a6178"),
    ("mm1", "threshold", 8): (0.5785714663732593, 5.800000000000001,
        "5a89eac8bb72988eedbb0f8f1e34cf84d033cfb7a9659c045289f2973fe33d14"),
    ("mm1", "priority", 3): (1.0067117064482531, 2.5,
        "fa6c8da26fe915bd08be9449f3a847b69a76ea73a23c87e1fbe87c238d4a6178"),
    ("mm1", "priority", 8): (0.5785714663732593, 5.800000000000001,
        "5a89eac8bb72988eedbb0f8f1e34cf84d033cfb7a9659c045289f2973fe33d14"),
}
KERNEL_RUNS = {"example_a": (25, 2.0), "example_a2": (25, 2.0), "mm1": (100, 8.0)}


def _pinned_policy(inst, an, label):
    if label == "threshold":
        if len(an.modes) > 1:
            return PolicySpec.workload_threshold(ModePolicy(thresholds=(0.36,), modes=(0, 1)))
        return PolicySpec.workload_threshold(ModePolicy.constant(0))
    if label == "priority":
        return PolicySpec.server_priority(inst.server_activities)
    parts = label.split(":")
    return PolicySpec.static_mode(int(parts[1]), work_conserving=len(parts) == 3)


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for a in (trace.times, trace.x, trace.arrivals, trace.departures, trace.busy, trace.alloc):
        h.update(a.dtype.str.encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,label,seed", sorted(KERNEL_PINS))
def test_event_kernel_pinned(get_instance, get_analysis, name, label, seed):
    inst = get_instance(name)
    an = get_analysis(name)
    n, horizon = KERNEL_RUNS[name]
    policy = _pinned_policy(inst, an, label)
    assert policy.label == label
    cost, h_t, digest = KERNEL_PINS[(name, label, seed)]
    _, got_cost, got_h_t = _simulate(inst, an, n, policy, horizon, seed, 1, record=False)
    assert (got_cost, got_h_t) == (cost, h_t)
    trace = run_qcp(inst, an, n, policy, horizon=horizon, seed=seed, rep=1)
    assert _trace_digest(trace) == digest
