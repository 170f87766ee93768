"""End-to-end acceptance checks.

Each test records one ACCEPTANCE line (PASS/FAIL with key numbers) and
asserts on it; the recorded lines are echoed in a terminal section after
the run (see conftest) so they survive pytest's output capture.
"""

import json
import time
from fractions import Fraction as F

import numpy as np

import psslab as ps
from conftest import INSTANCES, load_named, random_decomposable_2x2
from psslab.cli import main as cli_main
from psslab.hjb import (
    HjbConfig,
    ModePolicy,
    compute_v0,
    default_z_max,
    extract_policy,
    single_mode_value,
    solve_hjb,
)
from psslab.qcp import (
    PolicySpec,
    check_trace_inequalities,
    compute_scaled,
    run_qcp,
    verify_lower_bound,
)
from psslab.wcp import estimate_wcp_cost


RESULTS: list[str] = []


def stamp(num: int, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE c{num}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    return ok


def fresh(name: str):
    inst = load_named(name)
    return inst, ps.analyze(inst)


def test_c1_exact_lp_reproduction():
    expected = {
        "example_a": (
            [(F(1, 3), F(1), F(2, 3), F(0)), (F(1), F(1, 2), F(0), F(1, 2))],
            (False, False),
            ((F(1, 7), F(1, 14)), (F(3, 7), F(4, 7))),
        ),
        "example_b": (
            [(F(0), F(7, 8), F(1), F(1, 8)), (F(1), F(1, 8), F(0), F(7, 8))],
            (False, False),
            ((F(1, 7), F(1, 14)), (F(3, 7), F(4, 7))),
        ),
        "example_c": (
            [(F(0), F(1), F(1), F(0)), (F(1), F(1, 4), F(0), F(3, 4))],
            (True, False),
            ((F(1, 7), F(1, 14)), (F(3, 7), F(4, 7))),
        ),
        "example_e": (
            [
                (F(1, 3), F(1), F(2, 3), F(0), F(0), F(0), F(1)),
                (F(1), F(1, 2), F(0), F(0), F(2, 3), F(1, 2), F(1, 3)),
                (F(1), F(1, 2), F(0), F(1, 2), F(0), F(0), F(1)),
            ],
            (True, False, True),
            ((F(1, 10), F(1, 20), F(1, 20)), (F(3, 10), F(2, 5), F(3, 10))),
        ),
    }
    ok = True
    worst = 0.0
    for name, (modes, degenerate, (y, z)) in expected.items():
        t0 = time.perf_counter()
        _, an = fresh(name)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and dt < 1.0
        ok = ok and an.rho_star == 1
        ok = ok and [m.xi for m in an.modes] == modes
        ok = ok and an.degenerate_modes == degenerate
        ok = ok and an.dual.y == y and an.dual.z == z
    assert stamp(1, ok, f"4 instances exact, slowest {worst:.3f}s")


def test_c2_dual_face_detection():
    t0 = time.perf_counter()
    inst, an = fresh("example_d")
    dt = time.perf_counter() - t0
    rep = an.assumptions
    ok = rep.critical and rep.fully_loaded and not rep.dual_unique
    ok = ok and rep.failing_parts == (3,)
    wits = rep.dual_witnesses or ()
    ok = ok and len(wits) == 2 and wits[0] != wits[1]
    # Both witnesses must be exactly feasible and exactly optimal.
    for w in wits:
        ok = ok and sum(w.z) == 1 and all(v >= 0 for v in w.z)
        for j, act in enumerate(inst.activities):
            ok = ok and w.y[act.class_index - 1] * inst.mu[j] <= w.z[act.server_index - 1]
        value = sum(yi * li for yi, li in zip(w.y, inst.lam))
        ok = ok and value == an.rho_star
    ok = ok and dt < 1.0
    assert stamp(2, ok, f"two exact optimal dual points, {dt:.3f}s")


def test_c3_diffusion_coefficients():
    targets = {
        "example_a1": {
            (F(1, 3), F(1), F(2, 3), F(0)): (F(0), F(15, 49)),
            (F(1), F(1, 2), F(0), F(1, 2)): (F(0), F(3, 7)),
        },
        "example_a2": {
            (F(1, 3), F(1), F(2, 3), F(0)): (F(-1, 21), F(15, 49)),
            (F(1), F(1, 2), F(0), F(1, 2)): (F(-1, 7), F(3, 7)),
        },
    }
    ok = True
    worst = 0.0
    t0 = time.perf_counter()
    for name, by_xi in targets.items():
        _, an = fresh(name)
        for mode, (b, s2) in zip(an.modes, an.coefficients):
            tb, ts2 = by_xi[mode.xi]
            rb = abs(b - float(tb)) / max(1.0, abs(float(tb)))
            rs = abs(s2 - float(ts2)) / max(1.0, abs(float(ts2)))
            worst = max(worst, rb, rs)
            ok = ok and rb <= 1e-12 and rs <= 1e-12
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert stamp(3, ok, f"max relative error {worst:.2e}, {dt:.3f}s")


def test_c4_solver_against_closed_forms():
    t0 = time.perf_counter()
    ok = abs(single_mode_value(0.0, 15.0 / 49.0, 1.0).u0 - 0.39123039821797584) <= 1e-15
    worst_err = 0.0
    worst_order = np.inf
    for b, s2 in [(0.0, 15.0 / 49.0), (0.0, 2.0), (-0.5, 0.3)]:
        cf = single_mode_value(b, s2, 1.0)
        z_max = default_z_max(((b, s2),), 1.0)
        errs = []
        for n in (1000, 2000, 4000):
            sol = solve_hjb(((b, s2),), 1.0, HjbConfig(z_max=z_max, grid_n=n))
            errs.append(float(np.max(np.abs(sol.u - cf.u(sol.grid)))))
        worst_err = max(worst_err, errs[-1])
        order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
        worst_order = min(worst_order, order)
        ok = ok and errs[-1] <= 5e-5 and order >= 1.8
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert stamp(
        4, ok, f"max error {worst_err:.2e} at grid 4000, min order {worst_order:.2f}, {dt:.1f}s"
    )


def test_c5_two_mode_switching_structure():
    t0 = time.perf_counter()
    inst, an = fresh("example_a2")
    sol = solve_hjb(an.coefficients, inst.gamma)
    dt = time.perf_counter() - t0
    ok = len(sol.switch_points) == 1
    pol = extract_policy(sol)
    z_star = sol.switch_points[0] if sol.switch_points else 0.0
    below = an.coefficients[pol(0.0)][1]
    above = an.coefficients[pol(z_star + 1.0)][1]
    ok = ok and abs(below - 15.0 / 49.0) <= 1e-12
    ok = ok and abs(above - 3.0 / 7.0) <= 1e-12
    ok = ok and sol.residual_max <= 1e-7
    ok = ok and sol.excess_min >= 0.0
    ok = ok and dt < 10.0
    assert stamp(
        5,
        ok,
        f"one switch at {z_star:.4f}, residual {sol.residual_max:.1e}, "
        f"excess {sol.excess_min:.1e}, {dt:.1f}s",
    )


def test_c6_diffusion_cost_consistency():
    inst, an = fresh("example_a2")
    sol = solve_hjb(an.coefficients, inst.gamma)
    policy = extract_policy(sol)
    est = estimate_wcp_cost(
        policy, an.coefficients, inst.gamma, n_paths=100_000, step=1e-3, seed=0
    )
    gap = abs(est.mean - sol.u0)
    ok = gap <= est.half_width_95
    consts = []
    for m in range(len(an.coefficients)):
        em = estimate_wcp_cost(
            ModePolicy.constant(m), an.coefficients, inst.gamma, n_paths=20_000, step=1e-3, seed=0
        )
        consts.append(em)
        ok = ok and em.mean >= sol.u0 - 2.0 * em.half_width_95
    detail = (
        f"policy mean {est.mean:.5f} vs u0 {sol.u0:.5f} (ci {est.half_width_95:.5f}), "
        + ", ".join(f"mode{m} {e.mean:.5f}+-{e.half_width_95:.5f}" for m, e in enumerate(consts))
    )
    assert stamp(6, ok, detail)


def test_c7_pathwise_relations_on_random_traces():
    rng = np.random.default_rng(2026)
    instances = [load_named(n) for n in ("example_a1", "example_a2", "example_e")]
    instances += [random_decomposable_2x2(rng) for _ in range(14)]
    traces = 0
    worst = 0.0
    ok = True
    for t, inst in enumerate(instances):
        an = ps.analyze(inst)
        ok = ok and an.assumptions.all_pass
        n_modes = len(an.modes)
        if n_modes > 1:
            thr = ModePolicy(
                thresholds=tuple(0.4 * (p + 1) for p in range(n_modes - 1)),
                modes=tuple(range(n_modes)),
            )
        else:
            thr = ModePolicy.constant(0)
        policies = [
            PolicySpec.static_mode(t % n_modes, work_conserving=bool(t % 2)),
            PolicySpec.workload_threshold(thr),
            PolicySpec.server_priority(
                tuple(tuple(acts) for acts in inst.server_activities)
            ),
        ]
        for policy in policies:
            for n in (25, 100):
                seed = int(rng.integers(0, 2**31))
                trace = run_qcp(inst, an, n, policy, horizon=2.0, seed=seed)
                series = compute_scaled(trace, n, an)
                checks = check_trace_inequalities(series, an)
                viol = max(
                    checks.max_relative_violation,
                    series.identity_residual / series.scale,
                )
                worst = max(worst, viol)
                ok = ok and viol <= 1e-8
                traces += 1
    ok = ok and traces >= 100
    assert stamp(7, ok, f"{traces} traces, max relative violation {worst:.2e}")


def test_c8_prelimit_cost_dominates_bound(monkeypatch):
    # Two worker processes; estimates do not depend on the worker count.
    monkeypatch.setenv("PSS_THREADS", "2")
    inst, an = fresh("example_a1")
    sol = solve_hjb(an.coefficients, inst.gamma)
    policies = (
        PolicySpec.static_mode(0),
        PolicySpec.static_mode(1),
        PolicySpec.workload_threshold(extract_policy(sol)),
    )
    rep_a = verify_lower_bound(
        inst, an, sol, n_list=(25, 100, 400), policies=policies, n_reps=128, seed=0
    )
    ok = rep_a.verdict == "PASS"
    worst_a = min(r.margin + 2.0 * r.half_width_95 for r in rep_a.runs)

    inst_m, an_m = fresh("mm1")
    sol_m = solve_hjb(an_m.coefficients, inst_m.gamma)
    rep_m = verify_lower_bound(
        inst_m,
        an_m,
        sol_m,
        n_list=(25, 100, 400),
        policies=(PolicySpec.static_mode(0),),
        n_reps=256,
        seed=0,
    )
    ok = ok and rep_m.verdict == "PASS"
    best_400 = dict(rep_m.min_by_n)[400]
    rel = abs(best_400 - rep_m.v0) / rep_m.v0
    ok = ok and rel <= 0.10
    assert stamp(
        8,
        ok,
        f"A1 verdict {rep_a.verdict} (worst slack {worst_a:.4f}), "
        f"single-server best at n=400 {best_400:.4f} vs v0 {rep_m.v0:.4f} ({rel:.1%})",
    )


def test_c9_reports_are_deterministic(capsys):
    argv = [
        "verify-bound",
        "--instance",
        str(INSTANCES / "mm1.json"),
        "--n-list",
        "25",
        "--policy",
        "static:0",
        "--reps",
        "8",
        "--horizon",
        "6",
        "--seed",
        "0",
    ]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out

    def strip(text: str) -> str:
        doc = json.loads(text)
        del doc["timing"]
        return json.dumps(doc, indent=2, sort_keys=True)

    ok = code1 == code2 and strip(out1) == strip(out2) and code1 in (0, 40)
    assert stamp(9, ok, f"exit {code1}, reports byte-identical after dropping timing")
