import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import psslab as ps
from psslab import exactlp, lp
from psslab.exactlp import LpStatus, solve_lp
from conftest import NAMES, _rat_json, enumerate_basic_feasible, load_named, random_decomposable_2x2


def xi_of(analysis):
    return [m.xi for m in analysis.modes]


def test_example_a_exact(get_analysis):
    an = get_analysis("example_a")
    assert an.rho_star == 1
    assert xi_of(an) == [
        (F(1, 3), F(1), F(2, 3), F(0)),
        (F(1), F(1, 2), F(0), F(1, 2)),
    ]
    assert an.degenerate_modes == (False, False)
    assert an.dual.y == (F(1, 7), F(1, 14))
    assert an.dual.z == (F(3, 7), F(4, 7))
    assert all(c is ps.ActivityClass.POTENTIALLY_BASIC for c in an.classification)
    assert an.assumptions.all_pass


def test_example_b_exact(get_analysis):
    an = get_analysis("example_b")
    assert an.rho_star == 1
    assert xi_of(an) == [
        (F(0), F(7, 8), F(1), F(1, 8)),
        (F(1), F(1, 8), F(0), F(7, 8)),
    ]
    assert an.degenerate_modes == (False, False)
    assert an.dual.y == (F(1, 7), F(1, 14))
    assert an.dual.z == (F(3, 7), F(4, 7))
    assert an.assumptions.all_pass


def test_example_c_exact(get_analysis):
    an = get_analysis("example_c")
    assert an.rho_star == 1
    assert xi_of(an) == [
        (F(0), F(1), F(1), F(0)),
        (F(1), F(1, 4), F(0), F(3, 4)),
    ]
    # The first mode uses only two activities: a degenerate basis.
    assert an.degenerate_modes == (True, False)
    assert an.dual.y == (F(1, 7), F(1, 14))
    assert an.dual.z == (F(3, 7), F(4, 7))
    assert an.assumptions.all_pass


def test_example_d_dual_face(get_analysis):
    an = get_analysis("example_d")
    assert an.rho_star == 1
    assert xi_of(an) == [
        (F(1, 3), F(1), F(2, 3), F(0), F(0), F(0), F(1)),
        (F(1), F(1, 2), F(0), F(1, 2), F(0), F(0), F(1)),
    ]
    rep = an.assumptions
    assert rep.critical and rep.fully_loaded and not rep.dual_unique
    assert rep.failing_parts == (3,)
    w1, w2 = rep.dual_witnesses
    assert w1 != w2
    face = {w1, w2}
    eta_lo, eta_hi = F(3, 10), F(24, 73)
    expected = {
        ps.DualSolution(
            y=(F(1, 7) * (1 - e), F(1, 14) * (1 - e), F(1, 6) * e),
            z=(F(3, 7) * (1 - e), F(4, 7) * (1 - e), e),
        )
        for e in (eta_lo, eta_hi)
    }
    assert face == expected
    assert an.dual is None and an.q is None and an.coefficients is None


def test_example_e_exact(get_analysis):
    an = get_analysis("example_e")
    assert an.rho_star == 1
    assert xi_of(an) == [
        (F(1, 3), F(1), F(2, 3), F(0), F(0), F(0), F(1)),
        (F(1), F(1, 2), F(0), F(0), F(2, 3), F(1, 2), F(1, 3)),
        (F(1), F(1, 2), F(0), F(1, 2), F(0), F(0), F(1)),
    ]
    assert an.degenerate_modes == (True, False, True)
    assert an.dual.y == (F(1, 10), F(1, 20), F(1, 20))
    assert an.dual.z == (F(3, 10), F(4, 10), F(3, 10))
    assert all(c is ps.ActivityClass.POTENTIALLY_BASIC for c in an.classification)
    assert an.assumptions.all_pass


def test_subcritical_fails_part_one(get_instance):
    doc = json.loads(ps.dump_instance(get_instance("mm1")))
    doc["classes"][0]["lambda"] = "1/2"
    an = ps.analyze(ps.load_instance(json.dumps(doc)))
    assert an.rho_star == F(1, 2)
    assert not an.assumptions.critical
    assert an.assumptions.failing_parts == (1,)


def test_overloaded_fails_part_one(get_instance):
    doc = json.loads(ps.dump_instance(get_instance("mm1")))
    doc["classes"][0]["lambda"] = 2
    an = ps.analyze(ps.load_instance(json.dumps(doc)))
    assert an.rho_star == 2
    assert an.assumptions.failing_parts == (1,)


def split_instance() -> ps.PssInstance:
    # Two disjoint class-server pairs; the second server runs at load 1/2
    # while the first pins rho* = 1.
    doc = {
        "classes": [
            {"lambda": 2, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0},
            {"lambda": 1, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0},
        ],
        "servers": 2,
        "activities": [
            {"i": 1, "k": 1, "mu": 2, "hat_mu": 0.0, "c2_s": 1.0},
            {"i": 2, "k": 2, "mu": 2, "hat_mu": 0.0, "c2_s": 1.0},
        ],
        "gamma": 1.0,
    }
    return ps.load_instance(json.dumps(doc))


def test_partial_load_fails_part_two():
    an = ps.analyze(split_instance())
    assert an.rho_star == 1
    rep = an.assumptions
    assert rep.critical and not rep.fully_loaded
    assert 2 in rep.failing_parts
    mode_idx, server, load = rep.load_witness
    assert server == 1 and load == F(1, 2)
    # Disconnected activity graph: product form is undecidable.
    assert an.decomposition.status == "not_applicable"


def test_decomposability_a_d_e(get_analysis):
    a = get_analysis("example_a").decomposition
    assert a.status == "decomposable"
    assert a.decomposition.alpha == (F(7), F(14))
    assert a.decomposition.beta == (F(3, 7), F(4, 7))
    d = get_analysis("example_d").decomposition
    assert d.status == "not_decomposable"
    e = get_analysis("example_e").decomposition
    assert e.status == "decomposable"
    assert e.decomposition.alpha == (F(10), F(20), F(20))
    assert e.decomposition.beta == (F(3, 10), F(4, 10), F(3, 10))


def test_coefficients_a1_exact(get_analysis):
    an = get_analysis("example_a1")
    by_xi = {m.xi: an.coefficients[m.index] for m in an.modes}
    b1, s1 = by_xi[(F(1), F(1, 2), F(0), F(1, 2))]
    b2, s2 = by_xi[(F(1, 3), F(1), F(2, 3), F(0))]
    assert b1 == 0.0 and s1 == float(F(3, 7))
    assert b2 == 0.0 and s2 == float(F(15, 49))


def test_coefficients_a2_exact(get_analysis):
    an = get_analysis("example_a2")
    by_xi = {m.xi: an.coefficients[m.index] for m in an.modes}
    b1, s1 = by_xi[(F(1), F(1, 2), F(0), F(1, 2))]
    b2, s2 = by_xi[(F(1, 3), F(1), F(2, 3), F(0))]
    assert b1 == float(F(-1, 7)) and s1 == float(F(3, 7))
    assert b2 == float(F(-1, 21)) and s2 == float(F(15, 49))


def test_select_q_prefers_smallest_ratio(get_analysis):
    an = get_analysis("example_a")
    # h = (1, 1), y = (1/7, 1/14): class 1 has the smaller h/y.
    assert an.q == 0
    assert ps.select_q((2.0, 0.5), an.dual) == 1
    # Exact tie goes to the smallest class index.
    assert ps.select_q((2.0, 1.0), an.dual) == 0


# (pivots, exact LPs) that analyze makes on each shipped instance: the
# primal LP everywhere, and on example_d the 13-LP scan of its dual face.
EXACT_WORK = {
    "example_a": (24, 1),
    "example_a1": (24, 1),
    "example_a2": (24, 1),
    "example_b": (25, 1),
    "example_c": (27, 1),
    "example_d": (196, 14),
    "example_e": (55, 1),
    "mm1": (7, 1),
}


@pytest.mark.parametrize("name", NAMES)
def test_exact_work_pinned(monkeypatch, name):
    counts = {"pivot": 0, "solve_lp": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(exactlp, "_pivot", counted("pivot", exactlp._pivot))
    monkeypatch.setattr(lp, "solve_lp", counted("solve_lp", lp.solve_lp))
    ps.analyze(load_named(name))
    assert (counts["pivot"], counts["solve_lp"]) == EXACT_WORK[name]


def test_modes_agree_with_direct_lp(get_instance, get_analysis):
    # Optimizing random directions over the optimal face must always
    # land on an enumerated mode value.
    rng = np.random.default_rng(3)
    for name in ["example_a", "example_c", "example_e"]:
        inst = get_instance(name)
        an = get_analysis(name)
        mats = ps.build_matrices(inst)
        nj = inst.num_activities
        nk = inst.num_servers
        # R xi = lambda, G xi + s = 1 over (xi, s) >= 0.
        a = [list(row) + [F(0)] * nk for row in mats.r]
        a += [list(row) + [F(int(s == k)) for s in range(nk)] for k, row in enumerate(mats.g)]
        b = list(inst.lam) + [F(1)] * nk
        for _ in range(10):
            c = [F(int(rng.integers(-5, 6))) for _ in range(nj)]
            res = solve_lp(c + [F(0)] * nk, a, b)
            assert res.status is LpStatus.OPTIMAL
            best = min(sum(ci * vi for ci, vi in zip(c, m.xi)) for m in an.modes)
            assert res.value == best


def test_random_product_form_instances_pass_assumptions():
    rng = np.random.default_rng(7)
    for _ in range(12):
        inst = random_decomposable_2x2(rng)
        an = ps.analyze(inst)
        assert an.assumptions.all_pass, inst
        # A 2x2 product-form system has a segment of optima.
        assert 1 <= len(an.modes) <= 2
        assert an.decomposition.status == "decomposable"
        alpha = an.decomposition.decomposition.alpha
        assert an.dual.y == tuple(1 / a for a in alpha)
        assert all(c is ps.ActivityClass.POTENTIALLY_BASIC for c in an.classification)


def test_classification_always_nonbasic():
    # Slowing activity (2,1) to rate 1 keeps the dual of the four-activity
    # system but leaves that activity strictly priced out everywhere.
    doc = {
        "classes": [
            {"lambda": 5, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0},
            {"lambda": 4, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0},
        ],
        "servers": 2,
        "activities": [
            {"i": 1, "k": 1, "mu": 3, "hat_mu": 0.0, "c2_s": 1.0},
            {"i": 1, "k": 2, "mu": 4, "hat_mu": 0.0, "c2_s": 1.0},
            {"i": 2, "k": 1, "mu": 1, "hat_mu": 0.0, "c2_s": 1.0},
            {"i": 2, "k": 2, "mu": 8, "hat_mu": 0.0, "c2_s": 1.0},
        ],
        "gamma": 1.0,
    }
    an = ps.analyze(ps.load_instance(json.dumps(doc)))
    assert an.assumptions.all_pass
    assert an.dual.y == (F(1, 7), F(1, 14))
    assert xi_of(an) == [(F(1), F(1, 2), F(0), F(1, 2))]
    assert an.classification == (
        ps.ActivityClass.POTENTIALLY_BASIC,
        ps.ActivityClass.POTENTIALLY_BASIC,
        ps.ActivityClass.ALWAYS_NONBASIC,
        ps.ActivityClass.POTENTIALLY_BASIC,
    )


@st.composite
def small_instances(draw):
    """Random instances up to 3x3 with an allocation that loads every
    server fully: product-form rates (critical by construction) or
    generic rates (rho* <= 1)."""
    ni = draw(st.integers(1, 3))
    nk = draw(st.integers(1, 3))
    pairs = [(i, k) for i in range(ni) for k in range(nk)]
    dropped = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 2))
    acts = [p for p in pairs if p not in dropped]
    assume({i for i, _ in acts} == set(range(ni)) and {k for _, k in acts} == set(range(nk)))
    if draw(st.booleans()):
        alpha = draw(st.lists(st.integers(1, 4), min_size=ni, max_size=ni))
        beta = draw(st.lists(st.integers(1, 4), min_size=nk, max_size=nk))
        mu = [F(alpha[i] * beta[k]) for i, k in acts]
    else:
        rates = st.lists(st.integers(1, 6), min_size=len(acts), max_size=len(acts))
        mu = [F(v) for v in draw(rates)]
    weight = draw(st.lists(st.integers(0, 3), min_size=len(acts), max_size=len(acts)))
    total = [sum(w for w, (_, k) in zip(weight, acts) if k == s) for s in range(nk)]
    assume(all(total))
    lam = [F(0)] * ni
    for (i, k), m, w in zip(acts, mu, weight):
        lam[i] += m * F(w, total[k])
    assume(all(lam))
    doc = {
        "classes": [{"lambda": _rat_json(v), "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0} for v in lam],
        "servers": nk,
        "activities": [
            {"i": i + 1, "k": k + 1, "mu": _rat_json(m), "hat_mu": 0.0, "c2_s": 1.0}
            for (i, k), m in zip(acts, mu)
        ],
        "gamma": 1.0,
    }
    return ps.load_instance(json.dumps(doc))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_instances())
def test_pivot_walk_and_slackness_dual_match_exhaustive_routes(inst):
    rho, _ = ps.solve_primal(inst)
    modes = ps.enumerate_modes(inst, rho_star=rho)

    # Modes: the pivot walk against exhaustive search over column subsets.
    mats = ps.build_matrices(inst)
    nk, nj = inst.num_servers, inst.num_activities
    a = [list(row) + [F(0)] * nk for row in mats.r]
    a += [list(row) + [F(int(s == k)) for s in range(nk)] for k, row in enumerate(mats.g)]
    b = list(inst.lam) + [rho] * nk
    assert [m.xi for m in modes] == sorted({x[:nj] for x in enumerate_basic_feasible(a, b)})

    # Dual: complementary slackness against the LP scan of the face.
    face = ps.solve_dual(inst, rho_star=rho, modes=modes)
    scan = lp._scan_dual_face(inst, rho)
    assert face.unique == scan.unique
    assert face.point == scan.point
    assert face.witnesses == scan.witnesses

    # Strong duality, with the dual solved directly and y free: y = y+ - y-
    # over the columns (y+, y-, z, s) >= 0, a slack s_j per activity.
    ni = inst.num_classes
    a = [[F(0)] * (2 * ni) + [F(1)] * nk + [F(0)] * nj]
    for j, act in enumerate(inst.activities):
        row = [F(0)] * (2 * ni + nk) + [F(int(s == j)) for s in range(nj)]
        row[act.class_index - 1] = inst.mu[j]
        row[ni + act.class_index - 1] = -inst.mu[j]
        row[2 * ni + act.server_index - 1] = F(-1)
        a.append(row)
    objective = [-v for v in inst.lam] + list(inst.lam) + [F(0)] * (nk + nj)
    res = solve_lp(objective, a, [F(1)] + [F(0)] * nj)
    assert res.status is LpStatus.OPTIMAL and -res.value == rho
    for dual in (face.point,) if face.unique else face.witnesses:
        assert sum(y * v for y, v in zip(dual.y, inst.lam)) == rho
        assert all(y >= 0 for y in dual.y)
