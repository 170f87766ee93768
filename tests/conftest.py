import json
import pathlib
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import psslab as ps
from psslab.exactlp import solve_square


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Echo recorded acceptance lines past output capture.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

NAMES = [
    "example_a",
    "example_a1",
    "example_a2",
    "example_b",
    "example_c",
    "example_d",
    "example_e",
    "mm1",
]


def load_named(name: str) -> ps.PssInstance:
    return ps.load_instance((INSTANCES / f"{name}.json").read_bytes())


@pytest.fixture(scope="session")
def get_instance():
    cache = {}

    def _get(name: str) -> ps.PssInstance:
        if name not in cache:
            cache[name] = load_named(name)
        return cache[name]

    return _get


@pytest.fixture(scope="session")
def get_analysis(get_instance):
    cache = {}

    def _get(name: str) -> ps.LpAnalysis:
        if name not in cache:
            cache[name] = ps.analyze(get_instance(name))
        return cache[name]

    return _get


def _rat_json(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def random_decomposable_2x2(rng: np.random.Generator) -> ps.PssInstance:
    """Random 2-class, 2-server instance on the full activity grid with
    product-form rates and critical load; such instances satisfy all
    three structural assumptions by construction."""
    alpha = [Fraction(int(rng.integers(2, 7))) for _ in range(2)]
    d = int(rng.choice([4, 5, 8]))
    beta1 = Fraction(int(rng.integers(1, d)), d)
    beta = [beta1, 1 - beta1]
    m = int(rng.choice([3, 4, 5, 7]))
    x1 = Fraction(int(rng.integers(1, m)), m)
    share = [x1, 1 - x1]
    lam = [a * s for a, s in zip(alpha, share)]
    classes = [
        {
            "lambda": _rat_json(lam[i]),
            "hat_lambda": round(float(rng.uniform(-0.2, 0.2)), 3),
            "c2_a": float(rng.choice([0.5, 1.0, 2.0])),
            "h": round(float(rng.uniform(0.5, 2.0)), 2),
        }
        for i in range(2)
    ]
    activities = [
        {
            "i": i + 1,
            "k": k + 1,
            "mu": _rat_json(alpha[i] * beta[k]),
            "hat_mu": round(float(rng.uniform(-0.2, 0.2)), 3),
            "c2_s": float(rng.choice([0.0, 0.5, 1.0, 4.0])),
        }
        for i in range(2)
        for k in range(2)
    ]
    doc = {"classes": classes, "servers": 2, "activities": activities, "gamma": 1.0}
    return ps.load_instance(json.dumps(doc))


def enumerate_basic_feasible(a, b) -> list[tuple[Fraction, ...]]:
    """Exact oracle for vertex enumeration: all basic feasible solutions of
    a x = b, x >= 0, each reported once, in lexicographic order.

    Exhaustive over the column subsets of size rank, so only for small
    systems; requires the constraint matrix to have full row rank.
    """
    a = [[Fraction(v) for v in row] for row in a]
    b = [Fraction(v) for v in b]
    m = len(a)
    n = len(a[0]) if a else 0
    seen = set()
    for subset in combinations(range(n), m):
        sol = solve_square([[row[j] for j in subset] for row in a], b)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [Fraction(0)] * n
        for j, v in zip(subset, sol):
            x[j] = v
        seen.add(tuple(x))
    return sorted(seen)
