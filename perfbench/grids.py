"""Seeded synthetic instances for the lp-grid workload.

Every grid is critically loaded by construction (rho* = 1) with a unique
dual, so ``analyze`` takes its full all-pass path. The seed shuffles
fixed sets of small integers (rate factors, per-server effort weights)
rather than drawing them, so the sizes of the exact rationals, and with
them the run time, vary little from seed to seed while the instances
differ.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def _rational(v: Fraction):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _document(ni: int, nk: int, mu: dict, lam: list) -> dict:
    return {
        "classes": [
            {"lambda": _rational(lam[i]), "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0 + 0.5 * i}
            for i in range(ni)
        ],
        "servers": nk,
        "activities": [
            {"i": i + 1, "k": k + 1, "mu": _rational(mu[i, k]), "hat_mu": 0.0, "c2_s": 1.0}
            for i in range(ni)
            for k in range(nk)
        ],
        "gamma": 1.0,
    }


def _shuffled(rng: random.Random, values) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


def _critical_lambda(rng, ni, nk, mu, basic) -> list:
    """lambda = R xi for an allocation xi that loads every server fully
    and is positive exactly on the basic activities."""
    lam = [Fraction(0)] * ni
    for k in range(nk):
        users = [i for i in range(ni) if (i, k) in basic]
        weights = _shuffled(rng, range(1, len(users) + 1))
        total = sum(weights)
        for i, w in zip(users, weights):
            lam[i] += mu[i, k] * Fraction(w, total)
    return lam


def _product_rates(rng: random.Random, ni: int, nk: int) -> dict:
    alpha = _shuffled(rng, range(1, ni + 1))
    beta = _shuffled(rng, range(1, nk + 1))
    return {(i, k): Fraction(alpha[i] * beta[k]) for i in range(ni) for k in range(nk)}


def product_form_grid(rng: random.Random, ni: int, nk: int) -> dict:
    """mu[i,k] = alpha_i beta_k on the complete class-server graph."""
    mu = _product_rates(rng, ni, nk)
    basic = set(mu)
    return _document(ni, nk, mu, _critical_lambda(rng, ni, nk, mu, basic))


def generic_grid(rng: random.Random, ni: int, nk: int) -> dict:
    """Product form on a connected basic set; the other activities run
    strictly slower than the dual prices allow, so they are always
    nonbasic and the rates have no product form. Two activities are slow."""
    mu = _product_rates(rng, ni, nk)
    while True:
        slow = set(rng.sample(sorted(mu), 2))
        basic = set(mu) - slow
        if _connected(ni, nk, basic):
            break
    for i, k in slow:
        mu[i, k] *= Fraction(rng.choice((1, 2, 3)), 4)
    return _document(ni, nk, mu, _critical_lambda(rng, ni, nk, mu, basic))


def _connected(ni: int, nk: int, edges: set) -> bool:
    reached = {("c", 0)}
    frontier = [("c", 0)]
    while frontier:
        side, idx = frontier.pop()
        for i, k in edges:
            if side == "c" and i == idx:
                nxt = ("s", k)
            elif side == "s" and k == idx:
                nxt = ("c", i)
            else:
                continue
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return len(reached) == ni + nk


def lp_grid_instances(seed: int) -> dict[str, bytes]:
    """The lp-grid inputs for one seed: name -> instance document."""
    rng = random.Random(seed)
    docs = {
        "product-3x3": product_form_grid(rng, 3, 3),
        "product-4x3": product_form_grid(rng, 4, 3),
        "product-3x4": product_form_grid(rng, 3, 4),
        "generic-3x3": generic_grid(rng, 3, 3),
    }
    return {name: json.dumps(doc, indent=2).encode() for name, doc in docs.items()}
