"""Data model for parallel server system instances.

A system has I job classes and K servers. A class-server pair (i, k) that
the server is allowed to work on is called an activity. Activities carry
the first order service rate mu plus second order data (a rate
perturbation and a squared coefficient of variation); classes carry the
arrival data and holding cost weights. First order rates lambda and mu are
exact rationals so the allocation LP layer can decide optimality,
degeneracy and dual uniqueness without tolerances; all second order data
is floating point.

Instances are stored as JSON documents:

    {
      "classes":    [{"lambda": "5", "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0}, ...],
      "servers":    2,
      "activities": [{"i": 1, "k": 1, "mu": "3", "hat_mu": 0.0, "c2_s": 4.0}, ...],
      "gamma":      1.0
    }

Class indices i and server indices k are 1-based in the document and in
the ``Activity`` records. Rationals are encoded as integers or "p/q"
strings and survive a save/load round trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction


class InstanceError(ValueError):
    """Raised when an instance document is malformed or inconsistent."""


@dataclass(frozen=True)
class Activity:
    """One class-server pair; indices are 1-based."""

    class_index: int
    server_index: int


@dataclass(frozen=True)
class MatrixPair:
    """Input-output matrix R (I x J) and incidence matrix G (K x J).

    R[i][j] is the service rate mu_j if activity j serves class i+1 and 0
    otherwise; G[k][j] is 1 if activity j runs on server k+1. Entries are
    exact rationals.
    """

    r: tuple[tuple[Fraction, ...], ...]
    g: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class PssInstance:
    """Immutable parallel server system instance.

    Per-class tuples (``lam``, ``hat_lambda``, ``c2_arrival``, ``h``) are
    indexed 0..I-1 and per-activity tuples (``mu``, ``hat_mu``,
    ``c2_service``) follow the order of ``activities``.
    """

    num_classes: int
    num_servers: int
    activities: tuple[Activity, ...]
    lam: tuple[Fraction, ...]
    hat_lambda: tuple[float, ...]
    c2_arrival: tuple[float, ...]
    h: tuple[float, ...]
    mu: tuple[Fraction, ...]
    hat_mu: tuple[float, ...]
    c2_service: tuple[float, ...]
    gamma: float

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def num_activities(self) -> int:
        return len(self.activities)

    @property
    def class_activities(self) -> tuple[tuple[int, ...], ...]:
        """Activity positions (0-based) belonging to each class."""
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for j, act in enumerate(self.activities):
            out[act.class_index - 1].append(j)
        return tuple(tuple(v) for v in out)

    @property
    def server_activities(self) -> tuple[tuple[int, ...], ...]:
        """Activity positions (0-based) running on each server."""
        out: list[list[int]] = [[] for _ in range(self.num_servers)]
        for j, act in enumerate(self.activities):
            out[act.server_index - 1].append(j)
        return tuple(tuple(v) for v in out)


def _validate(inst: PssInstance) -> None:
    ni, nk, nj = inst.num_classes, inst.num_servers, len(inst.activities)
    if ni < 1:
        raise InstanceError("classes: at least one class required")
    if nk < 1:
        raise InstanceError("servers: at least one server required")
    if nj < 1:
        raise InstanceError("activities: at least one activity required")
    for name, tup, want in (
        ("lambda", inst.lam, ni),
        ("hat_lambda", inst.hat_lambda, ni),
        ("c2_a", inst.c2_arrival, ni),
        ("h", inst.h, ni),
        ("mu", inst.mu, nj),
        ("hat_mu", inst.hat_mu, nj),
        ("c2_s", inst.c2_service, nj),
    ):
        if len(tup) != want:
            raise InstanceError(f"{name}: expected {want} entries, got {len(tup)}")
    seen: set[tuple[int, int]] = set()
    for p, act in enumerate(inst.activities):
        path = f"activities[{p}]"
        if not 1 <= act.class_index <= ni:
            raise InstanceError(f"{path}.i: class index {act.class_index} out of range 1..{ni}")
        if not 1 <= act.server_index <= nk:
            raise InstanceError(f"{path}.k: server index {act.server_index} out of range 1..{nk}")
        key = (act.class_index, act.server_index)
        if key in seen:
            raise InstanceError(f"{path}: duplicate activity {key}")
        seen.add(key)
    covered_classes = {a.class_index for a in inst.activities}
    covered_servers = {a.server_index for a in inst.activities}
    for i in range(1, ni + 1):
        if i not in covered_classes:
            raise InstanceError(f"classes[{i - 1}]: class {i} has no activity")
    for k in range(1, nk + 1):
        if k not in covered_servers:
            raise InstanceError(f"servers: server {k} has no activity")
    for i, v in enumerate(inst.lam):
        if v <= 0:
            raise InstanceError(f"classes[{i}].lambda: must be positive, got {v}")
    for j, v in enumerate(inst.mu):
        if v <= 0:
            raise InstanceError(f"activities[{j}].mu: must be positive, got {v}")
    for i, v in enumerate(inst.c2_arrival):
        if not v > 0:
            raise InstanceError(f"classes[{i}].c2_a: must be positive, got {v}")
    for j, v in enumerate(inst.c2_service):
        if not v >= 0:
            raise InstanceError(f"activities[{j}].c2_s: must be nonnegative, got {v}")
    for i, v in enumerate(inst.h):
        if not v > 0:
            raise InstanceError(f"classes[{i}].h: must be positive, got {v}")
    if not inst.gamma > 0:
        raise InstanceError(f"gamma: must be positive, got {inst.gamma}")


def _parse_rational(value: object, path: str) -> Fraction:
    if isinstance(value, bool):
        raise InstanceError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"{path}: not a valid rational string: {value!r}") from exc
    raise InstanceError(
        f"{path}: rationals must be integers or 'p/q' strings, got {type(value).__name__}"
    )


def _parse_real(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise InstanceError(f"{path}: must be finite, got {real}")
    return real


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise InstanceError(f"{path}.{key}: missing required field")
    return obj[key]


def load_instance(document: bytes | str) -> PssInstance:
    """Parse an instance from its JSON document.

    Raises InstanceError with the offending field path on malformed input.
    """
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        data = json.loads(document)
    except ValueError as exc:  # also bad UTF-8 and integers over 4300 digits
        raise InstanceError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("top level: expected a JSON object")

    classes = _require(data, "classes", "$")
    if not isinstance(classes, list) or not classes:
        raise InstanceError("classes: expected a non-empty array")
    servers = _require(data, "servers", "$")
    if isinstance(servers, bool) or not isinstance(servers, int):
        raise InstanceError("servers: expected an integer count")
    acts_raw = _require(data, "activities", "$")
    if not isinstance(acts_raw, list) or not acts_raw:
        raise InstanceError("activities: expected a non-empty array")

    lam, hat_lambda, c2_a, h = [], [], [], []
    for idx, cls in enumerate(classes):
        path = f"classes[{idx}]"
        if not isinstance(cls, dict):
            raise InstanceError(f"{path}: expected an object")
        lam.append(_parse_rational(_require(cls, "lambda", path), f"{path}.lambda"))
        hat_lambda.append(_parse_real(_require(cls, "hat_lambda", path), f"{path}.hat_lambda"))
        c2_a.append(_parse_real(_require(cls, "c2_a", path), f"{path}.c2_a"))
        h.append(_parse_real(_require(cls, "h", path), f"{path}.h"))

    activities, mu, hat_mu, c2_s = [], [], [], []
    for idx, act in enumerate(acts_raw):
        path = f"activities[{idx}]"
        if not isinstance(act, dict):
            raise InstanceError(f"{path}: expected an object")
        i = _require(act, "i", path)
        k = _require(act, "k", path)
        if isinstance(i, bool) or not isinstance(i, int):
            raise InstanceError(f"{path}.i: expected an integer")
        if isinstance(k, bool) or not isinstance(k, int):
            raise InstanceError(f"{path}.k: expected an integer")
        activities.append(Activity(i, k))
        mu.append(_parse_rational(_require(act, "mu", path), f"{path}.mu"))
        hat_mu.append(_parse_real(_require(act, "hat_mu", path), f"{path}.hat_mu"))
        c2_s.append(_parse_real(_require(act, "c2_s", path), f"{path}.c2_s"))

    gamma = _parse_real(_require(data, "gamma", "$"), "$.gamma")
    return PssInstance(
        num_classes=len(classes),
        num_servers=servers,
        activities=tuple(activities),
        lam=tuple(lam),
        hat_lambda=tuple(hat_lambda),
        c2_arrival=tuple(c2_a),
        h=tuple(h),
        mu=tuple(mu),
        hat_mu=tuple(hat_mu),
        c2_service=tuple(c2_s),
        gamma=gamma,
    )


def _rational_json(value: Fraction) -> object:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def dump_instance(inst: PssInstance) -> bytes:
    """Serialize an instance; load_instance(dump_instance(x)) == x."""
    doc = {
        "classes": [
            {
                "lambda": _rational_json(inst.lam[i]),
                "hat_lambda": inst.hat_lambda[i],
                "c2_a": inst.c2_arrival[i],
                "h": inst.h[i],
            }
            for i in range(inst.num_classes)
        ],
        "servers": inst.num_servers,
        "activities": [
            {
                "i": act.class_index,
                "k": act.server_index,
                "mu": _rational_json(inst.mu[j]),
                "hat_mu": inst.hat_mu[j],
                "c2_s": inst.c2_service[j],
            }
            for j, act in enumerate(inst.activities)
        ],
        "gamma": inst.gamma,
    }
    return json.dumps(doc, indent=2).encode("utf-8")


def build_matrices(inst: PssInstance) -> MatrixPair:
    """Assemble the exact rational matrices R and G from the activity list."""
    zero = Fraction(0)
    r = [[zero] * inst.num_activities for _ in range(inst.num_classes)]
    g = [[zero] * inst.num_activities for _ in range(inst.num_servers)]
    for j, act in enumerate(inst.activities):
        r[act.class_index - 1][j] = inst.mu[j]
        g[act.server_index - 1][j] = Fraction(1)
    return MatrixPair(
        r=tuple(tuple(row) for row in r),
        g=tuple(tuple(row) for row in g),
    )
