"""Static allocation analysis for parallel server systems.

The first order planning problem assigns to each activity j = (i, k) a
long-run effort fraction xi_j:

    minimize rho  subject to  R xi = lambda,  G xi <= rho 1,  xi >= 0.

A system is critically loaded when rho* = 1. Its dual,

    maximize y.lambda  subject to  sum_k z_k = 1,  y_i mu_j <= z_k
    for every activity j = (i, k),  z >= 0,

prices classes (y) and servers (z). The heavy traffic analysis rests on
three structural conditions, validated here exactly:

  1. critical load: rho* = 1;
  2. full server load: every optimal allocation works every server at
     rate exactly 1;
  3. a unique dual optimum (y*, z*).

Under these, the optimal allocations form a bounded polytope whose
extreme points are the "modes". Activities split into potentially basic
(y*_i mu_j = z_k, used by some optimal allocation) and always nonbasic
(y*_i mu_j < z_k, never used). Each mode induces the drift and variance
coefficients of the one-dimensional workload diffusion; the workload
direction is y* and the effective holding cost is driven by the class q
minimizing h_i / y*_i.

``analyze`` is one pass: the primal LP once, then the modes by a pivot
walk over the feasible bases of the optimal face, then the dual read off
complementary slackness with the modes (an LP scan of the dual face only
when that leaves it more than one point). The assumption report, the
classification and the coefficients are derived from these results.
All first order computations are exact over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactlp import LpStatus, eliminate, enumerate_vertices, solve_lp
from .model import MatrixPair, PssInstance, build_matrices

ZERO = Fraction(0)
ONE = Fraction(1)


class AnalysisError(RuntimeError):
    """Internal inconsistency between exact routes; indicates a bug."""


class AssumptionError(RuntimeError):
    """An operation requiring the structural assumptions was invoked on an
    instance that fails them."""

    def __init__(self, message: str, failing_parts: tuple[int, ...] = ()):
        super().__init__(message)
        self.failing_parts = failing_parts


class ActivityClass(Enum):
    POTENTIALLY_BASIC = "potentially_basic"
    ALWAYS_NONBASIC = "always_nonbasic"


@dataclass(frozen=True)
class Mode:
    """Extreme point of the optimal allocation polytope."""

    index: int
    xi: tuple[Fraction, ...]
    degenerate: bool


@dataclass(frozen=True)
class DualSolution:
    y: tuple[Fraction, ...]
    z: tuple[Fraction, ...]


@dataclass(frozen=True)
class DualFace:
    """The dual optimal face: the single point ``point`` when it is
    unique; otherwise ``witnesses`` carries two distinct dual optima, the
    minimizer and maximizer of the first coordinate of y_1..y_I,
    z_1..z_K that the face does not fix.
    """

    unique: bool
    point: DualSolution | None
    witnesses: tuple[DualSolution, DualSolution] | None


@dataclass(frozen=True)
class AssumptionReport:
    rho_star: Fraction
    critical: bool
    fully_loaded: bool
    dual_unique: bool
    load_witness: tuple[int, int, Fraction] | None
    dual_witnesses: tuple[DualSolution, DualSolution] | None

    @property
    def all_pass(self) -> bool:
        return self.critical and self.fully_loaded and self.dual_unique

    @property
    def failing_parts(self) -> tuple[int, ...]:
        parts = []
        if not self.critical:
            parts.append(1)
        if not self.fully_loaded:
            parts.append(2)
        if not self.dual_unique:
            parts.append(3)
        return tuple(parts)


@dataclass(frozen=True)
class Decomposition:
    """Service rates factor as mu_(i,k) = alpha_i beta_k with sum beta = 1."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]


@dataclass(frozen=True)
class DecompositionReport:
    status: str  # "decomposable" | "not_decomposable" | "not_applicable"
    decomposition: Decomposition | None
    detail: str


@dataclass(frozen=True)
class LpAnalysis:
    """Full exact analysis of an instance.

    ``dual``, ``classification``, ``q`` and ``coefficients`` are None when
    the corresponding assumption fails (there is then no unique dual to
    classify against). Mode indices are 0-based positions in the
    lexicographically sorted mode list.
    """

    instance: PssInstance
    rho_star: Fraction
    modes: tuple[Mode, ...]
    dual: DualSolution | None
    classification: tuple[ActivityClass, ...] | None
    assumptions: AssumptionReport
    q: int | None
    coefficients: tuple[tuple[float, float], ...] | None
    decomposition: DecompositionReport

    @property
    def degenerate_modes(self) -> tuple[bool, ...]:
        return tuple(m.degenerate for m in self.modes)


def solve_primal(inst: PssInstance) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum (rho*, xi*) of the allocation LP, solved over
    (xi, rho, s) >= 0 with a slack s_k per server:
    [R 0 0; G -1 I] (xi, rho, s) = (lambda, 0)."""
    mats = build_matrices(inst)
    nj, nk = inst.num_activities, inst.num_servers
    a = [list(row) + [ZERO] * (1 + nk) for row in mats.r]
    a += [list(row) + [-ONE] + _unit(k, nk) for k, row in enumerate(mats.g)]
    c = [ZERO] * nj + [ONE] + [ZERO] * nk
    res = solve_lp(c, a, list(inst.lam) + [ZERO] * nk)
    if res.status is not LpStatus.OPTIMAL:
        raise AnalysisError(f"allocation LP is {res.status.value}; instance invariants violated")
    return res.value, res.x[:nj]


def _unit(k: int, n: int) -> list[Fraction]:
    """The k-th unit row of length n."""
    return [ONE if s == k else ZERO for s in range(n)]


def _dual_constraints(inst: PssInstance) -> tuple[list, list]:
    """The dual's constraints in standard form over (y, z, s) >= 0, with a
    slack s_j per activity: sum_k z_k = 1, and y_i mu_j - z_k + s_j = 0
    for every activity j = (i, k).

    The dual leaves y free, but every dual optimum has y >= 0: raising a
    negative y_i to 0 keeps y_i mu_j <= z_k, as z >= 0, and raises
    y.lambda, as lambda_i > 0. So y >= 0 changes neither the dual optimum
    nor the dual optimal face.
    """
    ni, nk, nj = inst.num_classes, inst.num_servers, inst.num_activities
    a = [[ZERO] * ni + [ONE] * nk + [ZERO] * nj]
    for j, act in enumerate(inst.activities):
        row = [ZERO] * (ni + nk) + _unit(j, nj)
        row[act.class_index - 1] = inst.mu[j]
        row[ni + act.server_index - 1] = -ONE
        a.append(row)
    return a, [ONE] + [ZERO] * nj


def solve_dual(inst: PssInstance, rho_star: Fraction, modes: tuple[Mode, ...]) -> DualFace:
    """Describe the dual optimal face exactly, given the modes.

    Every dual optimum is complementary to every optimal allocation:
    y_i mu_j = z_k on each activity j = (i, k) some mode uses, and z_k = 0
    on each server some mode leaves below rho*. By strict complementarity
    (Goldman and Tucker, 1956) these equalities together with
    sum_k z_k = 1 cut out the affine hull of the dual optimal face, so the
    dual optimum is unique exactly when they have full rank I + K. Their
    solution is then checked for feasibility and for y.lambda = rho*. Only
    a lower rank runs the coordinate scan of the face, whose extremes are
    the reported witnesses.
    """
    ni, nk = inst.num_classes, inst.num_servers
    n = ni + nk
    used = _used_activities(modes)
    slack = {
        k for m in modes for k, load in enumerate(_server_loads(inst, m.xi)) if load != rho_star
    }
    rows = [[ZERO] * ni + [ONE] * nk + [ONE]]
    for j, act in enumerate(inst.activities):
        if j in used:
            row = [ZERO] * (n + 1)
            row[act.class_index - 1] = inst.mu[j]
            row[ni + act.server_index - 1] = -ONE
            rows.append(row)
    for k in sorted(slack):
        row = [ZERO] * (n + 1)
        row[ni + k] = ONE
        rows.append(row)
    reduced, pivots = eliminate(rows)
    if n in pivots:
        raise AnalysisError("complementary slackness admits no dual point")
    if len(pivots) < n:
        face = _scan_dual_face(inst, rho_star)
        if face.unique:
            raise AnalysisError("dual face scan disagrees with the rank of complementary slackness")
        return face
    flat = [row[n] for row in reduced]
    point = DualSolution(y=tuple(flat[:ni]), z=tuple(flat[ni:]))
    feasible = all(v >= 0 for v in point.z) and all(
        point.y[act.class_index - 1] * inst.mu[j] <= point.z[act.server_index - 1]
        for j, act in enumerate(inst.activities)
    )
    if not feasible:
        raise AnalysisError("complementary slackness point is not dual feasible")
    if sum((y * lam for y, lam in zip(point.y, inst.lam)), ZERO) != rho_star:
        raise AnalysisError("dual optimum does not match the primal optimum")
    return DualFace(unique=True, point=point, witnesses=None)


def _scan_dual_face(inst: PssInstance, rho_star: Fraction) -> DualFace:
    """Coordinate ranges of the dual optimal face by exact LPs.

    Each of y_1..y_I, z_1..z_K is minimized and maximized over the face
    {dual feasible, y.lambda = rho*}, after one LP that confirms the dual
    optimum: 2(I+K)+1 small exact LPs in total, all over the standard form
    of `_dual_constraints`.
    """
    ni, nk, nj = inst.num_classes, inst.num_servers, inst.num_activities
    n = ni + nk
    a, b = _dual_constraints(inst)
    value = list(inst.lam) + [ZERO] * (nk + nj)  # y.lambda as a row over (y, z, s)
    base = solve_lp([-v for v in value], a, b)
    if base.status is not LpStatus.OPTIMAL or -base.value != rho_star:
        raise AnalysisError("dual optimum does not match the primal optimum")

    face_a, face_b = a + [value], b + [rho_star]
    ranges: list[tuple[Fraction, Fraction]] = []
    witnesses: tuple[DualSolution, DualSolution] | None = None
    for coord in range(n):
        c = _unit(coord, n + nj)
        lo = solve_lp(c, face_a, face_b)
        hi = solve_lp([-v for v in c], face_a, face_b)
        if lo.status is not LpStatus.OPTIMAL or hi.status is not LpStatus.OPTIMAL:
            raise AnalysisError("dual face scan failed; face should be a bounded polytope")
        ranges.append((lo.value, -hi.value))
        if witnesses is None and lo.value != -hi.value:
            witnesses = (
                DualSolution(y=lo.x[:ni], z=lo.x[ni:n]),
                DualSolution(y=hi.x[:ni], z=hi.x[ni:n]),
            )
    unique = witnesses is None
    point = None
    if unique:
        flat = [r[0] for r in ranges]
        point = DualSolution(y=tuple(flat[:ni]), z=tuple(flat[ni:]))
    return DualFace(unique=unique, point=point, witnesses=witnesses)


def _used_activities(modes: tuple[Mode, ...]) -> set[int]:
    """Union of the mode supports."""
    return {j for mode in modes for j, v in enumerate(mode.xi) if v != 0}


def _server_loads(inst: PssInstance, xi: tuple[Fraction, ...]) -> list[Fraction]:
    """G xi: the effort each server spends under the allocation xi."""
    loads = [ZERO] * inst.num_servers
    for j, act in enumerate(inst.activities):
        loads[act.server_index - 1] += xi[j]
    return loads


def enumerate_modes(inst: PssInstance, rho_star: Fraction) -> tuple[Mode, ...]:
    """Extreme points of {xi >= 0 : R xi = lambda, G xi <= rho* 1}.

    Enumerated exactly by a pivot walk over the feasible bases of the
    slack-extended equality system [R 0; G I] x = (lambda, rho* 1). The
    slacks are determined by xi, so its vertices are the modes, already
    distinct and in lexicographic order; each is checked to be a vertex.
    A mode is flagged degenerate when its support has fewer than
    I + K - 1 activities, i.e. a basic variable vanishes once all server
    constraints bind.
    """
    mats = build_matrices(inst)
    ni, nk, nj = inst.num_classes, inst.num_servers, inst.num_activities
    a = [list(row) + [ZERO] * nk for row in mats.r]
    a += [list(row) + _unit(k, nk) for k, row in enumerate(mats.g)]
    b = list(inst.lam) + [rho_star] * nk
    modes = []
    for x in enumerate_vertices(a, b):
        xi = x[:nj]
        _verify_vertex(inst, mats, xi, rho_star)
        support = sum(1 for v in xi if v != 0)
        modes.append(Mode(index=len(modes), xi=xi, degenerate=support < ni + nk - 1))
    return tuple(modes)


def _verify_vertex(
    inst: PssInstance, mats: MatrixPair, xi: tuple[Fraction, ...], rho_star: Fraction
) -> None:
    """Check feasibility and the vertex rank condition; exact, no tolerances."""
    for i, row in enumerate(mats.r):
        if sum(c * v for c, v in zip(row, xi)) != inst.lam[i]:
            raise AnalysisError("mode fails R xi = lambda")
    binding = []
    for row in mats.g:
        load = sum(c * v for c, v in zip(row, xi))
        if load > rho_star:
            raise AnalysisError("mode exceeds server capacity")
        if load == rho_star:
            binding.append(row)
    support = [j for j, v in enumerate(xi) if v != 0]
    stacked = [[row[j] for j in support] for row in list(mats.r) + binding]
    if len(eliminate(stacked)[1]) != len(support):
        raise AnalysisError("enumerated point is not a vertex")


def classify_activities(
    inst: PssInstance,
    dual: DualSolution,
    modes: tuple[Mode, ...],
) -> tuple[ActivityClass, ...]:
    """Split activities by the exact dual comparison y*_i mu_j vs z*_k.

    Cross-checked against the union of mode supports: the potentially
    basic set must be exactly the set of activities used by some mode.
    A mismatch means one of the exact routes is broken, so it aborts.
    """
    out = []
    for j, act in enumerate(inst.activities):
        lhs = dual.y[act.class_index - 1] * inst.mu[j]
        rhs = dual.z[act.server_index - 1]
        if lhs > rhs:
            raise AnalysisError("dual point violates feasibility y_i mu_j <= z_k")
        out.append(
            ActivityClass.POTENTIALLY_BASIC if lhs == rhs else ActivityClass.ALWAYS_NONBASIC
        )
    used = _used_activities(modes)
    claimed = {j for j, c in enumerate(out) if c is ActivityClass.POTENTIALLY_BASIC}
    if used != claimed:
        raise AnalysisError(
            f"activity classification mismatch: dual comparison gives {sorted(claimed)}, "
            f"mode supports give {sorted(used)}"
        )
    return tuple(out)


def validate_assumptions(inst: PssInstance) -> AssumptionReport:
    """Exact pass/fail for the three structural conditions, with witnesses;
    the assumption report of ``analyze``."""
    return analyze(inst).assumptions


def _assumption_report(
    inst: PssInstance, rho_star: Fraction, modes: tuple[Mode, ...], face: DualFace
) -> AssumptionReport:
    load_witness = next(
        (
            (mode.index, k, load)
            for mode in modes
            for k, load in enumerate(_server_loads(inst, mode.xi))
            if load != rho_star
        ),
        None,
    )
    return AssumptionReport(
        rho_star=rho_star,
        critical=rho_star == ONE,
        fully_loaded=load_witness is None,
        dual_unique=face.unique,
        load_witness=load_witness,
        dual_witnesses=face.witnesses,
    )


def check_decomposable(inst: PssInstance) -> DecompositionReport:
    """Look for a factorization mu_(i,k) = alpha_i beta_k, sum beta = 1.

    The factorization is propagated over the bipartite activity graph and
    checked on every present activity. When the graph is connected the
    normalization sum_k beta_k = 1 pins (alpha, beta) down uniquely; a
    disconnected graph leaves free scalings, which is reported as not
    applicable rather than guessed.
    """
    ni, nk = inst.num_classes, inst.num_servers
    mu_of: dict[tuple[int, int], Fraction] = {}
    for j, act in enumerate(inst.activities):
        mu_of[(act.class_index - 1, act.server_index - 1)] = inst.mu[j]

    alpha_t: list[Fraction | None] = [None] * ni
    beta_t: list[Fraction | None] = [None] * nk
    beta_t[inst.activities[0].server_index - 1] = ONE
    changed = True
    while changed:
        changed = False
        for (i, k), mu in mu_of.items():
            if beta_t[k] is not None and alpha_t[i] is None:
                alpha_t[i] = mu / beta_t[k]
                changed = True
            elif alpha_t[i] is not None and beta_t[k] is None:
                beta_t[k] = mu / alpha_t[i]
                changed = True
    if any(v is None for v in alpha_t) or any(v is None for v in beta_t):
        return DecompositionReport(
            status="not_applicable",
            decomposition=None,
            detail="activity graph is disconnected; factor scalings are not determined",
        )
    for (i, k), mu in mu_of.items():
        if alpha_t[i] * beta_t[k] != mu:
            return DecompositionReport(
                status="not_decomposable",
                decomposition=None,
                detail=f"rate of activity ({i + 1},{k + 1}) is inconsistent with a product form",
            )
    total = sum(beta_t, ZERO)
    beta = tuple(v / total for v in beta_t)
    alpha = tuple(v * total for v in alpha_t)
    return DecompositionReport(
        status="decomposable",
        decomposition=Decomposition(alpha=alpha, beta=beta),
        detail="",
    )


def mode_coefficients(
    inst: PssInstance, mode: Mode, dual: DualSolution
) -> tuple[float, float]:
    """Workload drift b_m and variance sigma^2_m of a mode.

    b_m      = sum_i y*_i (hat_lambda_i - sum_{j in J_i} hat_mu_j xi_j)
    sigma2_m = sum_i y*_i^2 (lambda_i C2_A_i + sum_{j in J_i} mu_j C2_S_j xi_j)

    Evaluated in exact rational arithmetic (floats promoted exactly), then
    rounded once to float.
    """
    b = ZERO
    s2 = ZERO
    for i in range(inst.num_classes):
        y = dual.y[i]
        b += y * (Fraction(inst.hat_lambda[i]))
        s2 += y * y * inst.lam[i] * Fraction(inst.c2_arrival[i])
    for j, act in enumerate(inst.activities):
        y = dual.y[act.class_index - 1]
        b -= y * Fraction(inst.hat_mu[j]) * mode.xi[j]
        s2 += y * y * inst.mu[j] * Fraction(inst.c2_service[j]) * mode.xi[j]
    return float(b), float(s2)


def select_q(h: tuple[float, ...], dual: DualSolution) -> int:
    """Class index (0-based) minimizing h_i / y*_i; ties to the smallest."""
    best = None
    best_i = -1
    for i, (hi, yi) in enumerate(zip(h, dual.y)):
        if yi <= 0:
            raise AnalysisError("dual class prices must be positive under the assumptions")
        ratio = Fraction(hi) / yi
        if best is None or ratio < best:
            best = ratio
            best_i = i
    return best_i


def analyze(inst: PssInstance) -> LpAnalysis:
    """Run the full exact pipeline; partial results when assumptions fail.

    One pass: the primal optimum, the modes and the dual face are each
    computed once, and the assumption report, the classification and the
    coefficients are read off them.
    """
    rho_star, _ = solve_primal(inst)
    modes = enumerate_modes(inst, rho_star=rho_star)
    face = solve_dual(inst, rho_star=rho_star, modes=modes)
    report = _assumption_report(inst, rho_star, modes, face)
    decomposition = check_decomposable(inst)
    classification = None
    q = None
    coefficients = None
    if report.all_pass:
        classification = classify_activities(inst, face.point, modes=modes)
        q = select_q(inst.h, face.point)
        coefficients = tuple(mode_coefficients(inst, mode, face.point) for mode in modes)
    return LpAnalysis(
        instance=inst,
        rho_star=rho_star,
        modes=modes,
        dual=face.point,
        classification=classification,
        assumptions=report,
        q=q,
        coefficients=coefficients,
        decomposition=decomposition,
    )
