"""Event-driven simulation of the prelimit parallel server system.

The n-th system accelerates first order rates by n and adds the square
root perturbations: arrival rates lambda^n_i = n lambda_i + sqrt(n)
hat_lambda_i, potential service rates mu^n_j = n mu_j + sqrt(n)
hat_mu_j. Arrivals per class and potential services per activity are
independent renewal processes with mean-1 base draws scaled by the rate;
the service clock of activity j advances only while effort is allocated
to it, at the allocated fraction (head-of-line effort splitting with
preemptive resume, so a frozen clock keeps its progress). Queue lengths
are exact integer counts; between events all continuous quantities are
linear, so traces record event instants only and every integral below is
evaluated piecewise exactly. The next event time is the top of a binary
heap of the clock's times (the horizon, the arrivals, the service
completions), and the event is the lowest clock index at that time, so
equal times resolve to the horizon first, then arrivals, then
completions. An arrival or a completion moves only its own entry; the
allocation is looked up only when the backlog mask or the selector
interval moves, and where it changes the moved completion times are
rewritten and the heap is rebuilt (see _simulate).

A recorded run keeps an event log, not rows: each row's time and event,
the effort b0 of each completing activity, and at each allocation change
its row, the allocation and every b0 and t0, all in flat arrays. The
trace columns are rebuilt from it with numpy, in
blocks of event rows: counts as running sums over the events, the
allocation filled forward from its changes, and busy as b0 + alloc (t -
t0) from each activity's last re-base, the event loop's own arithmetic,
so the columns are those the loop would have written row by row. Each
block after the first starts at the last row of the one before, and only
the state at the row before a block crosses into it: the running counts
and each activity's last re-base.

Scaled (diffusion regime) series derived from a trace:

    Xhat = X / sqrt(n)                 W = y*.Xhat       H = h.Xhat
    Ihat_k = sqrt(n) (t - sum_{j on k} T_j)              L = z*.Ihat
    F = sum_i y*_i [ (A_i - n lambda_i t)
                     - sum_{j in J_i} (D_j - n mu_j T_j) ] / sqrt(n)
    Lan = sqrt(n) sum_{j=(i,k) always nonbasic} (z*_k - y*_i mu_j) T_j

These satisfy W = F + L + Lan identically (it is an algebraic
consequence of y*.lambda = 1, sum z* = 1 and y*_i mu_j = z*_k on the
potentially basic activities), so the residual of that identity is a
pure floating point check on the simulator and is verified on every
scaled computation.

The series live on a grid of 2E - 1 rows for E event rows: row 2k is
event k and row 2k - 1 the left limit at event k. Between events only t
and the cumulative efforts T move, so a left limit takes every count (A,
D, X) from event k - 1's row and t and T from its own row. Each series
is computed once per event row and split by that rule: Xhat, W, H and
F's count part sum_i y*_i (A_i - sum_{j in J_i} D_j) / sqrt(n) hold the
previous row; t, Ihat, L, Lan and F's part sqrt(n) (sum_j y*_i(j) mu_j
T_j - t y*.lambda) take their own.

The weighted sums behind the series run over the short axis (activities,
classes or servers) as elementwise numpy operations, so the layer makes no
BLAS call and leaves no BLAS thread spinning.

The trace inequality checks cover the workload-cost comparison, the
reflection lower bound through the Skorokhod map, and state/idleness
monotonicity.

Every series is elementwise in the event rows, and the identity and the
checks are max and min reductions, with the Skorokhod map's running
maximum carried from one block to the next. So check_scaled streams a
recorded run (record_qcp) through the series and checks _BLOCK event rows
at a time, holding the event log plus one block, and its results equal
compute_scaled and check_trace_inequalities on run_qcp's trace bit for
bit: those three are the same block code run on the whole trace as one
block.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heapreplace
from itertools import chain, product, repeat
from operator import mul
from typing import NamedTuple

import numpy as np

from .hjb import HjbSolution, ModePolicy, compute_v0
from .lp import ActivityClass, AssumptionError, LpAnalysis
from .model import PssInstance
from .wcp import McEstimate, default_horizon, skorokhod_map


class SimulatorInvariantError(RuntimeError):
    """An exact identity failed beyond rounding noise; simulator bug."""


class MinimumNError(ValueError):
    """Perturbed rates are not positive at this n."""

    def __init__(self, message: str, min_n: int):
        super().__init__(message)
        self.min_n = min_n


def renewal_stream(scv: float, rate: float, rng: np.random.Generator):
    """Iterator of interarrival increments with mean 1/rate and squared
    coefficient of variation scv: gamma draws from rng in blocks of 512,
    or the constant 1/rate when scv is 0."""
    if scv < 0:
        raise ValueError("scv must be nonnegative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if scv == 0:
        return repeat(1.0 / rate)
    shape, scale = 1.0 / scv, scv / rate
    # Python floats keep the event loop off numpy's slow scalar path.
    return chain.from_iterable(rng.gamma(shape, scale, 512).tolist() for _ in repeat(None))


@dataclass(frozen=True)
class PolicySpec:
    """A prelimit control: a mode selector plus one allocation rule per
    selector interval.

    ``selector`` maps the scaled workload y*.X / sqrt(n) to an interval of
    its piecewise constant ModePolicy, and so to a mode. ``rules[p]`` turns
    interval p's mode into an allocation at the current backlog:

      "xi"    the mode's effort, masked to backlogged classes;
      "wc"    as "xi", then each server spreads its masked-off effort over
              its backlogged activities in proportion to the mode (evenly
              when the mode puts no weight on them);
      orders  one activity tuple per server; each server serves its first
              backlogged activity at full rate, whatever the mode.

    ``label`` names the policy in reports. The constructors give the
    shipped policies: static_mode and server_priority have a constant
    selector, workload_threshold the HJB one.
    """

    selector: ModePolicy
    rules: tuple[str | tuple[tuple[int, ...], ...], ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.rules) != len(self.selector.modes):
            raise ValueError(
                f"need one rule per selector interval: {len(self.selector.modes)}, "
                f"not {len(self.rules)}"
            )
        for rule in self.rules:
            if rule not in ("xi", "wc") and not isinstance(rule, tuple):
                raise ValueError(f"unknown allocation rule {rule!r}; use 'xi', 'wc' or orders")

    @classmethod
    def static_mode(cls, mode: int, work_conserving: bool = False) -> "PolicySpec":
        rule, tag = ("wc", ":wc") if work_conserving else ("xi", "")
        return cls(ModePolicy.constant(mode), (rule,), f"static:{mode}{tag}")

    @classmethod
    def workload_threshold(cls, policy: ModePolicy, work_conserving: bool = False) -> "PolicySpec":
        rule, tag = ("wc", ":wc") if work_conserving else ("xi", "")
        return cls(policy, (rule,) * len(policy.modes), f"threshold{tag}")

    @classmethod
    def server_priority(cls, priorities: tuple[tuple[int, ...], ...]) -> "PolicySpec":
        orders = tuple(tuple(p) for p in priorities)
        return cls(ModePolicy.constant(0), (orders,), "priority")


@dataclass(frozen=True)
class QcpRun:
    """One replication: the instance, n, policy, horizon and streams that
    key it, its discounted holding cost and the scaled holding cost h.Xhat
    at the horizon. A recorded run, a trace or an event log, is one, and so
    can stand for replication 0 of an estimate (estimate_qcp_cost's rep0)."""

    inst: PssInstance
    n: int
    policy: PolicySpec
    horizon: float
    seed: int
    rep: int
    cost: float
    h_horizon: float


@dataclass(frozen=True)
class QcpTrace(QcpRun):
    """Event-indexed record of one run; row 0 is the empty initial state
    and the last row sits exactly at the horizon."""

    times: np.ndarray  # (E,)
    x: np.ndarray  # (E, I) queue lengths
    arrivals: np.ndarray  # (E, I)
    departures: np.ndarray  # (E, J)
    busy: np.ndarray  # (E, J) cumulative allocated effort T_j
    alloc: np.ndarray  # (E, J) allocation in force until the next row


@dataclass(frozen=True)
class QcpLog(QcpRun):
    """One run's event log, the seven flat arrays _simulate records;
    check_scaled streams it through the scaled series and the checks."""

    log: tuple

    @property
    def rows(self) -> int:
        return len(self.log[0])


class _Grid(NamedTuple):
    """Scaled series of a run of event rows on their grid (see the module
    docstring)."""

    times: np.ndarray
    x_hat: np.ndarray
    i_hat: np.ndarray
    w: np.ndarray
    f: np.ndarray
    l: np.ndarray
    l_an: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class ScaledSeries:
    """Diffusion-scaled series on the 2E - 1 row grid of left limits and
    post-event values (see the module docstring)."""

    times: np.ndarray
    x_hat: np.ndarray
    i_hat: np.ndarray
    w: np.ndarray
    f: np.ndarray
    l: np.ndarray
    l_an: np.ndarray
    h: np.ndarray
    scale: float
    identity_residual: float


@dataclass(frozen=True)
class TraceChecks:
    """Max violations, relative to the series scale."""

    cost_vs_workload: float
    cost_equality_on_axis: float
    reflection: float
    state_nonneg: float
    idleness_monotone: float

    @property
    def max_relative_violation(self) -> float:
        return max(
            self.cost_vs_workload,
            self.cost_equality_on_axis,
            self.reflection,
            self.state_nonneg,
            self.idleness_monotone,
        )


def effective_rates(inst: PssInstance, n: int) -> tuple[list[float], list[float]]:
    """lambda^n and mu^n; raises MinimumNError if any is nonpositive."""
    rt = math.sqrt(n)
    lam_n = [n * float(v) + rt * hv for v, hv in zip(inst.lam, inst.hat_lambda)]
    mu_n = [n * float(v) + rt * hv for v, hv in zip(inst.mu, inst.hat_mu)]
    if min(lam_n) > 0 and min(mu_n) > 0:
        return lam_n, mu_n
    min_n = 1
    for v, hv in list(zip(inst.lam, inst.hat_lambda)) + list(zip(inst.mu, inst.hat_mu)):
        if hv < 0:
            min_n = max(min_n, int((hv / float(v)) ** 2) + 1)
    raise MinimumNError(
        f"perturbed rates are nonpositive at n={n}; smallest admissible n is {min_n}",
        min_n,
    )


def allocate(rule, xi, x, inst: PssInstance) -> tuple[float, ...]:
    """Allocation under one rule of a PolicySpec at queue lengths x; xi is
    the mode's effort as floats (an orders rule ignores it). Admissible by
    construction: effort only on backlogged classes, per-server totals at
    most 1."""
    cls_of = [a.class_index - 1 for a in inst.activities]
    out = [0.0] * len(cls_of)
    if isinstance(rule, tuple):
        for order in rule:
            for j in order:
                if x[cls_of[j]] >= 1:
                    out[j] = 1.0
                    break
        return tuple(out)
    if rule == "xi":
        return tuple(v if x[i] >= 1 else 0.0 for v, i in zip(xi, cls_of))
    for acts in inst.server_activities:
        live = [j for j in acts if x[cls_of[j]] >= 1]
        budget = sum(xi[j] for j in acts)
        weight = sum(xi[j] for j in live)
        for j in live:
            out[j] = xi[j] * (budget / weight) if weight > 0.0 else budget / len(live)
    return tuple(out)


class _Context:
    """A policy checked against the analysis and flattened for the event
    loop: per selector interval its rule, its mode's effort and a table of
    allocations by backlog mask."""

    __slots__ = ("inst", "cls_of", "h", "y", "cuts", "rules", "xis", "tables")

    def __init__(self, analysis: LpAnalysis, policy: PolicySpec):
        inst = self.inst = analysis.instance
        self.cls_of = [a.class_index - 1 for a in inst.activities]
        self.h = list(inst.h)
        self.cuts = policy.selector.thresholds
        if self.cuts and analysis.dual is None:
            raise ValueError("a switching selector needs the unique dual point")
        # y only drives the selector; without thresholds wy is never read.
        self.y = [float(v) for v in analysis.dual.y] if self.cuts else [0.0] * inst.num_classes
        self.rules = policy.rules
        self.xis = []
        intervals = list(zip(policy.selector.modes, policy.rules))
        for m, rule in intervals:
            if isinstance(rule, tuple):
                acts = inst.server_activities
                if len(rule) != len(acts) or any(
                    sorted(o) != sorted(a) for o, a in zip(rule, acts)
                ):
                    raise ValueError("orders need a permutation of each server's activities")
                self.xis.append(None)
            elif 0 <= m < len(analysis.modes):
                self.xis.append([float(v) for v in analysis.modes[m].xi])
            else:
                raise ValueError(f"mode {m} is not in 0..{len(analysis.modes) - 1}")
        # Intervals with the same mode and rule share one table, so moving
        # between them keeps the allocation object.
        shared = {}
        self.tables = [shared.setdefault(key, {}) for key in intervals]

    def allocation(self, x: list[int], mask: int, p: int) -> tuple[float, ...]:
        """Allocation in selector interval p at a state whose backlogged
        classes are the set bits of mask. It depends on (mask, p) only, so
        it is built once, and an unchanged allocation is the same object."""
        table = self.tables[p]
        entry = table.get(mask)
        if entry is None:
            entry = table[mask] = allocate(self.rules[p], self.xis[p], x, self.inst)
        return entry


def _simulate(
    inst: PssInstance,
    analysis: LpAnalysis,
    n: int,
    policy: PolicySpec,
    horizon: float,
    seed: int,
    rep: int,
    record: bool,
):
    """Core event loop. Returns (event log or None, discounted cost, H at
    horizon).

    The clock has one entry per event source, by clock index: 0 the
    horizon, 1..I the classes' next arrivals, then the J activities' next
    service completions (inf without effort), each an absolute time. A
    binary heap holds the same floats as the clock, so heap[0] is the next
    event time t and clock.index(t) its lowest clock index: ties go to the
    horizon first, then arrivals, then completions, each in index order,
    also where a new time equals t. An arrival or a completion writes its
    own clock entry and swaps it into the heap for t, one heapreplace.
    Activity j's cumulative effort is b0[j] + eff[j] (t - t0[j]); its
    completion time changes only when it completes or its effort changes.
    The allocation is looked up only when the backlog mask or the selector
    interval has moved; when it changes, every moved completion time is
    rewritten in the clock and the heap is rebuilt from it. hx = h.x and
    wy = y.x are running sums (exact for integer-valued weights), re-summed
    whenever the allocation changes; wy is kept only under a switching
    selector.

    A recorded run logs, per row, its time and the clock index of the
    event that led to it (-1 for row 0), and the b0 of the activity that
    completed; at each row where the allocation changes, the row index, the
    allocation and every b0 and t0, each in one flat array. _column_blocks
    rebuilds the trace columns from these.
    """
    lam_n, mu_n = effective_rates(inst, n)
    ctx = _Context(analysis, policy)
    ni, nj = inst.num_classes, inst.num_activities
    off = 1 + ni  # clock index of activity 0

    def draws(kind: int, idx: int, scv: float, rate: float):
        seq = np.random.SeedSequence(seed, spawn_key=(rep, kind, idx))
        return renewal_stream(scv, rate, np.random.Generator(np.random.Philox(seq))).__next__

    arr_next = [draws(0, i, inst.c2_arrival[i], lam_n[i]) for i in range(ni)]
    svc_next = [draws(1, j, inst.c2_service[j], mu_n[j]) for j in range(nj)]

    h, y, tables, cls_of, cuts = ctx.h, ctx.y, ctx.tables, ctx.cls_of, ctx.cuts
    # Per clock index: the stream drawn at the event, its class, and the
    # changes of h.x and y.x it makes (the horizon's are never read).
    draw = [None, *arr_next, *svc_next]
    cls = [0, *range(ni), *cls_of]
    dh = [0.0, *h, *(-h[i] for i in cls_of)]
    dy = [0.0, *y, *(-y[i] for i in cls_of)]

    t = 0.0
    x = [0] * ni
    thresh = [d() for d in svc_next]
    clock = [horizon] + [d() for d in arr_next] + [math.inf] * nj
    heap = clock[:]
    heapify(heap)
    eff = [0.0] * nj
    b0 = [0.0] * nj
    t0 = [0.0] * nj
    inv_sqrt_n = 1.0 / math.sqrt(n)
    neg_gamma = -inst.gamma
    exp = math.exp
    switching = bool(cuts)
    # Interval p of the selector holds the scaled workloads lo <= w < hi.
    bounds = list(zip((-math.inf, *cuts), (*cuts, math.inf)))
    p, mask = bisect_right(cuts, 0.0), 0
    lo, hi = bounds[p]
    xi = None
    moved = True

    if record:
        # Per row: time, event and a completion's b0; per allocation change:
        # row, allocation, b0 and t0 (J entries each).
        log = tuple(map(array, "dididdd"))
        log_t, log_e, log_b0 = log[0].append, log[1].append, log[2].append
        at, allocs, b0_at, t0_at = log[3].append, log[4].extend, log[5].extend, log[6].extend
    else:
        log = None
    cost = 0.0
    exp_prev = 1.0
    e = -1  # last event's clock index; 0 is the horizon

    while True:
        if moved:
            moved = False
            alloc = tables[p].get(mask) or ctx.allocation(x, mask, p)
            if alloc is not xi:
                xi = alloc
                hx = sum(map(mul, h, x))
                if switching:
                    wy = sum(map(mul, y, x))
                for j in range(nj):
                    a = xi[j]
                    if a != eff[j]:
                        b0[j] += eff[j] * (t - t0[j])
                        t0[j] = t
                        eff[j] = a
                        # Rounding can leave b0 a hair past thresh.
                        clock[off + j] = (
                            t + max(thresh[j] - b0[j], 0.0) / a if a > 0.0 else math.inf
                        )
                heap = clock[:]
                heapify(heap)
                if record:
                    at(len(log[0]))
                    allocs(xi)
                    b0_at(b0)
                    t0_at(t0)
        if record:
            log_t(t)
            log_e(e)
            if e > ni:
                log_b0(b0[e - off])
        if not e:
            return log, cost * inv_sqrt_n / inst.gamma, sum(map(mul, h, x)) * inv_sqrt_n
        t = heap[0]
        e = clock.index(t)
        exp_next = exp(neg_gamma * t)
        cost += hx * (exp_prev - exp_next)
        exp_prev = exp_next
        i = cls[e]
        if e > ni:
            j = e - off
            b = b0[j] = thresh[j]
            t0[j] = t
            b_next = thresh[j] = b + draw[e]()
            tn = clock[e] = t + (b_next - b) / eff[j]
            heapreplace(heap, tn)
            x[i] -= 1
            if x[i] <= 0:
                if x[i] < 0:
                    raise SimulatorInvariantError("departure from an empty class")
                mask ^= 1 << i
                moved = True
        elif e:
            tn = clock[e] = t + draw[e]()
            heapreplace(heap, tn)
            x[i] += 1
            if x[i] == 1:
                mask |= 1 << i
                moved = True
        else:
            continue  # the horizon: its row ends the run
        hx += dh[e]
        if switching:
            wy += dy[e]
            w = wy * inv_sqrt_n
            if not lo <= w < hi:
                p = bisect_right(cuts, w)
                lo, hi = bounds[p]
                moved = True


def _run_horizon(inst: PssInstance, n: int, horizon: float | None) -> float:
    """Check a run's n and horizon before any stream is drawn; the horizon
    defaults to default_horizon(gamma). An infinite horizon would never
    end the loop."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if horizon is None:
        horizon = default_horizon(inst.gamma)
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError("horizon must be a finite nonnegative number")
    return horizon


def record_qcp(
    inst: PssInstance,
    analysis: LpAnalysis,
    n: int,
    policy: PolicySpec,
    horizon: float | None = None,
    seed: int = 0,
    rep: int = 0,
) -> QcpLog:
    """Simulate one replication and keep its event log."""
    horizon = _run_horizon(inst, n, horizon)
    _check_instance(inst, analysis, "inst")
    log, cost, h_horizon = _simulate(inst, analysis, n, policy, horizon, seed, rep, record=True)
    return QcpLog(inst, n, policy, horizon, seed, rep, cost, h_horizon, log)


def run_qcp(
    inst: PssInstance,
    analysis: LpAnalysis,
    n: int,
    policy: PolicySpec,
    horizon: float | None = None,
    seed: int = 0,
    rep: int = 0,
) -> QcpTrace:
    """Simulate one replication and record the full event trace: the
    columns of its event log, rebuilt as one block."""
    run = record_qcp(inst, analysis, n, policy, horizon, seed, rep)
    columns = next(_column_blocks(run.log, inst, run.rows))
    return QcpTrace(inst, n, policy, run.horizon, seed, rep, run.cost, run.h_horizon, *columns)


# Event rows per block of check_scaled: about 1.5 MB of columns, series
# and temporaries on a 2 x 2 instance.
_BLOCK = 4096


def _column_blocks(log, inst: PssInstance, size: int):
    """The trace columns (times, x, arrivals, departures, busy, alloc) of
    _simulate's event log, in blocks of rows [0, size), [size - 1, 2 size),
    [2 size - 1, 3 size) and so on: each block after the first starts at
    the last row of the one before, which its first left limit holds.

    Counts are running sums of the events over the rows, and the allocation
    is filled forward from the rows where it changed. Activity j's effort
    is re-based at its completions and at allocation changes, the latter
    winning on a shared row; busy is b0 + alloc (t - t0) from the last
    re-base at or before each row, the event loop's own arithmetic. What
    crosses from one block to the next is the state at the row before it:
    the counts and each activity's last re-base.
    """
    times, events, done_b0, at, allocs, b0_at, t0_at = log
    ni, nj = inst.num_classes, inst.num_activities
    t_all, e_all = np.frombuffer(times), np.frombuffer(events, np.intc)
    done_b0, at = np.frombuffer(done_b0), np.frombuffer(at, np.intc)
    allocs, b0_at, t0_at = (np.frombuffer(c).reshape(-1, nj) for c in (allocs, b0_at, t0_at))
    rows = len(t_all)
    arr0, dep0 = np.zeros(ni, np.int64), np.zeros(nj, np.int64)
    base_b0, base_t0 = np.zeros(nj), np.zeros(nj)
    r = 0
    for end in range(size, rows + size, size):
        b = min(end, rows)
        m = b - r
        t, events = t_all[r:b], e_all[r:b]
        arrivals, departures = np.empty((m, ni), np.int64), np.empty((m, nj), np.int64)
        for i in range(ni):
            np.cumsum(events == 1 + i, out=arrivals[:, i])
        arrivals += arr0
        x = arrivals.copy()
        for j, act in enumerate(inst.activities):
            np.cumsum(events == 1 + ni + j, out=departures[:, j])
            departures[:, j] += dep0[j]
            x[:, act.class_index - 1] -= departures[:, j]

        # index holds, per row, the position of the last allocation change
        # in the log, then, for each activity, the row of its last re-base
        # in the block, or -1 for one before the block, kept in slot m of
        # b0 and t0.
        lo, hi = np.searchsorted(at, (r, b))
        changed = at[lo:hi] - r
        index = np.zeros(m, np.intp)
        index[changed] = 1
        np.cumsum(index, out=index)
        index += lo - 1
        alloc = np.take(allocs, index, axis=0)

        completed = np.flatnonzero(events > ni)
        done = int(dep0.sum())
        block_b0 = done_b0[done : done + len(completed)]
        busy, b0, t0 = np.empty((m, nj)), np.empty(m + 1), np.empty(m + 1)
        for j in range(nj):
            own = events[completed] == 1 + ni + j
            rebased = completed[own]
            b0[rebased], t0[rebased] = block_b0[own], t[rebased]
            b0[changed], t0[changed] = b0_at[lo:hi, j], t0_at[lo:hi, j]
            b0[m], t0[m] = base_b0[j], base_t0[j]
            index.fill(-1)
            index[rebased] = rebased
            index[changed] = changed
            np.maximum.accumulate(index, out=index)
            col = busy[:, j]
            np.subtract(t, t0[index], out=col)
            col *= alloc[:, j]
            col += b0[index]
            if m > 1:
                base_b0[j], base_t0[j] = b0[index[-2]], t0[index[-2]]
        if m > 1:
            arr0, dep0 = arrivals[-2].copy(), departures[-2].copy()
        del b0, t0, index
        yield t, x, arrivals, departures, busy, alloc
        r = b - 1


# The event rows and the left limits of the 2E - 1 row grid.
_HALVES = (slice(0, None, 2), slice(1, None, 2))


def _on_grid(rows: np.ndarray, held: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Per-event rows (E, ...) on the 2E - 1 row grid, added into out when
    given. Row 2k is event k and row 2k - 1 its left limit, where a series
    of counts is held at event k - 1's row and a series of t and T takes
    event k's own row."""
    left = rows[:-1] if held else rows[1:]
    if out is None:
        out = np.empty((2 * len(rows) - 1,) + rows.shape[1:], rows.dtype)
        out[0::2], out[1::2] = rows, left
    else:
        out[0::2] += rows
        out[1::2] += left
    return out


def _check_instance(inst: PssInstance, analysis: LpAnalysis, what: str) -> None:
    if inst != analysis.instance:
        raise ValueError(f"{what} is of another instance than the analysis")


def _check_trace(trace: QcpRun, n: int, analysis: LpAnalysis) -> None:
    """Refuse a run of another n or of another instance than the analysis."""
    if n != trace.n:
        raise ValueError("n does not match the trace")
    _check_instance(trace.inst, analysis, "the trace")


def _check_scalable(run: QcpRun, n: int, analysis: LpAnalysis) -> None:
    """As _check_trace; scaled series also need the assumptions to pass."""
    _check_trace(run, n, analysis)
    if not analysis.assumptions.all_pass:
        raise AssumptionError(
            "scaled series need the unique dual point and classification",
            analysis.assumptions.failing_parts,
        )


def _identity_coefficients(analysis: LpAnalysis):
    """Exact per-activity coefficients of the workload identity: y*_i(j),
    y*_i(j) mu_j and Lan's z*_k(j) - y*_i(j) mu_j (0 unless always
    nonbasic), plus y*.lambda."""
    inst, dual = analysis.instance, analysis.dual
    y_of = [dual.y[a.class_index - 1] for a in inst.activities]
    y_mu = list(map(mul, y_of, inst.mu))
    an = [
        dual.z[a.server_index - 1] - ym if c is ActivityClass.ALWAYS_NONBASIC else 0
        for a, ym, c in zip(inst.activities, y_mu, analysis.classification)
    ]
    return y_of, y_mu, an, sum(map(mul, dual.y, inst.lam))


def _weighted(columns: np.ndarray, weights) -> np.ndarray:
    """columns @ weights over the short second axis, as a sum of scaled
    columns in order: elementwise numpy, so that no BLAS call is made.
    Zero weights add nothing and are skipped."""
    out = np.zeros(len(columns))
    for k, v in enumerate(weights):
        if v:
            out += columns[:, k] * float(v)
    return out


def _scaled(columns, n: int, analysis: LpAnalysis, coefficients) -> _Grid:
    """The scaled series of a run of event rows, given as the trace columns
    (times, x, arrivals, departures, busy), on the grid of those rows.

    Temporaries that span the rows are dropped as soon as their series are
    on the grid, so the last steps allocate little beyond what is returned.
    """
    inst = analysis.instance
    rt = math.sqrt(n)
    y_of, y_mu, an, y_lam = coefficients
    y, z = analysis.dual.y, analysis.dual.z
    t, x, arrivals, departures, busy = columns
    times = _on_grid(t, held=False)
    x_rows = x / rt
    x_hat = _on_grid(x_rows, held=True)
    w = _on_grid(_weighted(x_rows, y), held=True)
    h = _on_grid(_weighted(x_rows, inst.h), held=True)
    del x_rows
    idle = np.empty((len(t), inst.num_servers))
    for k in range(inst.num_servers):
        on_k = [a.server_index == k + 1 for a in inst.activities]
        np.multiply(t - _weighted(busy, on_k), rt, out=idle[:, k])
    i_hat = _on_grid(idle, held=False)
    l = _on_grid(_weighted(idle, z), held=False)
    del idle
    f = _weighted(arrivals, y) - _weighted(departures, y_of)
    f = _on_grid(f / rt, held=True)
    _on_grid(rt * (_weighted(busy, y_mu) - t * float(y_lam)), held=False, out=f)
    l_an = _on_grid(rt * _weighted(busy, an), held=False)
    return _Grid(times, x_hat, i_hat, w, f, l, l_an, h)


def _identity(grid) -> tuple[float, float]:
    """(scale, residual) of series on a grid: the largest of 1, |W| and |F|,
    and the largest |W - F - L - Lan|, the event rows and the left limits
    apart, in one buffer of the event rows' length."""
    w, f = grid.w, grid.f
    scale = float(max(1.0, w.max(), -w.min(), f.max(), -f.min()))
    residual, buffer = 0.0, np.empty((len(w) + 1) // 2)
    for r in _HALVES:
        gap = np.subtract(w[r], f[r], out=buffer[: len(w[r])])
        gap -= grid.l[r]
        gap -= grid.l_an[r]
        residual = max(residual, float(np.max(np.abs(gap, out=gap), initial=0.0)))
    return scale, residual


def _check_identity(residual: float, scale: float) -> None:
    """A residual beyond rounding (1e-6 of the series scale) aborts, since
    the identity is algebraically exact."""
    if residual > 1e-6 * scale:
        raise SimulatorInvariantError(
            f"workload identity residual {residual:.3e} exceeds rounding at scale {scale:.3e}"
        )


def compute_scaled(trace: QcpTrace, n: int, analysis: LpAnalysis) -> ScaledSeries:
    """Diffusion-scaled series on the 2E - 1 row grid.

    Verifies the workload identity W = F + L + Lan; a residual beyond
    rounding (1e-6 of the series scale) aborts, since the identity is
    algebraically exact.
    """
    _check_scalable(trace, n, analysis)
    columns = (trace.times, trace.x, trace.arrivals, trace.departures, trace.busy)
    grid = _scaled(columns, n, analysis, _identity_coefficients(analysis))
    scale, residual = _identity(grid)
    _check_identity(residual, scale)
    return ScaledSeries(*grid, scale=scale, identity_residual=residual)


class _Checks:
    """Largest violations of the pathwise relations over consecutive pieces
    of the grid, each starting at the row that ended the one before (see
    check_trace_inequalities); the Skorokhod map's running maximum of F^-
    crosses from one piece to the next."""

    def __init__(self, analysis: LpAnalysis):
        q = self.q = analysis.q
        self.ratio = analysis.instance.h[q] / float(analysis.dual.y[q])
        self.cost = self.axis = self.reflection = self.state = self.idleness = 0.0
        self.eta = 0.0

    def add(self, grid) -> None:
        ratio, q = self.ratio, self.q
        x_hat, w, h, i_hat = grid.x_hat, grid.w, grid.h, grid.i_hat
        for r in _HALVES:
            self.cost = max(self.cost, float(np.max(ratio * w[r] - h[r], initial=0.0)))
            on_axis = x_hat[r].sum(axis=1) - x_hat[r, q] == 0.0
            if np.any(on_axis):
                gap = float(np.max(np.abs(h[r][on_axis] - ratio * w[r][on_axis])))
                self.axis = max(self.axis, gap)
        self.state = max(self.state, -float(np.min(x_hat)))
        # Steps into a left limit, then out of it.
        steps = ((i_hat[1::2], i_hat[:-1:2]), (i_hat[2::2], i_hat[1::2]))
        self.idleness = max(self.idleness, -min(float(np.min(b - a, initial=0.0)) for b, a in steps))
        gap, eta = skorokhod_map(grid.f, self.eta)
        self.eta = float(eta[-1])
        del eta
        gap -= w
        self.reflection = max(self.reflection, float(np.max(gap, initial=0.0)))

    def result(self, scale: float) -> TraceChecks:
        return TraceChecks(
            cost_vs_workload=self.cost / scale,
            cost_equality_on_axis=self.axis / scale,
            reflection=self.reflection / scale,
            state_nonneg=self.state / scale,
            idleness_monotone=self.idleness / scale,
        )


def check_trace_inequalities(series: ScaledSeries, analysis: LpAnalysis) -> TraceChecks:
    """Pathwise relations underlying the lower bound, as max violations
    relative to the series scale (all should be at rounding level).

    Each relation is checked over the event rows and the left limits apart,
    or in place, so that the only temporaries spanning the whole grid are
    the reflection's."""
    checks = _Checks(analysis)
    checks.add(series)
    return checks.result(series.scale)


@dataclass(frozen=True)
class ScaledChecks:
    """What compute_scaled and check_trace_inequalities report of a run:
    its event rows, the series scale, the identity residual and the
    checks."""

    rows: int
    scale: float
    identity_residual: float
    checks: TraceChecks


def check_scaled(run: QcpLog, n: int, analysis: LpAnalysis, on_block=None) -> ScaledChecks:
    """compute_scaled and check_trace_inequalities of a recorded run, bit
    for bit, streamed _BLOCK event rows at a time, so that only the event
    log and one block are held. on_block, when given, receives each
    block's series on its grid rows as a named tuple (times, x_hat, i_hat,
    w, f, l, l_an, h) in order, each block's without the row the one
    before ended with: together they are compute_scaled's series."""
    _check_scalable(run, n, analysis)
    coefficients = _identity_coefficients(analysis)
    checks = _Checks(analysis)
    scale, residual = 1.0, 0.0
    for k, columns in enumerate(_column_blocks(run.log, run.inst, _BLOCK)):
        grid = _scaled(columns[:5], n, analysis, coefficients)
        block_scale, block_residual = _identity(grid)
        scale, residual = max(scale, block_scale), max(residual, block_residual)
        checks.add(grid)
        if on_block is not None:
            on_block(grid if k == 0 else _Grid(*(s[1:] for s in grid)))
        del grid
    _check_identity(residual, scale)
    return ScaledChecks(run.rows, scale, residual, checks.result(scale))


def _rep_cost(args) -> tuple[float, float]:
    return _simulate(*args, record=False)[1:]


def _map_reps(tasks: list) -> list[tuple[float, float]]:
    """(cost, H at horizon) of each replication task (_simulate's
    arguments but record), in order: in this process when PSS_THREADS is
    at most 1, else over one pool of PSS_THREADS worker processes."""
    threads = int(os.environ.get("PSS_THREADS", "1"))
    if threads <= 1:
        return list(map(_rep_cost, tasks))
    # Imported only when used: the process pool machinery adds about
    # 1.5 MB to every process that imports psslab.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_rep_cost, tasks))


def _summary(results: list[tuple[float, float]], gamma: float, horizon: float) -> McEstimate:
    """Cost estimate from the (cost, H at horizon) of each replication.
    Its truncation_bound, e^{-gamma T} mean(H_T) / gamma, is the discarded
    tail's value were h.Xhat to stay at its mean horizon value: an
    estimate of the tail, not a proved bound on it."""
    costs = np.array([r[0] for r in results])
    tail_h = float(np.mean([r[1] for r in results]))
    return McEstimate.from_costs(costs, 0.0, horizon, math.exp(-gamma * horizon) * tail_h / gamma)


def estimate_qcp_cost(
    inst: PssInstance,
    analysis: LpAnalysis,
    n: int,
    policy: PolicySpec,
    n_reps: int,
    horizon: float | None = None,
    seed: int = 0,
    rep0: QcpRun | None = None,
) -> McEstimate:
    """Monte Carlo discounted holding cost of the scaled state.

    The per-replication integral of exp(-gamma t) h.Xhat is evaluated
    exactly between events. Replication r draws from streams keyed by
    (seed, r), so estimates do not depend on scheduling; PSS_THREADS
    spreads replications over worker processes (see _map_reps). rep0, a
    recorded replication 0 of this run (same instance, n, policy, horizon
    and seed; a run_qcp trace or a record_qcp log), supplies that
    replication's cost and H at the horizon, which is then not simulated
    again. The result's truncation_bound estimates the discounted cost
    past the horizon from the mean H at the horizon; it is not a proved
    bound (see _summary).
    """
    if n_reps < 2:
        raise ValueError("n_reps must be at least 2")
    horizon = _run_horizon(inst, n, horizon)
    if rep0 is not None:
        recorded = (rep0.inst, rep0.n, rep0.policy, rep0.horizon, rep0.seed, rep0.rep)
        if recorded != (inst, n, policy, horizon, seed, 0):
            raise ValueError("rep0 is not replication 0 of this run")
    _check_instance(inst, analysis, "inst")
    results = [] if rep0 is None else [(rep0.cost, rep0.h_horizon)]
    tasks = [(inst, analysis, n, policy, horizon, seed, rep) for rep in range(len(results), n_reps)]
    return _summary(results + _map_reps(tasks), inst.gamma, horizon)


@dataclass(frozen=True)
class BoundRun:
    n: int
    policy: str
    mean: float
    half_width_95: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class BoundReport:
    """Lower bound comparison: every simulated cost should be at least
    v0 - 2 CI; min_by_n reports the best policy cost at each n."""

    v0: float
    u0: float
    runs: tuple[BoundRun, ...]
    min_by_n: tuple[tuple[int, float], ...]
    verdict: str


def verify_lower_bound(
    inst: PssInstance,
    analysis: LpAnalysis,
    solution: HjbSolution,
    n_list: tuple[int, ...],
    policies: tuple[PolicySpec, ...],
    n_reps: int,
    horizon: float | None = None,
    seed: int = 0,
) -> BoundReport:
    """Compare simulated costs at each (n, policy) against the bound v0."""
    if not n_list:
        raise ValueError("n_list must name at least one n")
    if not policies:
        raise ValueError("policies must name at least one policy")
    # The assumptions, the instance, the solution, every n, the horizon
    # and every policy are checked before the first replication.
    v0 = compute_v0(inst, analysis, solution)
    if n_reps < 2:
        raise ValueError("n_reps must be at least 2")
    for n in n_list:
        horizon = _run_horizon(inst, n, horizon)
        effective_rates(inst, n)
    for policy in policies:
        _Context(analysis, policy)
    pairs = list(product(n_list, policies))
    results = _map_reps(
        [(inst, analysis, n, p, horizon, seed, rep) for n, p in pairs for rep in range(n_reps)]
    )
    runs = []
    for k, (n, policy) in enumerate(pairs):
        est = _summary(results[k * n_reps : (k + 1) * n_reps], inst.gamma, horizon)
        margin = est.mean - v0
        ok = margin >= -2.0 * est.half_width_95
        runs.append(BoundRun(n, policy.label, est.mean, est.half_width_95, margin, ok))
    min_by_n = tuple((n, min(r.mean for r in runs if r.n == n)) for n in n_list)
    verdict = "PASS" if all(r.ok for r in runs) else "FAIL"
    return BoundReport(v0=v0, u0=solution.u0, runs=tuple(runs), min_by_n=min_by_n, verdict=verdict)


def identity_residual_exact(trace: QcpTrace, n: int, analysis: LpAnalysis) -> Fraction:
    """Recompute the workload identity in exact rational arithmetic.

    Requires n to be a perfect square so sqrt(n) is rational. Event data
    (floats) promote to rationals exactly, so the returned residual is
    identically zero unless the simulator's bookkeeping is broken. Per
    event row, W less F's count part is held and F's time part plus L and
    Lan is own, on the grid of compute_scaled.
    """
    _check_trace(trace, n, analysis)
    rt = math.isqrt(n)
    if rt * rt != n:
        raise ValueError("exact shadow check needs a square n")
    inst, y, z = analysis.instance, analysis.dual.y, analysis.dual.z
    y_of, y_mu, an, y_lam = _identity_coefficients(analysis)
    held, own = [], []
    columns = (trace.times, trace.x, trace.arrivals, trace.departures, trace.busy)
    for t, x, arr, dep, busy in zip(*(c.tolist() for c in columns)):
        t, busy = Fraction(t), [Fraction(v) for v in busy]
        held.append((sum(map(mul, y, x)) - sum(map(mul, y, arr)) + sum(map(mul, y_of, dep))) / rt)
        idle = [t - sum(busy[j] for j in acts) for acts in inst.server_activities]
        f_time = sum(map(mul, y_mu, busy)) - y_lam * t
        own.append(rt * (f_time + sum(map(mul, z, idle)) + sum(map(mul, an, busy))))
    grid = _on_grid(np.array(held, object), held=True)
    _on_grid(-np.array(own, object), held=False, out=grid)
    return Fraction(max(map(abs, grid)))
