"""Command line front end.

Subcommands cover the pipeline stages: ``analyze`` (exact LP study of an
instance), ``solve-hjb`` (workload equation and threshold policy),
``sim-wcp`` (reflected-diffusion Monte Carlo), ``sim-qcp`` (prelimit
event simulation with pathwise checks), and ``verify-bound`` (full
lower-bound comparison). Reports are JSON documents on stdout (and under
--out when given) embedding the instance's sha256, the resolved
configuration, the seed, and the toolkit version; exact rationals are
rendered as {"exact": "p/q", "approx": float}. Reports are byte-stable
for a fixed (instance, config, seed) except for the top-level "timing"
key, which holds wall seconds: the total and, for every command but
analyze, one figure per stage under "stages". Traces are CSV, long
form ``t,series,name,value`` by default or one column per series with
--wide.

Exit status: 0 success; 2 usage error (argparse: a missing required or an
unknown option); 10 unreadable/invalid instance or bad option values;
21/22/23 structural assumption failure (criticality, full server load,
dual uniqueness; 20 when the failing part is not identified); 30 solver
or simulator failure; 40 lower-bound verdict FAIL.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__
from .hjb import (
    HjbConfig,
    HjbConvergenceError,
    HjbSolution,
    compute_v0,
    dominant_mode,
    extract_policy,
    single_mode_value,
    solve_hjb,
)
from .lp import (
    AnalysisError,
    AssumptionError,
    DualSolution,
    LpAnalysis,
    analyze,
)
from .model import InstanceError, PssInstance, load_instance
from .qcp import (
    MinimumNError,
    PolicySpec,
    SimulatorInvariantError,
    check_scaled,
    estimate_qcp_cost,
    record_qcp,
    verify_lower_bound,
)
from .wcp import default_horizon, estimate_wcp_cost, simulate_wcp

EXIT_OK = 0
EXIT_PARSE = 10
EXIT_ASSUMPTION = 20
EXIT_SOLVER = 30
EXIT_BOUND_FAIL = 40


class CliError(Exception):
    """Unusable command line options."""


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise CliError(message)


def _positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


def _check_horizon(horizon: float, step: float) -> None:
    """sim-wcp simulates at least one step over a finite horizon."""
    _need(math.isfinite(horizon), f"horizon {horizon} is not a finite number")
    _need(horizon >= step, f"horizon {horizon} is shorter than --step")


def _n_list(text: str) -> tuple[int, ...]:
    """The values of --n-list: comma-separated positive integers."""
    try:
        n_list = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError("--n-list must be comma-separated integers") from exc
    _need(all(n >= 1 for n in n_list), "--n-list values must be positive")
    return n_list


_STATIC = r"static:(0|[1-9]\d*)"  # a mode index has no leading zeros
# The --policy grammar of each command: a pattern and how to quote it.
_POLICIES = {
    "sim-wcp": (rf"hjb|{_STATIC}", "hjb or static:<mode>"),
    "sim-qcp": (
        rf"{_STATIC}(:wc)?|threshold(:wc)?|priority",
        "static:<mode>[:wc], threshold[:wc] or priority",
    ),
}
_POLICIES["verify-bound"] = _POLICIES["sim-qcp"]


def _check_options(args: argparse.Namespace) -> None:
    """Refuse option values a stage would reject, before any work."""
    cmd = args.command
    _need(args.seed >= 0, "--seed must be a nonnegative integer")
    if cmd in ("solve-hjb", "sim-wcp", "verify-bound"):
        _need(args.grid_n >= 3, "--grid-n must be at least 3")
        _need(args.z_max is None or _positive(args.z_max), "--z-max must be a positive number")
    if cmd in _POLICIES:
        pattern, grammar = _POLICIES[cmd]
        for text in [args.policy] if cmd != "verify-bound" else args.policy or ():
            _need(
                re.fullmatch(pattern, text) is not None,
                f"unknown policy {text!r}; use {grammar}",
            )
    if cmd == "sim-wcp":
        _need(_positive(args.step), "--step must be a positive number")
        _need(args.reps >= 2, "--reps must be at least 2")
        if args.horizon is not None:
            _check_horizon(args.horizon, args.step)
    if cmd in ("sim-qcp", "verify-bound"):
        _need(
            args.horizon is None or (math.isfinite(args.horizon) and args.horizon >= 0),
            "--horizon must be a nonnegative number",
        )
        threads = os.environ.get("PSS_THREADS")
        _need(
            threads is None or threads.strip().isdecimal(),
            f"PSS_THREADS must be a nonnegative integer, not {threads!r}",
        )
    if cmd == "sim-qcp":
        _need(args.n >= 1, "--n must be a positive integer")
        # --reps 1 records the trace and makes no estimate.
        _need(args.reps >= 1, "--reps must be at least 1")
    if cmd == "verify-bound":
        _need(args.reps >= 2, "--reps must be at least 2")
        _n_list(args.n_list)


def _assumption_status(parts: tuple[int, ...]) -> int:
    # 21/22/23 by first failing part, generic 20 otherwise
    return EXIT_ASSUMPTION + parts[0] if parts else EXIT_ASSUMPTION


def _rat(v: Fraction) -> dict:
    return {"exact": str(v), "approx": float(v)}


def _finite(v: float) -> float | None:
    return None if math.isinf(v) else float(v)


def _dual_doc(dual: DualSolution) -> dict:
    return {"y": [_rat(v) for v in dual.y], "z": [_rat(v) for v in dual.z]}


def _coefficients_doc(coefficients) -> list:
    return [{"mode": m, "b": b, "sigma2": s2} for m, (b, s2) in enumerate(coefficients)]


def _intervals_doc(policy) -> list:
    return [{"lo": lo, "hi": _finite(hi), "mode": m} for lo, hi, m in policy.intervals]


def _analysis_doc(analysis: LpAnalysis) -> dict:
    inst = analysis.instance
    rep = analysis.assumptions
    return {
        "activities": [
            {"class": a.class_index, "server": a.server_index} for a in inst.activities
        ],
        "rho_star": _rat(analysis.rho_star),
        "modes": [
            {"index": m.index, "xi": [_rat(v) for v in m.xi], "degenerate": m.degenerate}
            for m in analysis.modes
        ],
        "assumptions": {
            "critical": rep.critical,
            "fully_loaded": rep.fully_loaded,
            "dual_unique": rep.dual_unique,
            "all_pass": rep.all_pass,
            "failing_parts": list(rep.failing_parts),
            "load_witness": None
            if rep.load_witness is None
            else {
                "mode": rep.load_witness[0],
                "server": rep.load_witness[1],
                "load": _rat(rep.load_witness[2]),
            },
            "dual_witnesses": None
            if rep.dual_witnesses is None
            else [_dual_doc(w) for w in rep.dual_witnesses],
        },
        "dual": None if analysis.dual is None else _dual_doc(analysis.dual),
        "classification": None
        if analysis.classification is None
        else [c.name.lower() for c in analysis.classification],
        "q": analysis.q,
        "coefficients": None
        if analysis.coefficients is None
        else _coefficients_doc(analysis.coefficients),
        "decomposition": {
            "status": analysis.decomposition.status,
            "detail": analysis.decomposition.detail,
            "alpha": None
            if analysis.decomposition.decomposition is None
            else [_rat(v) for v in analysis.decomposition.decomposition.alpha],
            "beta": None
            if analysis.decomposition.decomposition is None
            else [_rat(v) for v in analysis.decomposition.decomposition.beta],
        },
    }


def _hjb_doc(solution: HjbSolution) -> dict:
    return {
        "coefficients": _coefficients_doc(solution.coefficients),
        "gamma": solution.gamma,
        "grid_n": len(solution.grid) - 1,
        "z_max": float(solution.grid[-1]),
        "u0": solution.u0,
        "switch_points": list(solution.switch_points),
        "policy_intervals": _intervals_doc(extract_policy(solution)),
        "dominant_mode": dominant_mode(solution.coefficients),
        "residual_max": solution.residual_max,
        "excess_min": solution.excess_min,
        "iterations": solution.iterations,
    }


def _meta(args: argparse.Namespace, raw: bytes, *options: str, **config) -> dict:
    """The report's meta block; its config holds the named options' values
    and the resolved ones given as keywords."""
    return {
        "command": args.command,
        "toolkit_version": __version__,
        "instance_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": getattr(args, "seed", None),
        "config": {**{name: getattr(args, name) for name in options}, **config},
    }


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    """Add the wall seconds of the enclosed block to stages[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[name] += time.perf_counter() - t0


def _emit(doc: dict, args: argparse.Namespace, started: float, stages: dict | None = None) -> None:
    doc = dict(doc)
    doc["timing"] = {"seconds": time.perf_counter() - started}
    if stages is not None:
        doc["timing"]["stages"] = stages
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}-report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _fmt_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv_header(out, names, wide: bool) -> None:
    out.writerow(["t", *names] if wide else ["t", "series", "name", "value"])


def _csv_rows(out, times, series: str, columns: dict, wide: bool) -> None:
    if wide:
        for r, t in enumerate(times):
            out.writerow([_fmt_cell(t)] + [_fmt_cell(col[r]) for col in columns.values()])
    else:
        for r, t in enumerate(times):
            for name, col in columns.items():
                out.writerow([_fmt_cell(t), series, name, _fmt_cell(col[r])])


def _write_csv(path: str, times, series: str, columns: dict, wide: bool) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        _csv_header(out, columns, wide)
        _csv_rows(out, times, series, columns, wide)


@contextlib.contextmanager
def _scaled_csv(args: argparse.Namespace, inst: PssInstance):
    """check_scaled's on_block under --out (None without it): writes each
    block of the scaled series to qcp-scaled.csv as it comes, and removes
    the file if the run fails."""
    if not args.out:
        yield None
        return
    names = ["w", "f", "l", "l_an", "h"]
    names += [f"x_hat[{i + 1}]" for i in range(inst.num_classes)]
    names += [f"i_hat[{k + 1}]" for k in range(inst.num_servers)]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "qcp-scaled.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        _csv_header(out, names, args.wide)

        def write(grid) -> None:
            columns = (grid.w, grid.f, grid.l, grid.l_an, grid.h, *grid.x_hat.T, *grid.i_hat.T)
            _csv_rows(out, grid.times, "qcp", dict(zip(names, columns)), args.wide)

        try:
            yield write
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def _load(args: argparse.Namespace) -> tuple[bytes, PssInstance]:
    with open(args.instance, "rb") as fh:
        raw = fh.read()
    return raw, load_instance(raw)


def _require_assumptions(analysis: LpAnalysis) -> None:
    rep = analysis.assumptions
    if rep.all_pass:
        return
    names = {1: "not critical (rho* != 1)", 2: "servers not fully loaded", 3: "dual not unique"}
    detail = "; ".join(names[p] for p in rep.failing_parts)
    raise AssumptionError(f"instance fails structural assumptions: {detail}", rep.failing_parts)


def _prepare(args: argparse.Namespace, stages: dict):
    """The instance's bytes, the instance and its analysis, which must pass
    the structural assumptions, and solution_of(): the workload equation
    solved at most once, on the command's --grid-n and --z-max (HjbConfig's
    defaults where it has none). The analysis and the solve are timed under
    the "analyze" and "hjb" stages."""
    raw, inst = _load(args)
    # _check_options checked an explicit horizon; the default needs gamma.
    if args.command == "sim-wcp" and args.horizon is None:
        _check_horizon(default_horizon(inst.gamma), args.step)
    with _stage(stages, "analyze"):
        analysis = analyze(inst)
    _require_assumptions(analysis)
    config = HjbConfig(z_max=args.z_max, grid_n=args.grid_n) if "grid_n" in args else HjbConfig()

    @functools.cache
    def solution_of() -> HjbSolution:
        with _stage(stages, "hjb"):
            return solve_hjb(analysis.coefficients, inst.gamma, config)

    return raw, inst, analysis, solution_of


def _parse_policy(text: str, analysis: LpAnalysis, solution_of: "callable") -> PolicySpec:
    """A --policy value whose syntax _check_options has accepted; sim-wcp's
    hjb is the threshold policy."""
    parts = text.split(":")
    wc = parts[-1] == "wc"
    if parts[0] == "static":
        mode = int(parts[1])
        if mode >= len(analysis.modes):
            raise CliError(f"mode {mode} out of range 0..{len(analysis.modes) - 1}")
        return PolicySpec.static_mode(mode, work_conserving=wc)
    if parts[0] in ("threshold", "hjb"):
        return PolicySpec.workload_threshold(extract_policy(solution_of()), work_conserving=wc)
    return PolicySpec.server_priority(analysis.instance.server_activities)


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    raw, inst = _load(args)
    analysis = analyze(inst)
    doc = {"meta": _meta(args, raw), "analysis": _analysis_doc(analysis)}
    _emit(doc, args, started)
    rep = analysis.assumptions
    return EXIT_OK if rep.all_pass else _assumption_status(rep.failing_parts)


def cmd_solve_hjb(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(("analyze", "hjb"), 0.0)
    raw, inst, analysis, solution_of = _prepare(args, stages)
    solution = solution_of()
    doc = {
        "meta": _meta(args, raw, "grid_n", "z_max"),
        "hjb": _hjb_doc(solution),
        "v0": compute_v0(inst, analysis, solution),
        "q": analysis.q,
    }
    _emit(doc, args, started, stages)
    if args.out:
        _write_csv(
            os.path.join(args.out, "hjb-solution.csv"),
            solution.grid,
            "hjb",
            {"u": solution.u, "du": solution.du, "d2u": solution.d2u, "mode": solution.mode_at},
            args.wide,
        )
    return EXIT_OK


def cmd_sim_wcp(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(("analyze", "hjb", "wcp"), 0.0)
    raw, inst, analysis, solution_of = _prepare(args, stages)
    coeffs = analysis.coefficients
    policy = _parse_policy(args.policy, analysis, solution_of).selector
    if args.policy == "hjb":
        reference_u0 = solution_of().u0
    else:
        reference_u0 = single_mode_value(*coeffs[policy.modes[0]], inst.gamma).u0
    with _stage(stages, "wcp"):
        est = estimate_wcp_cost(
            policy,
            coeffs,
            inst.gamma,
            step=args.step,
            horizon=args.horizon,
            n_paths=args.reps,
            seed=args.seed,
        )
    doc = {
        "meta": _meta(args, raw, "policy", "step", "horizon", "reps", "grid_n", "z_max"),
        "estimate": asdict(est),
        "paths": est.n_paths,
        "path_steps": est.n_paths * round(est.horizon / est.step),
        "reference_u0": reference_u0,
        "policy_intervals": _intervals_doc(policy),
    }
    _emit(doc, args, started, stages)
    if args.out:
        path = simulate_wcp(policy, coeffs, 0.0, args.step, est.horizon, args.seed, path_id=0)
        _write_csv(
            os.path.join(args.out, "wcp-path.csv"),
            path.times,
            "wcp",
            # The last row's mode is the policy's at the final value.
            {"z": path.values, "local_time": path.local_time, "mode": policy.mode_of(path.values)},
            args.wide,
        )
    return EXIT_OK


def cmd_sim_qcp(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(("analyze", "hjb", "qcp", "scaled_checks"), 0.0)
    raw, inst, analysis, solution_of = _prepare(args, stages)
    policy = _parse_policy(args.policy, analysis, solution_of)
    with _stage(stages, "qcp"):
        run = record_qcp(inst, analysis, args.n, policy, horizon=args.horizon, seed=args.seed, rep=0)
    # The series and checks stream through blocks of event rows, and so
    # does qcp-scaled.csv under --out.
    with _stage(stages, "scaled_checks"), _scaled_csv(args, inst) as on_block:
        scaled = check_scaled(run, args.n, analysis, on_block)
    checks = scaled.checks
    estimate = None
    if args.reps >= 2:
        with _stage(stages, "qcp"):
            estimate = asdict(
                estimate_qcp_cost(
                    inst,
                    analysis,
                    args.n,
                    policy,
                    args.reps,
                    horizon=args.horizon,
                    seed=args.seed,
                    rep0=run,
                )
            )
    doc = {
        "meta": _meta(args, raw, "n", "policy", "horizon", "reps"),
        "n": args.n,
        "policy": policy.label,
        "events": scaled.rows - 2,
        "horizon": run.horizon,
        "estimate": estimate,
        "identity_residual": scaled.identity_residual,
        "checks": {**asdict(checks), "max_relative_violation": checks.max_relative_violation},
    }
    _emit(doc, args, started, stages)
    return EXIT_OK


def cmd_verify_bound(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(("analyze", "hjb", "qcp"), 0.0)
    raw, inst, analysis, solution_of = _prepare(args, stages)
    texts = args.policy or [f"static:{m}" for m in range(len(analysis.modes))] + ["threshold"]
    policies = tuple(_parse_policy(text, analysis, solution_of) for text in texts)
    n_list = _n_list(args.n_list)
    solution = solution_of()
    with _stage(stages, "qcp"):
        report = verify_lower_bound(
            inst,
            analysis,
            solution,
            n_list,
            policies,
            n_reps=args.reps,
            horizon=args.horizon,
            seed=args.seed,
        )
    doc = {
        "meta": _meta(
            args,
            raw,
            "reps",
            "horizon",
            "grid_n",
            "z_max",
            n_list=list(n_list),
            policies=[p.label for p in policies],
        ),
        "v0": report.v0,
        "u0": report.u0,
        "runs": [asdict(r) for r in report.runs],
        "min_by_n": [{"n": n, "best_cost": c} for n, c in report.min_by_n],
        "verdict": report.verdict,
    }
    _emit(doc, args, started, stages)
    return EXIT_OK if report.verdict == "PASS" else EXIT_BOUND_FAIL


def _option(sp: argparse.ArgumentParser, flag: str, convert: type, **kwargs) -> None:
    """Add an int or float option whose malformed values raise CliError
    naming it; argparse's own usage errors still exit 2."""
    what = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise CliError(f"{flag} must be {what}, not {text!r}") from None

    sp.add_argument(flag, type=parse, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psslab",
        description="Exact LP analysis, workload-equation solving, and simulation "
        "for critically loaded parallel server systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--instance", required=True, help="instance JSON file")
        sp.add_argument("--out", default=None, help="directory for report and trace files")
        _option(sp, "--seed", int, default=0, help="64-bit stream seed (default 0)")
        sp.add_argument("--wide", action="store_true", help="wide CSV traces (one column per series)")

    sp = sub.add_parser("analyze", help="exact LP study and assumption checks")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("solve-hjb", help="solve the workload equation")
    common(sp)
    _option(sp, "--grid-n", int, default=4000)
    _option(sp, "--z-max", float, default=None)
    sp.set_defaults(func=cmd_solve_hjb)

    sp = sub.add_parser("sim-wcp", help="Monte Carlo cost of the reflected diffusion")
    common(sp)
    sp.add_argument("--policy", default="hjb", help="hjb or static:<mode>")
    _option(sp, "--step", float, default=1e-3)
    _option(sp, "--horizon", float, default=None)
    _option(sp, "--reps", int, default=10_000, help="number of paths")
    _option(sp, "--grid-n", int, default=4000)
    _option(sp, "--z-max", float, default=None)
    sp.set_defaults(func=cmd_sim_wcp)

    sp = sub.add_parser("sim-qcp", help="event-driven prelimit simulation")
    common(sp)
    _option(sp, "--n", int, required=True, help="scaling parameter")
    sp.add_argument(
        "--policy", default="threshold", help="static:<mode>[:wc], threshold[:wc], or priority"
    )
    _option(sp, "--horizon", float, default=None)
    _option(
        sp,
        "--reps",
        int,
        default=16,
        help="replications for the cost estimate; 1 records the trace alone",
    )
    sp.set_defaults(func=cmd_sim_qcp)

    sp = sub.add_parser("verify-bound", help="compare simulated costs against the bound")
    common(sp)
    sp.add_argument("--n-list", default="25,100,400")
    sp.add_argument(
        "--policy", action="append", default=None, help="repeatable; default: every static mode plus threshold"
    )
    _option(sp, "--reps", int, default=64)
    _option(sp, "--horizon", float, default=None)
    _option(sp, "--grid-n", int, default=4000)
    _option(sp, "--z-max", float, default=None)
    sp.set_defaults(func=cmd_verify_bound)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_options(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InstanceError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MinimumNError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssumptionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return _assumption_status(exc.failing_parts)
    except HjbConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (AnalysisError, SimulatorInvariantError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
