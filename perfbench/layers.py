"""Per-layer metrics: which psslab functions are traced, and what is
derived from their spans.

Layers are the package's modules: ``model``, ``lp`` with ``exactlp``,
``hjb``, ``wcp``, ``qcp`` and ``cli``. Every metric names the end-to-end
metric it should move and on which workload (``moves``), so a change in
an end-to-end figure can be traced to one layer.

Metrics cover one traced round, except ``model.load_instance.s``, which
covers the traced set-up because instance loading is set-up work.
"""

from __future__ import annotations

import tracemalloc

from spans import Hook, Tracer

QCP_N = (25, 100, 400)
HJB_GRIDS = (4000, 64000)
LP_STAGES = (
    "enumerate_modes",
    "solve_dual",
    "solve_primal",
    "validate_assumptions",
    "classify_activities",
    "check_decomposable",
)


def _hjb_grid(arguments: dict) -> str:
    config = arguments.get("config")
    if config is None:
        from psslab.hjb import HjbConfig

        config = HjbConfig()
    return f"grid{config.grid_n}"


def _wcp_summary(est) -> dict:
    return {
        "path_steps": est.n_paths * int(round(est.horizon / est.step)),
        "half_width_95": est.half_width_95,
    }


HOOKS = (
    Hook("psslab.model", "load_instance"),
    Hook("psslab.lp", "analyze", summary=lambda r: {"modes": len(r.modes)}),
    *(Hook("psslab.lp", name) for name in LP_STAGES),
    Hook("psslab.exactlp", "solve_lp"),
    Hook("psslab.exactlp", "solve_square"),
    Hook("psslab.hjb", "solve_hjb", label=_hjb_grid, summary=lambda r: {"iterations": r.iterations}),
    Hook("psslab.wcp", "estimate_wcp_cost", summary=_wcp_summary, keep_args=True),
    Hook("psslab.wcp", "simulate_wcp"),
    Hook("psslab.qcp", "estimate_qcp_cost", label=lambda a: f"n{a['n']}", keep_args=True),
    Hook("psslab.qcp", "run_qcp"),
    Hook("psslab.qcp", "compute_scaled"),
    Hook("psslab.qcp", "check_trace_inequalities"),
    Hook("psslab.cli", "main"),
)

LP = "wall_s on lp-grid"
WCP = "wall_s and cpu_s_to_hw_1e-3 on wcp-a2"
QCP = "wall_s and cpu_s on bound-a2 (n400 is the blocking share)"

# name -> (unit, end-to-end metric it should move, on which workload)
METRICS: dict[str, tuple[str, str]] = {
    "lp.analyze.s": ("s", LP),
    "lp.analyze.calls": ("count", LP),
    "lp.analyze.max_s": ("s", LP),
    **{f"lp.{name}.calls": ("count", LP) for name in LP_STAGES},
    **{f"lp.{name}.s": ("s", LP) for name in LP_STAGES},
    "exactlp.solve_lp.calls": ("count", LP),
    "exactlp.solve_square.calls": ("count", LP),
    "lp.modes": ("count", LP),
    **{f"hjb.solve_hjb.s.grid{g}": ("s", "wall_s on wcp-a2, under 1%; regression watch") for g in HJB_GRIDS},
    "hjb.iterations": ("count", "wall_s on wcp-a2, under 1%; regression watch"),
    "wcp.estimate_wcp_cost.s": ("s", WCP),
    "wcp.path_steps": ("count", WCP),
    "wcp.ns_per_path_step": ("ns", WCP),
    "wcp.half_width_95": ("1", "cpu_s_to_hw_1e-3 on wcp-a2"),
    "wcp.simulate_wcp.s": ("s", "wall_s on wcp-a2"),
    "wcp.peak_traced_mb": ("MB", "peak_rss_mb on wcp-a2"),
    **{f"qcp.estimate_qcp_cost.s.n{n}": ("s", QCP) for n in QCP_N},
    **{f"qcp.events.n{n}": ("count", QCP) for n in QCP_N},
    **{f"qcp.us_per_event.n{n}": ("us", QCP) for n in QCP_N},
    "qcp.run_qcp.s": ("s", "wall_s and peak_rss_mb on bound-a2"),
    "qcp.compute_scaled.s": ("s", "wall_s and peak_rss_mb on bound-a2"),
    "qcp.check_trace_inequalities.s": ("s", "wall_s and peak_rss_mb on bound-a2"),
    "cli.main.self_s": ("s", "nothing; regression watch"),
    "model.load_instance.s": ("s", "setup_s on every workload"),
    "trace.overhead_s": ("s", "nothing; traced minus untraced round wall time"),
}


def replay(tracer: Tracer, phase: str) -> dict:
    """Untimed re-runs of recorded calls, for figures tracing cannot give
    without distorting the timed spans.

    QCP events: each recorded ``estimate_qcp_cost`` call is replayed rep by
    rep through public ``run_qcp`` on the same (seed, rep) streams.
    WCP memory: each recorded ``estimate_wcp_cost`` call is repeated under
    tracemalloc, which slows it about 2.5x.
    """
    import psslab.qcp
    import psslab.wcp

    events: dict[str, int | None] = {}
    peak_mb = None
    run_qcp = getattr(psslab.qcp, "run_qcp", None)
    for span in tracer.spans:
        if span.phase != phase:
            continue
        if span.key == "qcp.estimate_qcp_cost":
            if run_qcp is None:
                events[span.label] = None
                continue
            a = span.args
            total = events.get(span.label, 0)
            for rep in range(a["n_reps"]):
                trace = run_qcp(
                    a["inst"], a["analysis"], a["n"], a["policy"],
                    horizon=a["horizon"], seed=a["seed"], rep=rep,
                )
                total += len(trace.times) - 2
            events[span.label] = total
        elif span.key == "wcp.estimate_wcp_cost":
            tracemalloc.start()
            try:
                psslab.wcp.estimate_wcp_cost(**span.args)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            peak_mb = peak if peak_mb is None else max(peak_mb, peak)
    return {"events": events, "peak_traced_mb": peak_mb}


MISSING = "missing"


def _ratio(num, den, scale):
    if MISSING in (num, den):
        return MISSING
    return num / den * scale if den else None


def layer_metrics(tracer: Tracer, phase: str, replayed: dict, overhead_s: float) -> dict:
    """name -> {"value", "unit", "moves", "status"}. status is "ok";
    "missing" when a traced function no longer exists; or "n/a" for a
    ratio or result whose base this workload never exercises. value is
    None unless status is "ok"."""
    spans = [s for s in tracer.spans if s.phase == phase]
    setup = [s for s in tracer.spans if s.phase == "setup"]
    self_s = tracer.self_seconds(phase)

    def of(key, within=spans):
        return MISSING if key in tracer.missing else [s for s in within if s.key == key]

    def calls(key):
        found = of(key)
        return found if found == MISSING else len(found)

    def seconds(key, label=None, within=spans):
        found = of(key, within)
        if found == MISSING:
            return found
        return sum((s.seconds for s in found if label is None or s.label == label), 0.0)

    def summed(key, field):
        found = of(key)
        return found if found == MISSING else sum(s.summary[field] for s in found)

    def last(key, field):
        found = of(key)
        return found if found == MISSING else (found[-1].summary[field] if found else None)

    analyze = of("lp.analyze")
    v = {
        "lp.analyze.s": seconds("lp.analyze"),
        "lp.analyze.calls": calls("lp.analyze"),
        "lp.analyze.max_s": analyze if analyze == MISSING else max((s.seconds for s in analyze), default=0.0),
        "exactlp.solve_lp.calls": calls("exactlp.solve_lp"),
        "exactlp.solve_square.calls": calls("exactlp.solve_square"),
        "lp.modes": summed("lp.analyze", "modes"),
        "hjb.iterations": summed("hjb.solve_hjb", "iterations"),
        "wcp.estimate_wcp_cost.s": seconds("wcp.estimate_wcp_cost"),
        "wcp.path_steps": summed("wcp.estimate_wcp_cost", "path_steps"),
        "wcp.half_width_95": last("wcp.estimate_wcp_cost", "half_width_95"),
        "wcp.simulate_wcp.s": seconds("wcp.simulate_wcp"),
        "wcp.peak_traced_mb": replayed["peak_traced_mb"],
        "qcp.run_qcp.s": seconds("qcp.run_qcp"),
        "qcp.compute_scaled.s": seconds("qcp.compute_scaled"),
        "qcp.check_trace_inequalities.s": seconds("qcp.check_trace_inequalities"),
        "cli.main.self_s": MISSING if "cli.main" in tracer.missing else self_s.get("cli.main", 0.0),
        "model.load_instance.s": seconds("model.load_instance", within=setup),
        "trace.overhead_s": overhead_s,
    }
    if "wcp.estimate_wcp_cost" in tracer.missing:
        v["wcp.peak_traced_mb"] = MISSING
    for name in LP_STAGES:
        v[f"lp.{name}.calls"] = calls(f"lp.{name}")
        v[f"lp.{name}.s"] = seconds(f"lp.{name}")
    for g in HJB_GRIDS:
        v[f"hjb.solve_hjb.s.grid{g}"] = seconds("hjb.solve_hjb", f"grid{g}")
    v["wcp.ns_per_path_step"] = _ratio(v["wcp.estimate_wcp_cost.s"], v["wcp.path_steps"], 1e9)
    for n in QCP_N:
        est_s = seconds("qcp.estimate_qcp_cost", f"n{n}")
        events = replayed["events"].get(f"n{n}", 0)
        if est_s == MISSING or events is None:
            events = MISSING
        v[f"qcp.estimate_qcp_cost.s.n{n}"] = est_s
        v[f"qcp.events.n{n}"] = events
        v[f"qcp.us_per_event.n{n}"] = _ratio(est_s, events, 1e6)

    out = {}
    for name, (unit, moves) in METRICS.items():
        value = v[name]
        status = "missing" if value == MISSING else "n/a" if value is None else "ok"
        out[name] = {
            "value": value if status == "ok" else None,
            "unit": unit,
            "moves": moves,
            "status": status,
        }
    return out
