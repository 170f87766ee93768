"""The benchmark's workloads.

Each workload is a batch job run in one process, one job at a time. Its
inputs come from the seed only: the CLI gets the seed as ``--seed`` and
generated instances as files. ``setup`` loads or generates the inputs and
makes a small warm-up call; ``run_round`` is the timed job and returns
the outputs to check and their digests; ``check`` is untimed.

Digests are sha256 of canonical JSON: CLI reports with ``timing``
dropped, and the LP results. Equal digests for a fixed seed mean
byte-identical reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from fractions import Fraction
from pathlib import Path

import psslab
from psslab import cli

from grids import lp_grid_instances

SHIPPED = ("example_a", "example_a1", "example_a2", "example_b", "example_c",
           "example_d", "example_e", "mm1")


def sha256_json(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """psslab's ``main`` in this process; returns (exit code, report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def report_digest(report: dict | None) -> str | None:
    if report is None:
        return None
    return sha256_json({k: v for k, v in report.items() if k != "timing"})


def lp_canonical(an) -> dict:
    """The LP results of an ``LpAnalysis``, exact values as strings."""

    def dual(d):
        return None if d is None else {"y": [str(v) for v in d.y], "z": [str(v) for v in d.z]}

    rep = an.assumptions
    dec = an.decomposition
    return {
        "rho_star": str(an.rho_star),
        "modes": [{"xi": [str(v) for v in m.xi], "degenerate": m.degenerate} for m in an.modes],
        "dual": dual(an.dual),
        "classification": None if an.classification is None else [c.value for c in an.classification],
        "q": an.q,
        "coefficients": None if an.coefficients is None else [[repr(b), repr(s)] for b, s in an.coefficients],
        "assumptions": {
            "failing_parts": list(rep.failing_parts),
            "load_witness": None if rep.load_witness is None else [str(v) for v in rep.load_witness],
            "dual_witnesses": None if rep.dual_witnesses is None else [dual(w) for w in rep.dual_witnesses],
        },
        "decomposition": {
            "status": dec.status,
            "alpha": None if dec.decomposition is None else [str(v) for v in dec.decomposition.alpha],
            "beta": None if dec.decomposition is None else [str(v) for v in dec.decomposition.beta],
        },
    }


def check(name: str, ok: bool, detail: object = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": str(detail)}


class Workload:
    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        # digests of results made during set-up, reported with each round's
        self.setup_digests: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> dict:
        """Timed job; returns {"digests": {...}, ...outputs for check}."""
        raise NotImplementedError

    def check(self, out: dict) -> list[dict]:
        raise NotImplementedError

    def figures(self, outs: list[dict]) -> dict:
        """Report-only end-to-end figures that apply to this workload alone."""
        return {}

    def load(self, path: Path):
        return psslab.load_instance(path.read_bytes())


class BoundA2(Workload):
    """``verify-bound`` then ``sim-qcp`` on example_a2 through the CLI."""

    N_LIST = "25,100,400"
    VERIFY_REPS = 4
    SIM_N = 400
    SIM_REPS = 2

    def setup(self) -> None:
        self.path = self.root / "instances" / "example_a2.json"
        self.inst = self.load(self.path)
        self.analysis = psslab.analyze(self.inst)
        self.setup_digests["lp:example_a2"] = sha256_json(lp_canonical(self.analysis))

    def run_round(self) -> dict:
        common = ["--instance", str(self.path), "--seed", str(self.seed)]
        verify = run_cli(["verify-bound", *common, "--n-list", self.N_LIST,
                          "--reps", str(self.VERIFY_REPS)])
        sim = run_cli(["sim-qcp", *common, "--n", str(self.SIM_N), "--policy", "threshold",
                       "--reps", str(self.SIM_REPS)])
        return {
            "digests": {"cli:verify-bound": report_digest(verify[1]),
                        "cli:sim-qcp": report_digest(sim[1])},
            "verify": verify,
            "sim": sim,
        }

    def check(self, out: dict) -> list[dict]:
        (v_code, v_rep), (s_code, s_rep) = out["verify"], out["sim"]
        viol = s_rep["checks"]["max_relative_violation"] if s_rep else math.inf
        # exact shadow of the workload identity on one n = 25 trace
        solution = psslab.solve_hjb(self.analysis.coefficients, self.inst.gamma)
        policy = psslab.PolicySpec.workload_threshold(psslab.extract_policy(solution))
        trace = psslab.run_qcp(self.inst, self.analysis, 25, policy, seed=self.seed, rep=0)
        residual = psslab.identity_residual_exact(trace, 25, self.analysis)
        return [
            check("verify-bound exit 0", v_code == 0, f"exit {v_code}"),
            check("sim-qcp exit 0", s_code == 0, f"exit {s_code}"),
            check("verify-bound verdict PASS", bool(v_rep) and v_rep["verdict"] == "PASS",
                  v_rep and v_rep["verdict"]),
            check("sim-qcp max_relative_violation <= 1e-8", viol <= 1e-8, repr(viol)),
            check("identity_residual_exact == 0 on an n=25 trace", residual == 0, str(residual)),
        ]


class WcpA2(Workload):
    """LP, HJB at two grid sizes, the WCP estimate under the extracted
    threshold policy, and one recorded WCP path, all on example_a2."""

    GRIDS = (4000, 64000)
    N_PATHS = 2048
    STEP = 1e-3

    def setup(self) -> None:
        self.inst = self.load(self.root / "instances" / "example_a2.json")
        an = psslab.analyze(self.inst)
        policy = psslab.extract_policy(psslab.solve_hjb(an.coefficients, self.inst.gamma))
        psslab.estimate_wcp_cost(policy, an.coefficients, self.inst.gamma, horizon=0.1,
                                 n_paths=2, seed=self.seed)

    def run_round(self) -> dict:
        inst = self.inst
        an = psslab.analyze(inst)
        solutions = {
            g: psslab.solve_hjb(an.coefficients, inst.gamma, psslab.HjbConfig(grid_n=g))
            for g in self.GRIDS
        }
        fine = solutions[self.GRIDS[-1]]
        policy = psslab.extract_policy(fine)
        cpu0 = time.process_time()
        est = psslab.estimate_wcp_cost(policy, an.coefficients, inst.gamma, step=self.STEP,
                                       n_paths=self.N_PATHS, seed=self.seed)
        est_cpu_s = time.process_time() - cpu0
        path = psslab.simulate_wcp(policy, an.coefficients, 0.0, self.STEP, est.horizon,
                                   self.seed, path_id=0)
        path_sha = hashlib.sha256()
        for arr in (path.times, path.values, path.local_time, path.mode_trace):
            path_sha.update(arr.tobytes())
        hjb_doc = {
            str(g): {"u0": repr(s.u0), "switch_points": [repr(float(z)) for z in s.switch_points],
                     "iterations": s.iterations, "residual_max": repr(s.residual_max)}
            for g, s in solutions.items()
        }
        est_doc = {k: repr(getattr(est, k)) for k in ("mean", "half_width_95", "n_paths",
                                                      "step", "horizon", "truncation_bound")}
        return {
            "digests": {"lp:example_a2": sha256_json(lp_canonical(an)),
                        "hjb": sha256_json(hjb_doc),
                        "wcp:estimate": sha256_json(est_doc),
                        "wcp:path": path_sha.hexdigest()},
            "est": est,
            "est_cpu_s": est_cpu_s,
            "u0": fine.u0,
        }

    def check(self, out: dict) -> list[dict]:
        est, u0 = out["est"], out["u0"]
        gap = abs(est.mean - u0)
        return [check("|mean - u0| <= 2 half_width_95", gap <= 2 * est.half_width_95,
                      f"mean {est.mean!r}, u0 {u0!r}, half width {est.half_width_95!r}")]

    def figures(self, outs: list[dict]) -> dict:
        # CPU-seconds to a 95% half-width of 1e-3, scaling by (hw / 1e-3)^2
        costs = [o["est_cpu_s"] * (o["est"].half_width_95 / 1e-3) ** 2 for o in outs]
        return {"cpu_s_to_hw_1e-3": {"value": statistics.median(costs), "unit": "s"}}


class LpGrid(Workload):
    """``analyze`` through the CLI on every shipped instance and on the
    seeded synthetic grids."""

    def setup(self) -> None:
        out_dir = self.scratch / f"lp-grid-seed{self.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {name: self.root / "instances" / f"{name}.json" for name in SHIPPED}
        self.generated = set()
        for name, raw in lp_grid_instances(self.seed).items():
            path = out_dir / f"{name}.json"
            path.write_bytes(raw)
            self.paths[name] = path
            self.generated.add(name)
        self.docs = {name: json.loads(path.read_bytes()) for name, path in self.paths.items()}
        for path in self.paths.values():
            self.load(path)
        run_cli(["analyze", "--instance", str(self.paths["mm1"])])

    def run_round(self) -> dict:
        results = {name: run_cli(["analyze", "--instance", str(path)])
                   for name, path in self.paths.items()}
        analyses = {name: rep and rep["analysis"] for name, (_, rep) in results.items()}
        digests = {f"cli:analyze:{name}": report_digest(rep) for name, (_, rep) in results.items()}
        digests["lp:all"] = sha256_json(analyses)
        return {"digests": digests, "results": results}

    def check(self, out: dict) -> list[dict]:
        checks = []
        for name, (code, rep) in out["results"].items():
            checks += _check_analysis(name, self.docs[name], code, rep, name in self.generated)
        return checks


def _exact(doc_value) -> Fraction:
    return Fraction(str(doc_value))


def _check_analysis(name: str, doc: dict, code: int, rep: dict | None, grid: bool) -> list[dict]:
    """Recheck one ``analyze`` report against its instance, in exact
    arithmetic and without psslab."""
    if rep is None:
        return [check(f"{name}: analyze report", False, f"exit {code}, no report")]
    a = rep["analysis"]
    parts = a["assumptions"]["failing_parts"]
    documented = 0 if a["assumptions"]["all_pass"] else 20 + (parts[0] if parts else 0)
    out = [check(f"{name}: exit code matches assumption status", code == documented,
                 f"exit {code}, documented {documented}")]
    rho = Fraction(a["rho_star"]["exact"])
    if grid:
        out.append(check(f"{name}: rho* = 1 and all assumptions pass",
                         rho == 1 and a["assumptions"]["all_pass"], f"rho* {rho}"))
    lam = [_exact(c["lambda"]) for c in doc["classes"]]
    acts = [(act["i"] - 1, act["k"] - 1, _exact(act["mu"])) for act in doc["activities"]]
    bad = []
    for mode in a["modes"]:
        xi = [Fraction(v["exact"]) for v in mode["xi"]]
        served = [Fraction(0)] * len(lam)
        load = [Fraction(0)] * doc["servers"]
        for (i, k, mu), x in zip(acts, xi):
            served[i] += mu * x
            load[k] += x
        if served != lam or any(v > rho for v in load) or any(v < 0 for v in xi):
            bad.append(mode["index"])
    out.append(check(f"{name}: every mode has R xi = lambda, G xi <= rho*, xi >= 0",
                     not bad and bool(a["modes"]), f"failing modes {bad}"))
    if a["classification"] is not None:
        used = {j for m in a["modes"] for j, v in enumerate(m["xi"]) if Fraction(v["exact"]) != 0}
        basic = {j for j, c in enumerate(a["classification"]) if c == "potentially_basic"}
        out.append(check(f"{name}: union of mode supports = potentially basic set",
                         used == basic, f"supports {sorted(used)}, basic {sorted(basic)}"))
    return out


WORKLOADS = {"bound-a2": BoundA2, "wcp-a2": WcpA2, "lp-grid": LpGrid}
