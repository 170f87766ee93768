"""Command line behavior: exit codes, report documents, trace files."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

from conftest import INSTANCES
from psslab import cli
from psslab.cli import _parse_policy, main
from psslab.hjb import extract_policy, solve_hjb
from psslab.lp import analyze
from psslab.model import load_instance
from psslab.qcp import PolicySpec, SimulatorInvariantError, estimate_qcp_cost


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path_of(name: str) -> str:
    return str(INSTANCES / f"{name}.json")


def doc_of(out: str) -> dict:
    return json.loads(out)


def without_timing(out: str) -> str:
    doc = json.loads(out)
    del doc["timing"]
    return json.dumps(doc, indent=2, sort_keys=True)


def test_analyze_reports_exact_values(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", path_of("example_a"))
    assert code == 0
    doc = doc_of(out)
    an = doc["analysis"]
    assert an["rho_star"] == {"exact": "1", "approx": 1.0}
    assert [m["xi"][0]["exact"] for m in an["modes"]] == ["1/3", "1"]
    assert an["assumptions"]["all_pass"] is True
    assert an["assumptions"]["failing_parts"] == []
    assert an["dual"]["y"][0] == {"exact": "1/7", "approx": pytest.approx(1 / 7)}
    assert an["classification"] == ["potentially_basic"] * 4
    assert an["q"] == 0
    assert len(an["coefficients"]) == 2
    assert an["decomposition"]["status"] == "decomposable"
    assert doc["meta"]["command"] == "analyze"
    assert len(doc["meta"]["instance_sha256"]) == 64
    assert "timing" in doc


def test_analyze_assumption_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--instance", path_of("example_d"))
    assert code == 23
    an = doc_of(out)["analysis"]
    assert an["assumptions"]["failing_parts"] == [3]
    assert an["dual"] is None
    assert len(an["assumptions"]["dual_witnesses"]) == 2
    assert an["coefficients"] is None

    sub = json.loads((INSTANCES / "example_a.json").read_text())
    for c in sub["classes"]:
        c["lambda"] = str(json.loads(json.dumps(c["lambda"])))
    sub["classes"][0]["lambda"] = "1/2"
    sub["classes"][1]["lambda"] = "2/5"
    p = tmp_path / "sub.json"
    p.write_text(json.dumps(sub))
    code, out, _ = run(capsys, "analyze", "--instance", str(p))
    assert code == 21
    assert doc_of(out)["analysis"]["assumptions"]["critical"] is False


def test_unreadable_inputs(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--instance", str(tmp_path / "missing.json"))
    assert code == 10 and "i/o error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--instance", str(bad))
    assert code == 10 and "instance error" in err
    doc = json.loads((INSTANCES / "mm1.json").read_text())
    doc["classes"][0]["hat_lambda"] = float("nan")
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", "--instance", str(bad))
    assert code == 10 and "must be finite" in err


def test_solve_hjb_report_and_trace(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(
        capsys,
        "solve-hjb",
        "--instance",
        path_of("example_a2"),
        "--out",
        str(out_dir),
    )
    assert code == 0
    doc = doc_of(out)
    hjb = doc["hjb"]
    assert len(hjb["switch_points"]) == 1
    assert hjb["switch_points"][0] == pytest.approx(0.365, abs=5e-3)
    assert hjb["policy_intervals"][0]["mode"] == 0
    assert hjb["policy_intervals"][-1]["hi"] is None
    assert hjb["residual_max"] <= 1e-7
    assert hjb["dominant_mode"] is None
    assert doc["v0"] == pytest.approx(2.477, abs=2e-3)
    assert doc["q"] == 0

    report = out_dir / "solve-hjb-report.json"
    assert report.read_text().rstrip("\n") == out.rstrip("\n")
    with open(out_dir / "hjb-solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "series", "name", "value"]
    assert rows[1][1:3] == ["hjb", "u"]
    assert len(rows) == 1 + 4 * (hjb["grid_n"] + 1)


def test_solve_hjb_refuses_failing_instance(capsys):
    code, _, err = run(capsys, "solve-hjb", "--instance", path_of("example_d"))
    assert code == 23 and "dual not unique" in err


def test_sim_wcp_constant_mode(capsys):
    code, out, _ = run(
        capsys,
        "sim-wcp",
        "--instance",
        path_of("mm1"),
        "--policy",
        "static:0",
        "--step",
        "2e-3",
        "--horizon",
        "4",
        "--reps",
        "200",
    )
    assert code == 0
    doc = doc_of(out)
    assert doc["reference_u0"] == pytest.approx(1.0, abs=1e-12)
    assert doc["policy_intervals"] == [{"lo": 0.0, "hi": None, "mode": 0}]
    est = doc["estimate"]
    assert est["n_paths"] == 200
    assert abs(est["mean"] - 1.0) <= 0.15
    assert doc["paths"] == 200
    assert doc["path_steps"] == 200 * 2000
    code, _, err = run(
        capsys, "sim-wcp", "--instance", path_of("mm1"), "--policy", "static:7"
    )
    assert code == 10 and "out of range" in err


def test_sim_qcp_report_and_csv(capsys, tmp_path):
    out_dir = tmp_path / "q"
    code, out, _ = run(
        capsys,
        "sim-qcp",
        "--instance",
        path_of("mm1"),
        "--n",
        "25",
        "--policy",
        "static:0",
        "--horizon",
        "2",
        "--reps",
        "4",
        "--out",
        str(out_dir),
    )
    assert code == 0
    doc = doc_of(out)
    assert doc["policy"] == "static:0"
    assert doc["events"] > 0
    assert doc["checks"]["max_relative_violation"] <= 1e-8
    assert doc["identity_residual"] <= 1e-9
    assert doc["estimate"]["n_paths"] == 4
    with open(out_dir / "qcp-scaled.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "series", "name", "value"]
    names = {r[2] for r in rows[1:]}
    assert names == {"w", "f", "l", "l_an", "h", "x_hat[1]", "i_hat[1]"}


def test_sim_qcp_estimate_equals_estimate_qcp_cost(capsys):
    # sim-qcp reuses its recorded run as replication 0 of the estimate.
    code, out, _ = run(
        capsys,
        "sim-qcp",
        "--instance",
        path_of("example_a2"),
        "--n",
        "16",
        "--policy",
        "static:1",
        "--horizon",
        "2",
        "--reps",
        "3",
        "--seed",
        "8",
    )
    assert code == 0
    inst = load_instance(open(path_of("example_a2"), "rb").read())
    an = analyze(inst)
    est = estimate_qcp_cost(inst, an, 16, PolicySpec.static_mode(1), 3, horizon=2.0, seed=8)
    assert doc_of(out)["estimate"] == asdict(est)


def test_sim_qcp_wide_csv(capsys, tmp_path):
    out_dir = tmp_path / "w"
    code, out, _ = run(
        capsys,
        "sim-qcp",
        "--instance",
        path_of("mm1"),
        "--n",
        "16",
        "--policy",
        "priority",
        "--horizon",
        "1",
        "--reps",
        "1",
        "--out",
        str(out_dir),
        "--wide",
    )
    assert code == 0
    # One replication is the recorded trace alone, with no estimate.
    assert doc_of(out)["estimate"] is None
    with open(out_dir / "qcp-scaled.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "w", "f", "l", "l_an", "h", "x_hat[1]", "i_hat[1]"]
    assert all(len(r) == 8 for r in rows[1:])


def test_sim_qcp_failed_run_leaves_no_csv(capsys, tmp_path, monkeypatch):
    # qcp-scaled.csv is written a block at a time while the checks run; a
    # run whose identity check fails at the end leaves no file behind.
    streamed = cli.check_scaled

    def failing(run, n, analysis, on_block):
        streamed(run, n, analysis, on_block)
        raise SimulatorInvariantError("workload identity residual")

    monkeypatch.setattr(cli, "check_scaled", failing)
    argv = ["--n", "9", "--policy", "static:0", "--horizon", "1", "--reps", "1"]
    code, out, err = run(capsys, "sim-qcp", "--instance", path_of("mm1"), *argv, "--out", str(tmp_path))
    assert code == 30 and out == "" and "workload identity" in err
    assert not (tmp_path / "qcp-scaled.csv").exists()


def test_sim_qcp_minimum_n(capsys, tmp_path):
    doc = {
        "classes": [{"lambda": 1, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0}],
        "servers": 1,
        "activities": [{"i": 1, "k": 1, "mu": 1, "hat_mu": -3.0, "c2_s": 1.0}],
        "gamma": 1.0,
    }
    p = tmp_path / "neg.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "sim-qcp", "--instance", str(p), "--n", "4", "--policy", "static:0"
    )
    assert code == 10 and "smallest admissible n is 10" in err


def test_verify_bound_deterministic_report(capsys):
    argv = (
        "verify-bound",
        "--instance",
        path_of("mm1"),
        "--n-list",
        "25",
        "--policy",
        "static:0",
        "--reps",
        "6",
        "--horizon",
        "4",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2
    assert code1 in (0, 40)
    assert without_timing(out1) == without_timing(out2)
    doc = doc_of(out1)
    assert doc["verdict"] in ("PASS", "FAIL")
    assert doc["runs"][0]["policy"] == "static:0"
    assert doc["meta"]["config"]["n_list"] == [25]

    code, _, err = run(
        capsys, "verify-bound", "--instance", path_of("mm1"), "--n-list", "a,b"
    )
    assert code == 10 and "comma-separated" in err
    code, _, _ = run(capsys, "verify-bound", "--instance", path_of("example_d"))
    assert code == 23


@pytest.mark.parametrize(
    "argv,stages",
    [
        (
            ("verify-bound", "--n-list", "9", "--reps", "2", "--horizon", "1"),
            {"analyze", "hjb", "qcp"},
        ),
        (
            ("sim-qcp", "--n", "9", "--policy", "threshold", "--reps", "2", "--horizon", "1"),
            {"analyze", "hjb", "qcp", "scaled_checks"},
        ),
        (
            ("sim-wcp", "--step", "1e-2", "--reps", "2", "--horizon", "1"),
            {"analyze", "hjb", "wcp"},
        ),
        (("solve-hjb", "--grid-n", "100"), {"analyze", "hjb"}),
    ],
)
def test_stage_timings(capsys, argv, stages):
    code, out, _ = run(capsys, *argv, "--instance", path_of("example_a2"))
    assert code in (0, 40)
    timing = doc_of(out)["timing"]
    assert set(timing["stages"]) == stages
    assert all(v >= 0.0 for v in timing["stages"].values())
    assert sum(timing["stages"].values()) <= timing["seconds"]


def test_version_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sim-qcp", "--instance", path_of("mm1")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_reports_written_under_out(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, out, _ = run(
        capsys, "analyze", "--instance", path_of("example_b"), "--out", str(out_dir)
    )
    assert code == 0
    body = (out_dir / "analyze-report.json").read_text()
    assert body == out
    assert json.loads(body)["analysis"]["rho_star"]["exact"] == "1"


@pytest.mark.parametrize(
    "argv, env",
    [
        (["sim-wcp", "--step", "0"], None),
        (["sim-wcp", "--step", "-1"], None),
        (["sim-wcp", "--step", "nan"], None),
        (["sim-wcp", "--step", "0.1", "--horizon", "0.01"], None),
        (["sim-wcp", "--reps", "1"], None),
        (["sim-wcp", "--policy", "static:x"], None),
        (["solve-hjb", "--grid-n", "2"], None),
        (["solve-hjb", "--z-max", "-1"], None),
        (["sim-qcp", "--n", "4", "--horizon", "-1"], None),
        (["sim-qcp", "--n", "0"], None),
        (["sim-qcp", "--n", "4", "--reps", "2"], "abc"),
        (["verify-bound", "--reps", "1"], None),
        (["verify-bound", "--n-list", "25,0"], None),
        (["sim-wcp", "--seed", "-1"], None),
        (["sim-qcp", "--n", "25", "--seed", "-1"], None),
        (["verify-bound", "--seed", "-1"], None),
        # A superscript two is a digit to str.isdigit, but not to int().
        (["verify-bound", "--reps", "2"], "²"),
        # Malformed numbers are refused by the option types, not by argparse.
        (["solve-hjb", "--grid-n", "abc"], None),
        (["sim-wcp", "--step", "abc"], None),
        (["sim-qcp", "--n", "2.5"], None),
        (["verify-bound", "--reps", "x"], None),
        (["sim-wcp", "--seed", "1e3"], None),
        (["analyze", "--seed", "-5"], None),
        (["solve-hjb", "--seed", "-5"], None),
        # One replication records the trace alone; fewer is no run at all.
        (["sim-qcp", "--n", "4", "--reps", "0"], None),
        (["sim-qcp", "--n", "4", "--reps", "-3"], None),
        # More than 2**53 steps, over the default horizon or a given one.
        (["sim-wcp", "--step", "1e-300"], None),
        (["sim-wcp", "--step", "0.5", "--horizon", "1e300"], None),
    ],
)
def test_bad_options_exit_10(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("PSS_THREADS", raising=False)
    else:
        monkeypatch.setenv("PSS_THREADS", env)
    code, out, err = run(capsys, *argv[:1], "--instance", path_of("mm1"), *argv[1:])
    assert code == 10
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sim-qcp", "--n", "2.5"], "--n must be an integer, not '2.5'"),
        (["sim-wcp", "--step", "abc"], "--step must be a number, not 'abc'"),
        (["analyze", "--seed", "-5"], "--seed must be a nonnegative integer"),
    ],
    ids=["n", "step", "seed"],
)
def test_bad_option_values_named(capsys, argv, message):
    code, out, err = run(capsys, *argv[:1], "--instance", path_of("mm1"), *argv[1:])
    assert (code, out, err) == (10, "", f"error: {message}\n")


def test_too_fine_an_hjb_grid_exits_30(capsys):
    # --z-max 1e-300 over 4000 cells: dz^2 underflows to 0.
    argv = ["--instance", path_of("example_a2"), "--z-max", "1e-300"]
    code, out, err = run(capsys, "solve-hjb", *argv)
    assert code == 30 and out == ""
    assert err.startswith("solver error: grid step 2.5e-304 is too fine for floating point")


def test_n_list_checked_before_any_work(capsys, monkeypatch):
    def no_analysis(inst):
        raise AssertionError("analyze ran before --n-list was checked")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    code, out, err = run(
        capsys, "verify-bound", "--instance", path_of("mm1"), "--n-list", "25,x"
    )
    assert code == 10
    assert out == "" and err == "error: --n-list must be comma-separated integers\n"


BAD_POLICIES = ["static:0:junk", "threshold:foo", "priority:wc", "static:0:wc:wc", "static:-1", "static:01", "wc"]


@pytest.mark.parametrize(
    "command, policy",
    [
        pytest.param(command, policy, id=f"{policy}-{command}")
        for command in ("sim-qcp", "verify-bound", "sim-wcp")
        for policy in BAD_POLICIES
    ]
    + [
        # The prelimit policies are not diffusion policies.
        pytest.param("sim-wcp", policy, id=f"{policy}-sim-wcp")
        for policy in ("static:0:wc", "threshold", "priority")
    ],
)
def test_policy_grammar_is_strict(capsys, command, policy):
    # verify-bound checks every --policy, not just the first.
    first = {"sim-qcp": ["--n", "4"], "verify-bound": ["--policy", "threshold"], "sim-wcp": []}[command]
    code, out, err = run(
        capsys, command, "--instance", path_of("mm1"), *first, "--policy", policy
    )
    assert code == 10
    assert out == "" and err.startswith("error: unknown policy")


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["verify-bound", "--policy", "threshold", "--policy", "threshold:wc", "--n-list", "9"], 1),
        (["sim-qcp", "--policy", "static:0", "--n", "9"], 0),
        (["sim-wcp", "--policy", "static:0", "--step", "1e-2"], 0),
    ],
)
def test_hjb_solved_at_most_once(capsys, monkeypatch, argv, solves):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_hjb(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_hjb", counted)
    code, _, _ = run(
        capsys, *argv, "--instance", path_of("example_a2"), "--reps", "2", "--horizon", "0.5"
    )
    assert code in (0, 40)
    assert len(calls) == solves


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--step", "0.1", "--horizon", "0.01"], "horizon 0.01 is shorter than --step"),
        (["--step", "100"], "horizon 12.0 is shorter than --step"),
        (["--horizon", "inf"], "horizon inf is not a finite number"),
        (["--horizon", "nan"], "horizon nan is not a finite number"),
    ],
)
def test_sim_wcp_horizon_checked_before_any_work(capsys, monkeypatch, argv, message):
    # An explicit horizon is checked with the other options; the default,
    # 12 / gamma, once the instance is loaded.
    def no_analysis(inst):
        raise AssertionError("analyze ran before the horizon was checked")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    code, out, err = run(capsys, "sim-wcp", "--instance", path_of("mm1"), *argv)
    assert code == 10
    assert out == "" and err == f"error: {message}\n"


def test_sim_wcp_path_csv(capsys, tmp_path):
    out_dir = tmp_path / "p"
    code, out, _ = run(
        capsys,
        "sim-wcp",
        "--instance",
        path_of("example_a2"),
        "--step",
        "1e-2",
        "--horizon",
        "2",
        "--reps",
        "2",
        "--out",
        str(out_dir),
        "--wide",
    )
    assert code == 0
    with open(out_dir / "wcp-path.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z", "local_time", "mode"]
    assert len(rows) == 1 + 201 and rows[-1][0] == "2.0"
    # The mode column is the threshold policy's at each value.
    cut = doc_of(out)["policy_intervals"][0]["hi"]
    assert all(int(r[3]) == (float(r[1]) >= cut) for r in rows[1:])


def test_policy_labels_round_trip(get_instance, get_analysis):
    inst, an = get_instance("example_a2"), get_analysis("example_a2")
    solution = solve_hjb(an.coefficients, inst.gamma)
    specs = [
        PolicySpec.static_mode(m, work_conserving=wc) for m in range(len(an.modes)) for wc in (False, True)
    ] + [
        PolicySpec.workload_threshold(extract_policy(solution), work_conserving=wc) for wc in (False, True)
    ] + [PolicySpec.server_priority(inst.server_activities)]
    assert sorted(s.label for s in specs) == [
        "priority", "static:0", "static:0:wc", "static:1", "static:1:wc", "threshold", "threshold:wc"
    ]
    for spec in specs:
        parsed = _parse_policy(spec.label, an, lambda: solution)
        assert (parsed.selector, parsed.rules, parsed.label) == (spec.selector, spec.rules, spec.label)


def test_cli_import_and_analyze_leave_heavy_modules_unloaded():
    # Set-up time is the import and one analysis; the process pool, logging
    # and scipy are imported only by the calls that need them.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import contextlib, io, sys\n"
        "import psslab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert psslab.cli.main(['analyze', '--instance', {path_of('example_a2')!r}]) == 0\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging', 'scipy') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True
    )
    assert done.stdout == "[]\n"


# sha256 of sim-qcp's report without "timing", and of qcp-scaled.csv in
# long and wide form: example_a2 under the HJB threshold policy (its
# selector switches 165 times over the 5,269 event rows) and example_e
# under a work-conserving static mode (5,658 rows), seed 1, default horizon.
SIM_QCP_PINS = {
    ("example_a2", "threshold", "25"): (
        "0bfd5793270bef2e1425762a77a8c710ac4cd791393869fab2432fed98afcf04",
        "5f2a04fc6abd1e12adaaa6639a667ea071a25cfa1bc65aed0f419049f1ef64cb",
        "f1dba226a6bf9841717330c66f14aad7b363fc25ad2c08884075fbae3f45d77e",
    ),
    ("example_e", "static:1:wc", "16"): (
        "c306db83f2131b7030dda5197bcd760796586e198fb3d4fe0136c31b189aa686",
        "b1796c433d494694df2f728843bd4607e2e725128f6164515b2c90ae0b77de0f",
        "d01a3e525b2029a2977dd85ccf827b96b2498a995be8a8c3defc0cce43988676",
    ),
}


def _sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name,policy,n", sorted(SIM_QCP_PINS))
def test_sim_qcp_report_and_csv_pinned(capsys, tmp_path, name, policy, n):
    argv = ["sim-qcp", "--instance", path_of(name), "--n", n, "--policy", policy]
    argv += ["--reps", "2", "--seed", "1"]
    digests = []
    for form in ("long", "wide"):
        out_dir = tmp_path / form
        wide = ["--wide"] if form == "wide" else []
        code, out, _ = run(capsys, *argv, "--out", str(out_dir), *wide)
        assert code == 0
        if form == "long":
            digests.append(hashlib.sha256(without_timing(out).encode()).hexdigest())
        digests.append(_sha256_of(out_dir / "qcp-scaled.csv"))
    assert tuple(digests) == SIM_QCP_PINS[(name, policy, n)]
