"""psslab benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload bound-a2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; psslab is imported from its
``src/``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With --trace 0 the
metrics are the end-to-end metrics BENCHMARK.json declares; with
--trace 1 its per-layer metrics. The lines before it print every figure
with its unit, including those that apply to one workload only, the
checks that failed, output digests and provenance. The full report is
written to ``.bench_out/``.

Exit status is 0 whenever a result is printed, even when a correctness
check failed (``correct`` is then false), and 2 when no result can be
produced, for example outside a checkout that holds ``src/psslab``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median over these and the run
DEADLINE_S = 170  # the whole invocation must end within 180 s


class BenchError(Exception):
    pass


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the package sources, to identify the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "psslab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "psslab" / "__init__.py").is_file():
        print(f"no psslab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    pss_threads_removed = env.pop("PSS_THREADS", None) is not None
    OUT.mkdir(exist_ok=True)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(run_worker(worker_args + ["--setup-only"], env, deadline)["setup_s"])
        res = run_worker(worker_args, env, deadline)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    setup.append(res["setup_s"])

    figures = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": res["wall_s"], "unit": "s"},
        "cpu_s": {"value": res["cpu_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        **res["figures"],
    }
    layers = res.get("layers", {})
    checks = res["checks"]
    failed = sum(not c["ok"] for c in checks)
    provenance = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **res["versions"],
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PSS_THREADS": "unset" + (" (removed from the environment)" if pss_threads_removed else ""),
    }

    declared = spec["per_layer" if args.trace else "end_to_end"]
    source = layers if args.trace else figures
    metrics = {}
    for m in declared:
        got = source.get(m["name"])
        # a failed round may leave a metric unmeasured; correct is then false
        if (got is None and not failed) or (got is not None and got["unit"] != m["unit"]):
            print(f"metric {m['name']} [{m['unit']}] is not produced as declared", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": got and got["value"], "unit": m["unit"]}

    report = {
        "provenance": provenance,
        "rounds": res["rounds"],
        "end_to_end": figures,
        "failed_share": failed / len(checks),
        "checks": checks,
        "digests": res["digests"],
        "layers": layers,
        "missing_hooks": res.get("missing_hooks", []),
        "spans_file": res.get("spans_file"),
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds "
          + " ".join(f"{r['wall_s']:.3f}s{'(traced)' if r['traced'] else ''}" for r in res["rounds"]))
    if args.trace:
        for name, m in layers.items():
            value = m["value"] if m["status"] == "ok" else m["status"]
            print(f"  {name:34s} {fmt(value):>14s} {m['unit']:6s} moves {m['moves']}")
    else:
        for name, m in figures.items():
            print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
        print(f"  setup_s samples: {' '.join(f'{v:.4f}' for v in setup)}")
    print(f"  failed_share {failed / len(checks):.6g} ({failed} of {len(checks)} checks failed)")
    for c in checks:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail'].strip()[-2000:]}")
    for name, digest in sorted(res["digests"].items()):
        print(f"  digest {name} {digest}")
    print("  provenance " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"  report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
