"""One workload in one process: set-up, timed rounds, untimed checks.

Started by run.py; prints one JSON object as its last stdout line. With
--setup-only it stops after set-up and reports only the set-up time.

The timed phase repeats the workload's round while the next round is
expected to end within --seconds, and runs at least one round. With
--trace 1, rounds alternate untraced and traced (at least one of each),
so the tracing overhead is measured in the same process.
"""

import time

T0 = time.perf_counter()  # before the heavy imports: they are set-up time

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import psslab

    expected = (ROOT / "src" / "psslab").resolve()
    if Path(psslab.__file__).resolve().parent != expected:
        print(f"psslab imported from {psslab.__file__}, not {expected}", file=sys.stderr)
        return 2
    from layers import HOOKS, layer_metrics, replay
    from spans import Tracer
    from workloads import WORKLOADS, check

    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT)
    tracer = Tracer(HOOKS) if args.trace else None
    if tracer:
        tracer.install("setup")
    try:
        workload.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        phase = f"round{len(rounds)}"
        if traced:
            tracer.install(phase)
        error = None
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = workload.run_round()
        except Exception:
            out, error = None, traceback.format_exc()
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        rounds.append({"phase": phase, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "out": out, "error": error})
        if error:
            break
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = [check(f"{r['phase']} completed", r["error"] is None, r["error"] or "")
              for r in rounds]
    done = [r for r in rounds if r["error"] is None]
    digests = {}
    if done:
        first = done[0]
        digests = {**workload.setup_digests, **first["out"]["digests"]}
        for r in done[1:]:
            kind = "traced" if r["traced"] else "untraced"
            same = r["out"]["digests"] == first["out"]["digests"]
            checks.append(check(f"{r['phase']} ({kind}) outputs equal round0's", same))
        try:
            checks += workload.check(first["out"])
        except Exception:
            checks.append(check("workload checks ran", False, traceback.format_exc()))

    untraced = [r for r in done if not r["traced"]]
    traced_rounds = [r for r in done if r["traced"]]
    result = {
        "setup_s": setup_s,
        "rounds": [{k: r[k] for k in ("phase", "traced", "wall_s", "cpu_s")} for r in rounds],
        "wall_s": statistics.median(r["wall_s"] for r in untraced) if untraced else None,
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced) if untraced else None,
        "peak_rss_mb": peak_rss_mb,
        "figures": workload.figures([r["out"] for r in untraced]) if untraced else {},
        "checks": checks,
        "digests": digests,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "psslab": psslab.__version__},
    }
    if tracer and untraced and traced_rounds:
        overhead = (statistics.median(r["wall_s"] for r in traced_rounds)
                    - statistics.median(r["wall_s"] for r in untraced))
        replayed = replay(tracer, traced_rounds[0]["phase"])
        per_round = [layer_metrics(tracer, r["phase"], replayed, overhead) for r in traced_rounds]
        layers = per_round[0]
        for name, entry in layers.items():
            if entry["status"] == "ok":
                entry["value"] = statistics.median(m[name]["value"] for m in per_round)
        result["layers"] = layers
        result["missing_hooks"] = sorted(tracer.missing)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
