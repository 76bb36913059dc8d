#!/usr/bin/env python3
"""Run one workload of the toricmirror benchmark and print its metrics.

    python3 perfbench/run.py --workload solve|query|verify --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer sums of one
traced round (see ``spans.py``).  The full result, with the run's metadata and
every op, goes to ``perfbench/results/<workload>-seed<N>-trace<T>.json``, and a
traced run's spans to ``perfbench/results/<workload>-seed<N>.spans.jsonl``.
"""

import os

# One thread for any BLAS/OpenMP pool numpy may start; set before it loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _import_program():
    """Import toricmirror from this checkout's src/, or say why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toricmirror
    except ImportError as exc:
        return f"cannot import toricmirror from {src}: {exc}"
    where = Path(toricmirror.__file__).resolve().parent
    if where != src / "toricmirror":
        return f"toricmirror was imported from {where}, not from {src}"
    return None


def _metadata(args):
    from toricmirror.linalg import QQ

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toricmirror").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "qq_backend": f"{QQ.__module__}.{QQ.__name__}",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _timed(wl, state, op, tracer=None, op_id=None):
    """Run one op inside the timed region; return (seconds, output, error)."""
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out, err = wl.run(state, op), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    return dt, out, err


def _outcome(wl, state, op, out, err):
    """'ok', 'known-fault' or 'wrong', with the reason; checked outside the timing."""
    import workloads

    if err is not None:
        kind = type(err).__name__
        if op.known_fault == kind:
            return "known-fault", f"{kind}: {err}"
        return "wrong", f"{kind}: {err}"
    try:
        wl.check(state, op, out)
    except workloads.WrongAnswer as exc:
        return "wrong", str(exc)
    except Exception as exc:  # the program raised while its output was checked
        return "wrong", f"{type(exc).__name__} in the check: {exc}"
    return "ok", None


def _play(wl, state, ops, log, tracer=None):
    """Time and check each op of one round; append a record per op to log."""
    for op in ops:
        dt, out, err = _timed(wl, state, op, tracer, len(log))
        status, reason = _outcome(wl, state, op, out, err)
        del out
        log.append({"op": op.name, "ms": dt * 1e3, "status": status, "reason": reason})


def _finish(wl, state):
    """The whole-run checks: None, or what they found wrong."""
    import workloads

    try:
        wl.finish(state)
    except workloads.WrongAnswer as exc:
        return str(exc)
    except Exception as exc:  # the program raised on a check: a wrong answer too
        return f"{type(exc).__name__}: {exc}"
    return None


def _summary(log, finish_problem=None):
    return {
        "correct": finish_problem is None and all(r["status"] != "wrong" for r in log),
        "attempted": len(log),
        "failed": sum(r["status"] != "ok" for r in log),
    }


def run(args):
    """Run the workload; return (printed result, full result)."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    # Set-up is repeated and its median reported, so one slow spell of the
    # machine does not decide setup_s.
    for _ in range(1 if args.trace else wl.SETUP_PASSES):
        state = None  # let the previous set-up's data go before building again
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    rounds = wl.rounds(state)
    full = {"setup_s_each": setup_times}

    if args.trace:
        ops = next(rounds)
        plain = []
        _play(wl, state, ops, plain)
        tracer = spans.Tracer([workloads])
        tracer.install()
        log = []
        try:
            _play(wl, state, ops, log, tracer)
            finish_problem = _finish(wl, state)
        finally:
            tracer.uninstall()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
        metrics = tracer.metrics()
        traced_ms = sum(r["ms"] for r in log)
        plain_ms = sum(r["ms"] for r in plain)
        metrics["trace.ops_ms"] = traced_ms
        metrics["trace.untraced_ops_ms"] = plain_ms
        metrics["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        full["untraced_ops"] = plain
    else:
        log = []
        while sum(r["ms"] for r in log) < args.seconds * 1e3:
            _play(wl, state, next(rounds), log)
        finish_problem = _finish(wl, state)
        ok_ms = sorted(r["ms"] for r in log if r["status"] == "ok")
        if not ok_ms:
            raise SystemExit(f"perfbench: no op of {args.workload} completed: {log[0]['reason']}")
        busy_s = sum(r["ms"] for r in log) / 1e3
        metrics = {
            "setup_s": args.import_s + statistics.median(setup_times),
            "op_p50_ms": statistics.median(ok_ms),
            "ops_per_s": len(ok_ms) / busy_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(ok_ms) >= 100:
            full["op_p90_ms"] = statistics.quantiles(ok_ms, n=10)[-1]
        units = dict(END_TO_END)
        full["import_s"] = args.import_s
    result = _summary(log, finish_problem)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    full.update(result, ops=log, finish_problem=finish_problem)
    return result, full


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "query", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds; whole rounds run until they are spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    problem = _import_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (imports the program's modules)
    args.import_s = time.perf_counter() - t0

    meta = _metadata(args)
    result, full = run(args)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, **full}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
