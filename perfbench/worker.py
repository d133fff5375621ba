"""One benchmark process: set up, run one workload's tasks, report as JSON.

Run by ``run.py``; the last line of standard output is a JSON object. The
process imports bergext from the checkout's ``src`` directory, generates the
seeded task stream, warms up, and prints its ready time on the system-wide
monotonic clock, which the parent subtracts from its spawn time to get the
set-up time. With ``--setup-only`` it stops there.

Timed tasks run one at a time (a closed loop with one client). Each task's
wall time covers only its bergext calls; output checks run afterwards and
are not timed. A run takes whole rounds until the time budget is spent, so
every run does the same mix of task kinds.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_bergext():
    src = ROOT / "src"
    if not (src / "bergext" / "__init__.py").is_file():
        raise SystemExit("no bergext package under %s" % src)
    sys.path.insert(0, str(src))
    bx = importlib.import_module("bergext")
    for sub in ("functionals", "sweeps", "cli"):
        importlib.import_module("bergext." + sub)
    if Path(bx.__file__).resolve().parent != (src / "bergext").resolve():
        raise SystemExit("imported bergext from %s, not from %s" % (bx.__file__, src))
    return bx


def versions():
    import numpy as np
    import sympy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "sympy": sympy.__version__, "blas": blas}


def timed_pass(bx, batches, budget, workloads, tracer=None):
    """Run whole rounds until ``budget`` seconds have passed; return the
    rounds run, each task's wall time, and the failures."""
    done, durations, failures = [], [], []
    start = clock()
    for batch in batches:
        for task_id, kind, params in batch:
            run, check = workloads.KINDS[kind]
            if tracer is not None:
                tracer.task, tracer.active = task_id, True
            t0 = clock()
            try:
                out, problem = run(bx, params), None
            except Exception as exc:  # a failing task is counted, not fatal
                out, problem = None, "%s: %s" % (type(exc).__name__, exc)
            durations.append(clock() - t0)
            if tracer is not None:
                tracer.active = False
            if problem is None:
                try:
                    problem = check(bx, params, out)
                except Exception as exc:  # a malformed output fails its check
                    problem = "check raised %s: %s" % (type(exc).__name__, exc)
            if problem:
                failures.append({"task": task_id, "kind": kind, "params": params,
                                 "problem": problem[:500]})
        done.append(batch)
        if clock() - start >= budget:
            break
    return done, durations, failures


def summarize(durations):
    n = len(durations)
    out = {"tasks_per_s": n / sum(durations),
           "task_p50_s": statistics.median(durations)}
    if n >= 100:
        out["task_p90_s"] = statistics.quantiles(durations, n=10)[-1]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bx = import_bergext()
    sys.path.insert(0, str(HERE))
    import workloads

    stream = workloads.rounds(args.workload, args.seed)
    first = next(stream)
    workloads.warm_up(bx, args.workload)
    ready = clock()
    doc = {"ready": ready, "versions": versions()}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    batches = itertools.chain([first], stream)
    if not args.trace:
        _, durations, failures = timed_pass(bx, batches, args.seconds, workloads)
        doc["summary"] = summarize(durations)
    else:
        import spans

        # as many rounds untraced, then traced: their difference in task rate
        # is the tracing overhead. The traced rounds are fresh ones, because
        # repeating a task finds sympy's caches already filled.
        done, plain, failures = timed_pass(bx, batches, args.seconds / 2,
                                           workloads)
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            _, durations, traced_failures = timed_pass(
                bx, itertools.islice(stream, len(done)), float("inf"), workloads,
                tracer)
        finally:
            uninstall()
        failures += traced_failures
        layers = spans.layer_metrics(tracer.spans, len(durations))
        layers["trace.overhead_tasks_per_s"] = (
            summarize(durations)["tasks_per_s"] - summarize(plain)["tasks_per_s"])
        doc["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        tracer.write(path)
        doc["spans_file"] = str(path.relative_to(ROOT))
        durations = plain + durations
    doc["attempted"] = len(durations)
    doc["failures"] = failures
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
