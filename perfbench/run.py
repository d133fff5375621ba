"""bergext benchmark runner.

    python3 perfbench/run.py --workload {disk_jet,cross_ext,norms,all} \\
        --seed N --seconds S --trace {0,1}

Runs one workload in its own worker process, after set-up probes, and prints
a table of metrics, a provenance line, and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. ``--trace 0`` reports
the end-to-end metrics declared in BENCHMARK.json, ``--trace 1`` the
per-layer ones. ``--workload all`` runs every workload in turn and ends with
one JSON object keyed by workload. Results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("disk_jet", "cross_ext", "norms")
# Set-up is sampled this many times per run (probes plus the worker itself);
# setup_s is their median.
SETUP_SAMPLES = 5
# Every process of one workload's run must end within this many seconds plus
# three times --seconds: a traced run times half of --seconds untraced, the
# last round can overrun, and the traced rounds run slower.
DEADLINE_MARGIN = 80.0
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["BERGEXT_WORKERS"] = "1"
    # one hash seed, so that sympy's set and dict orders match from run to run
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, deadline):
    """Run the worker; return (its JSON report, seconds from spawn to ready)."""
    t0 = clock()
    timeout = deadline - t0
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, stdout=subprocess.PIPE, text=True,
                              env=worker_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out after %.0fs" % timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with code %d" % proc.returncode)
    doc = json.loads(lines[-1])
    return doc, doc["ready"] - t0


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT)] + list(cmd), text=True,
                              capture_output=True, timeout=30, check=True).stdout

    try:
        return {"sha": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def run_workload(workload, seed, seconds, trace):
    deadline = clock() + DEADLINE_MARGIN + 3 * seconds
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(common + ["--seconds", "0", "--setup-only"], deadline)[1]
              for _ in range(SETUP_SAMPLES - 1)]
    doc, setup = spawn(common + ["--seconds", repr(seconds), "--trace", str(trace)],
                       deadline)
    setups.append(setup)
    end_to_end, per_layer = declared()
    if trace:
        values = doc["layers"]
        wanted = per_layer
    else:
        values = dict(doc["summary"], setup_s=statistics.median(setups),
                      peak_rss_mb=doc["peak_rss_mb"])
        wanted = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("worker did not report %s" % ", ".join(missing))
    attempted, failed = doc["attempted"], len(doc["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    extra = {"fail_frac": failed / attempted, "setup_samples_s": setups}
    if "task_p90_s" in values:
        extra["task_p90_s"] = values["task_p90_s"]
    provenance = dict(git_state(), workload=workload, seed=seed, seconds=seconds,
                      trace=trace, nproc=len(os.sched_getaffinity(0)),
                      blas_threads=BLAS_THREADS, bergext_workers=1,
                      **doc["versions"])
    OUT_DIR.mkdir(exist_ok=True)
    record = {"result": result, "extra": extra, "provenance": provenance,
              "failures": doc["failures"], "spans_file": doc.get("spans_file")}
    path = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(workload, record):
    result, extra = record["result"], record["extra"]
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, extra[k], "s" if k.endswith("_s") else "fraction")
             for k in ("fail_frac", "task_p90_s") if k in extra]
    for name, value, unit in rows:
        print("%-10s %-34s %14.6g %s" % (workload, name, value, unit))
    print("%-10s %-34s %14d of %d" % (workload, "failed", result["failed"],
                                        result["attempted"]))
    for f in record["failures"][:5]:
        print("%-10s failed task %d (%s): %s"
              % (workload, f["task"], f["kind"], f["problem"]))
    print(json.dumps({"provenance": record["provenance"]}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            print_record(name, record)
            results[name] = record["result"]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
