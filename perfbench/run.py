"""The nsctl solver benchmark: run one workload in fresh processes, check
every case, print the metrics as one JSON line.

    python3 perfbench/run.py --workload al-mg-l4 --seed 1 --seconds 10 --trace 0

With `--trace 0` it prints the end-to-end metrics: `wall_s` (median round
time to solve all the workload's cases), `setup_s` (median, over
SETUP_SAMPLES processes, of the time from process start to the first
solve), `newton_iters` and `fgmres_iters` (per round), and `peak_rss_mb` (by
the end of the first round). With `--trace 1` it runs the workload untraced
and then traced, each in its own process, and prints the per-layer metrics
of the traced process plus `trace.overhead_s`, the traced `wall_s` minus the
untraced one. The last line of standard output is the result; a copy of
it, and the traced run's spans, are written under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
import workloads

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a failed case)."""


def spawn(args, prefix, seconds=0.0, trace=0, setup_only=False):
    """Run one worker process; returns (setup seconds, summary or None)."""
    cmd = [sys.executable, str(workloads.checkout_root() / "perfbench" /
                               "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out", prefix]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def check(checker, summary, prefix, cases):
    """Check one worker's cases against its state file, then delete it."""
    import numpy as np
    with np.load(prefix + ".npz") as data:
        arrays = {k: data[k] for k in data.files}
    os.remove(prefix + ".npz")
    return checker.check_rounds(summary["results"], arrays, cases)


def repeats(summary, key):
    """The per-round count, and whether every round gave the same."""
    values = [r[key] for r in summary["rounds"]]
    return values[0], len(set(values)) == 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    workloads.limit_blas_threads()
    workloads.import_nsctl()
    import checks

    out_dir = workloads.checkout_root() / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prefix = str(out_dir / tag)
    cases = workloads.WORKLOADS[args.workload]

    runs = []                         # (summary, state file prefix)
    if args.trace == 0:
        setups = [spawn(args, prefix, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, summary = spawn(args, prefix, args.seconds)
        setups.append(setup_s)
        runs.append((summary, prefix))
    else:
        _, base = spawn(args, prefix + ".untraced", args.seconds)
        _, summary = spawn(args, prefix, args.seconds, trace=1)
        runs += [(base, prefix + ".untraced"), (summary, prefix)]

    checker = checks.Checker(out_dir / "reference")
    attempted = failed = 0
    correct = True
    for run, run_prefix in runs:
        n_failed, ok, messages = check(checker, run, run_prefix, cases)
        attempted += len(run["results"])
        failed += n_failed
        correct = correct and ok
        for msg in messages:
            print("FAILED " + msg, file=sys.stderr)

    wall_s = statistics.median(r["wall_s"] for r in summary["rounds"])
    if args.trace == 0:
        newton_iters, same_newton = repeats(summary, "newton_iters")
        fgmres_iters, same_fgmres = repeats(summary, "fgmres_iters")
        if not (same_newton and same_fgmres):
            correct = False
            print("FAILED iteration counts differ between rounds",
                  file=sys.stderr)
        metrics = {"wall_s": (wall_s, "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "newton_iters": (newton_iters, "count"),
                   "fgmres_iters": (fgmres_iters, "count"),
                   "peak_rss_mb": (summary["rounds"][0]["peak_rss_mb"], "MB")}
    else:
        layers = dict(summary["layers"])
        layers["trace.overhead_s"] = wall_s - statistics.median(
            r["wall_s"] for r in base["rounds"])
        metrics = {k: (layers[k], unit)
                   for k, unit in tracing.LAYER_METRICS.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    with open(prefix + ".result.json", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
