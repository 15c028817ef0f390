"""One fresh benchmark process: set up, then solve a workload's cases in
whole rounds until the run length has passed.

Prints `ready` once set-up is done (imports, and `setup_geometry` for each
level of the workload), then, at the end, one JSON line with the per-round
results. The final state and frozen stabilization wind of every case go to an
`.npz` file for the correctness checks. Usage (normally started by run.py):

    python3 perfbench/worker.py --workload lu-l5 --seed 1 --seconds 10 \
        --trace 0 --out perfbench/out/run
"""

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter

import tracing
import workloads


def solve_rounds(bench, cases, seconds, rec):
    """Solve the cases in order, round after round, until `seconds` have
    passed at the end of a round; returns (rounds, case results, states)."""
    rounds, results, states = [], [], {}
    begin = perf_counter()
    while True:
        wall = 0.0
        for case in cases:
            key = len(results)
            rec.case = f"{len(rounds)}:{case.id}"
            rec.captured.clear()
            start = perf_counter()
            try:
                res = bench.run_case(case.spec())
            except Exception:         # the case fails; the round goes on
                res, error = None, traceback.format_exc(limit=3)
            took = perf_counter() - start
            wall += took
            rec.case = None
            row = {"key": key, "case": case.id, "seconds": took,
                   "error": None, "newton_iters": 0, "fgmres_per_step": [],
                   "linear_converged": [], "converged": False}
            if res is None:
                row["error"] = error
            else:
                row.update(newton_iters=res.newton_iters,
                           fgmres_per_step=res.fgmres_per_step,
                           linear_converged=res.linear_converged,
                           converged=res.converged)
                state = rec.captured["state"]
                states.update({f"{key}.v": state.v, f"{key}.zeta": state.zeta,
                               f"{key}.mu": state.mu, f"{key}.p": state.p,
                               f"{key}.stab": rec.captured["stab_wind"]})
            results.append(row)
        done = results[-len(cases):]
        rounds.append({"wall_s": wall,
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                       "newton_iters": sum(r["newton_iters"] for r in done),
                       "fgmres_iters": sum(sum(r["fgmres_per_step"])
                                           for r in done)})
        if perf_counter() - begin >= seconds:
            return rounds, results, states


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="exit once set-up is done")
    p.add_argument("--out", help="path prefix of the state (.npz) and "
                                 "trace (.trace.json) files")
    args = p.parse_args(argv)

    workloads.limit_blas_threads()
    workloads.import_nsctl()
    import numpy as np
    from nsctl import bench
    from nsctl.grid_fem import setup_geometry

    cases = workloads.case_order(args.workload, args.seed)
    for level in sorted({c.level for c in cases}):
        setup_geometry(level)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = tracing.Recorder()
    tracing.install(rec, trace=bool(args.trace))
    rounds, results, states = solve_rounds(bench, cases, args.seconds, rec)
    summary = {"rounds": rounds, "results": results}
    if args.trace:
        summary["layers"] = tracing.layer_metrics(rec.spans, rec.values,
                                                  len(rounds), results)
        rec.write(args.out + ".trace.json")
    np.savez(args.out + ".npz", **states)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
