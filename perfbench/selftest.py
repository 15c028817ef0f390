"""Self-test of the benchmark on level-2 cases, in a few seconds:

- tracing records every per-layer metric, and the self times of all spans
  sum to no more than the round's `wall_s`;
- the checks pass the solver's own outputs and reject deliberately perturbed
  ones, a failed case, and a beta sweep whose tracking term grows.

    python3 perfbench/selftest.py

Exits 0 when every expectation holds, and with a message otherwise.
"""

import sys
from dataclasses import replace

import workloads


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def main():
    workloads.limit_blas_threads()
    workloads.import_nsctl()
    import numpy as np
    from nsctl import bench
    from nsctl.grid_fem import setup_geometry
    from nsctl.operators import StateIterate

    import checks
    import tracing
    import worker

    cases = [workloads.Case(2, 1 / 100, beta, False) for beta in (1e-1, 1e-3)]
    rec = tracing.Recorder()
    tracing.install(rec, trace=True)
    rounds, results, states = worker.solve_rounds(bench, cases, 0.0, rec)
    expect(len(rounds) == 1 and all(r["error"] is None for r in results),
           "the level-2 cases did not solve in one round")

    layers = tracing.layer_metrics(rec.spans, rec.values, 1, results)
    missing = set(tracing.LAYER_METRICS) - set(layers) - {"trace.overhead_s"}
    expect(not missing, f"per-layer metrics not reported: {missing}")
    expect(layers["newton.steps"] == rounds[0]["newton_iters"],
           "newton.steps differs from the round's Newton count")
    own = tracing.self_times(rec.spans)
    expect(min(own) >= 0.0, "a negative self time")
    expect(sum(own) <= rounds[0]["wall_s"],
           f"self times sum to {sum(own)} s, more than wall_s")
    print(f"{len(own)} spans: self times sum to {sum(own):.4f} s, "
          f"wall_s {rounds[0]['wall_s']:.4f} s")

    checker = checks.Checker(workloads.checkout_root() / "perfbench" / "out"
                             / "reference")
    failed, correct, messages = checker.check_rounds(results, states, cases)
    expect((failed, correct) == (0, True),
           f"solver output rejected: {messages}")

    good = StateIterate(v=states["0.v"], zeta=states["0.zeta"],
                        mu=states["0.mu"], p=states["0.p"])
    stab = states["0.stab"]
    interior = np.ones_like(good.v, dtype=bool)
    dm = setup_geometry(2).dofmap
    interior[dm.boundary_vdofs] = False
    perturbed = {
        "interior velocity": replace(good, v=good.v + 1e-2 * interior),
        "boundary velocity": replace(good, v=good.v + 1e-9 * ~interior),
        "boundary adjoint": replace(good, zeta=good.zeta + 1e-9 * ~interior),
        "multiplier mean": replace(good, mu=good.mu + 1e-6),
    }
    rejected = {}
    for what, bad in perturbed.items():
        rejected[what], _, _ = checker.check_case(cases[0], bad, stab)
        expect(rejected[what], f"perturbed {what} passed the checks")
        print(f"perturbed {what}: rejected: " + "; ".join(rejected[what]))
    expect(any("from the reference" in f
               for f in rejected["interior velocity"]),
           "the reference check passed a perturbed velocity")

    unconverged = [dict(results[0], converged=False), results[1]]
    failed, correct, _ = checker.check_rounds(unconverged, states, cases)
    expect((failed, correct) == (1, True),
           "an unconverged case was not counted as failed")

    t_big = checker.mass_norm(2, good.v)
    sweep = checks.check_sweep({cases[0]: (t_big, 0.0),
                                cases[1]: (t_big * 1.001, 0.0)})
    expect(cases[1] in sweep, "a growing tracking term passed")
    print("unconverged case counted as failed; growing tracking term "
          "rejected")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
