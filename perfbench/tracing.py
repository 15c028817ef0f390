"""Spans around the calls into each module of nsctl, recorded from outside it.

Each function is wrapped where its caller looks it up (`nsctl.newton` calls
its own imported name `build_kkt`, so that is the attribute replaced). A span
holds a name, a start, an end, the index of its parent span and the case id;
spans are kept in memory and written out once, when the run ends. Calls made
outside a case (set-up, the correctness checks) are not recorded.
"""

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module whose attribute is replaced, attribute, span name = layer.function)
TRACED = (
    ("nsctl.bench", "run_case", "bench.run_case"),
    ("nsctl.bench", "setup_geometry", "grid_fem.setup_geometry"),
    ("nsctl.bench", "newton_solve", "newton.newton_solve"),
    ("nsctl.newton", "build_kkt", "operators.build_kkt"),
    ("nsctl.newton", "eval_residual", "operators.eval_residual"),
    ("nsctl.newton", "build_precond", "precond.build_precond"),
    ("nsctl.newton", "fgmres", "krylov.fgmres"),
    ("nsctl.newton", "outer_p2_apply", "precond.outer_p2_apply"),
    ("nsctl.operators", "assemble_velocity", "operators.assemble_velocity"),
    ("nsctl.operators", "assemble_pressure", "operators.assemble_pressure"),
    ("nsctl.operators", "assemble_divergence", "operators.assemble_divergence"),
    ("nsctl.operators", "augment", "operators.augment"),
    ("nsctl.precond", "factorize", "krylov.factorize"),
    ("nsctl.precond", "gmres", "krylov.gmres"),
    ("nsctl.precond", "chebyshev_solve", "krylov.chebyshev_solve"),
    ("nsctl.precond", "build_multigrid", "precond.build_multigrid"),
    ("nsctl.precond", "matching_apply", "precond.matching_apply"),
    ("nsctl.precond", "al_outer_schur_apply", "precond.al_outer_schur_apply"),
)

# per-layer metric -> unit; `.s` is inclusive time, `.self_s` excludes the
# time of traced children, all per round of the workload
LAYER_METRICS = {
    "grid_fem.setup_geometry.s": "s",
    "operators.build_kkt.calls": "count",
    "operators.build_kkt.s": "s",
    "operators.assemble_velocity.calls": "count",
    "operators.assemble_velocity.s": "s",
    "operators.assemble_pressure.s": "s",
    "operators.assemble_divergence.s": "s",
    "operators.augment.s": "s",
    "operators.eval_residual.self_s": "s",
    "krylov.factorize.calls": "count",
    "krylov.factorize.s": "s",
    "krylov.factorize.fill_nnz": "count",
    "krylov.fgmres.self_s": "s",
    "krylov.gmres.calls": "count",
    "krylov.gmres.self_s": "s",
    "krylov.chebyshev_solve.calls": "count",
    "krylov.chebyshev_solve.s": "s",
    "precond.build_precond.s": "s",
    "precond.build_multigrid.calls": "count",
    "precond.build_multigrid.s": "s",
    "precond.outer_p2_apply.calls": "count",
    "precond.matching_apply.calls": "count",
    "precond.matching_apply.s": "s",
    "precond.al_outer_schur_apply.s": "s",
    "precond.multigrid.cycle_flops": "flop",
    "newton.newton_solve.s": "s",
    "newton.steps": "count",
    "newton.linear_unconverged": "count",
    "bench.run_case.self_s": "s",
    "trace.overhead_s": "s",
}


def lu_fill(fact):
    """Nonzeros of L + U in a `krylov.Factorization`."""
    return fact._lu.nnz


def cycle_flops(mg):
    """Floating-point operations of one V-cycle of a `precond.Multigrid`,
    computed from its matrix and star sizes (not measured)."""
    from nsctl.precond import MG_SWEEPS
    flops = 2 * lu_fill(mg.coarse)                    # coarse triangular solves
    for op, p, groups in zip(mg.ops, mg.prolongations, mg.smoothers):
        n = op.shape[0]
        for s in groups:
            stars, k = s.dofs.shape
            # residual on the stars, dense star solves, update
            flops += MG_SWEEPS * (2 * s.rows.nnz + 2 * stars * k * k
                                  + 2 * stars * k)
        # fine residual, restriction, prolongation and correction
        flops += 2 * op.nnz + n + 4 * p.nnz + n
    return flops


# span name -> the value its call adds to the named per-layer total
VALUES = {
    "krylov.factorize": ("krylov.factorize.fill_nnz", lu_fill),
    "precond.build_multigrid": ("precond.multigrid.cycle_flops", cycle_flops),
}


class Recorder:
    """Spans and captured outputs of the cases solved in one process."""

    def __init__(self):
        self.case = None              # id of the case being solved, or None
        self.spans = []               # (name, start, end, parent, case)
        self.values = defaultdict(float)
        self.captured = {}            # outputs of the current case
        self._stack = []

    def span(self, name, fn):
        value = VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.case is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.case)
            if value is not None:
                self.values[value[0]] += value[1](out)
            return out
        return wrapper

    def capture(self, key, fn, pick):
        """Wrap `fn` so that `pick(kwargs, result)` of its last call inside a
        case is kept under `key`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.case is not None:
                self.captured[key] = pick(kwargs, out)
            return out
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans}, fh)


def install(rec, trace):
    """Capture each case's final state and frozen stabilization wind; with
    `trace`, also record a span for every call listed in TRACED."""
    bench = importlib.import_module("nsctl.bench")
    newton = importlib.import_module("nsctl.newton")
    bench.newton_solve = rec.capture("state", bench.newton_solve,
                                     lambda kw, out: out[0])
    newton.eval_residual = rec.capture("stab_wind", newton.eval_residual,
                                       lambda kw, out: kw["stab_wind"])
    if trace:
        for module, attr, name in TRACED:
            mod = importlib.import_module(module)
            setattr(mod, attr, rec.span(name, getattr(mod, attr)))


def self_times(spans):
    """Each span's duration minus the durations of its child spans."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, values, rounds, results):
    """Per-layer totals per round, from the spans and the case results."""
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += own

    out = {}
    for metric in LAYER_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[name] / rounds
        elif kind == "s":
            out[metric] = incl[name] / rounds
        elif kind == "self_s":
            out[metric] = self_s[name] / rounds
    fill = values["krylov.factorize.fill_nnz"]
    out["krylov.factorize.fill_nnz"] = fill / rounds
    builds = calls["precond.build_multigrid"]
    out["precond.multigrid.cycle_flops"] = (
        values["precond.multigrid.cycle_flops"] / builds if builds else 0.0)
    out["newton.steps"] = sum(r["newton_iters"] for r in results) / rounds
    out["newton.linear_unconverged"] = sum(
        r["linear_converged"].count(False) for r in results) / rounds
    return out
