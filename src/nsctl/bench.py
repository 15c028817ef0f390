"""Benchmark CLI: define cavity control cases, run parameter sweeps and emit
iteration-count tables.

The problem is the lid-driven cavity with zero forcing and zero desired
state; the benchmark reports Newton counts and average FGMRES iterations per
Newton step, pivoted the same way the result tables group them (one block per
viscosity, rows over levels, columns over the regularization sweep).
"""

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from scipy.io import mmwrite

from .grid_fem import check_level, setup_geometry
from .newton import newton_solve
from .operators import KktParams

log = logging.getLogger("nsctl.bench")

JSON_SCHEMA = "nsctl-bench/1"
CSV_COLUMNS = ["level", "dof", "nu", "beta", "gamma", "precond", "approach",
               "newton_iters", "avg_fgmres", "converged", "runtime_s"]


@dataclass
class CaseSpec:
    """One benchmark case. Construction validates it: the level by
    `check_level`, the rest by building `params` (KktParams), which
    `run_case` solves with."""

    level: int
    nu: float
    beta: float
    gamma: float = None               # al only; defaults to 10 / sqrt(beta)
    precond: str = "al"               # "al" | "bpcd" | "ideal"
    approach: str = "otd"             # "otd" | "dto"
    full_newton: bool = False
    lps: bool = True
    exact_blocks: bool = False
    tol_linear: float = 1e-6
    tol_newton: float = 1e-5

    def __post_init__(self):
        check_level(self.level)
        self.params = KktParams(
            nu=self.nu, beta=self.beta, gamma=self.gamma, lps_on=self.lps,
            approach=self.approach, full_newton=self.full_newton,
            precond=self.precond, exact_blocks=self.exact_blocks,
            tol_newton=self.tol_newton, tol_linear=self.tol_linear)
        self.gamma = self.params.gamma


@dataclass
class CaseResult:
    """One solved case; a case that raised keeps the defaults and its
    `error`."""

    spec: CaseSpec
    dof: int = 0
    newton_iters: int = 0
    avg_fgmres: int = 0
    fgmres_per_step: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    step_seconds: list = field(default_factory=list)
    linear_converged: list = field(default_factory=list)
    converged: bool = False
    runtime_s: float = 0.0
    error: str = None


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def _parse_number(tok):
    """Float literal, or a fraction like 1/250 as the tables label them."""
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return float(num) / float(den)
        return float(tok)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed number {tok!r}") from None


def _comma_list(parse):
    """argparse type of a comma list: `parse` of each non-blank item, and
    at least one item."""
    def comma_list(text):
        items = [parse(t) for t in text.split(",") if t.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return items
    return comma_list


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser():
    p = argparse.ArgumentParser(
        prog="nsctl-bench",
        description="Cavity flow-control benchmark: Newton/FGMRES iteration counts.")
    p.add_argument("--level", required=True, type=_comma_list(int),
                   help="mesh level(s), comma separated")
    p.add_argument("--nu", default="1/100", type=_comma_list(_parse_number),
                   help="viscosity value(s); accepts 0.01 or 1/100 (default 1/100)")
    p.add_argument("--beta", default="1e-2", type=_comma_list(_parse_number),
                   help="regularization value(s), comma separated (default 1e-2)")
    p.add_argument("--gamma", default=None, type=_parse_number,
                   help="al augmentation parameter (default 10/sqrt(beta))")
    p.add_argument("--precond", default="al", choices=["al", "bpcd", "ideal"])
    p.add_argument("--approach", default="otd", choices=["otd", "dto"])
    p.add_argument("--lps", default="on", choices=["on", "off"],
                   help="local-projection stabilization (default on)")
    p.add_argument("--full-newton", action="store_true",
                   help="keep the adjoint curvature blocks")
    p.add_argument("--exact-blocks", action="store_true",
                   help="LU solves instead of Chebyshev and multigrid "
                        "inside the al and bpcd stacks")
    p.add_argument("--tol-linear", type=float, default=1e-6)
    p.add_argument("--tol-newton", type=float, default=1e-5)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default="csv", choices=list(_WRITERS))
    p.add_argument("--export-matrices", default=None, metavar="DIR",
                   dest="export_dir",
                   help="write per-step KKT blocks in Matrix Market format")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel cases (default 1, deterministic)")
    return p


def parse_config(argv=None):
    """Parse CLI arguments into (list of CaseSpec, the argparse namespace).

    Comma lists sweep the cross product in (level, nu, beta) order. An
    `--out` that names a directory, or a file in a missing one, is rejected
    here: the sweep runs before the output is opened.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.out is not None and (os.path.isdir(ns.out) or not os.path.isdir(
            os.path.dirname(ns.out) or ".")):
        parser.error(f"--out {ns.out!r} is not a file in an existing directory")
    try:
        specs = [CaseSpec(level=l, nu=nu, beta=beta, gamma=ns.gamma,
                          precond=ns.precond, approach=ns.approach,
                          full_newton=ns.full_newton,
                          lps=(ns.lps == "on"),
                          exact_blocks=ns.exact_blocks,
                          tol_linear=ns.tol_linear,
                          tol_newton=ns.tol_newton)
                 for l in ns.level for nu in ns.nu for beta in ns.beta]
    except ValueError as exc:
        parser.error(str(exc))
    return specs, ns


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def _case_tag(spec):
    return f"l{spec.level}_nu{spec.nu:g}_beta{spec.beta:g}_{spec.precond}"


def _make_exporter(spec, export_dir):
    if export_dir is None:
        return None
    case_dir = os.path.join(export_dir, _case_tag(spec))
    os.makedirs(case_dir, exist_ok=True)

    def exporter(k, system):
        blocks = {"a11": system.a11, "a12": system.a12, "a21": system.a21,
                  "a22": system.a22, "b": system.b}
        for name, mat in blocks.items():
            mmwrite(os.path.join(case_dir, f"{name}_{spec.level}_{k}.mtx"),
                    mat, field="real", symmetry="general")

    return exporter


def run_case(spec: CaseSpec, export_dir=None) -> CaseResult:
    """Execute one benchmark case."""
    t0 = time.perf_counter()
    geom = setup_geometry(spec.level)
    _, trace = newton_solve(spec.params, geom,
                            on_system=_make_exporter(spec, export_dir))
    return CaseResult(
        spec=spec, dof=geom.dofmap.coupled_dim,
        newton_iters=trace.newton_iters, avg_fgmres=trace.avg_fgmres,
        fgmres_per_step=list(trace.fgmres_iters),
        residuals=[float(r) for r in trace.residuals],
        step_seconds=[float(t) for t in trace.step_seconds],
        linear_converged=list(trace.linear_converged),
        converged=trace.converged,
        runtime_s=time.perf_counter() - t0)


def _run_case_guarded(args):
    spec, export_dir = args
    try:
        return run_case(spec, export_dir)
    except Exception as exc:  # keep the sweep alive; report per row
        log.exception("case %s failed", _case_tag(spec))
        return CaseResult(spec=spec, error=f"{type(exc).__name__}: {exc}")


def run_sweep(specs, jobs=1, export_dir=None):
    """Run all cases (in spec order) and build pivot tables.

    Returns (results, pivots); failures are recorded per row, not raised.
    """
    if not specs:
        raise ValueError("empty sweep")
    work = [(spec, export_dir) for spec in specs]
    if jobs > 1:
        # the pool forks all its workers at start: no more than the cases
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            results = list(pool.map(_run_case_guarded, work))
    else:
        results = [_run_case_guarded(w) for w in work]
    return results, pivot_tables(results)


def pivot_tables(results):
    """Group results the way the benchmark tables present them: one table per
    (metric, preconditioner, nu), level rows by beta columns, with a dagger
    marking runs whose Newton iteration did not converge."""
    tables = []
    groups = sorted({(r.spec.precond, r.spec.approach, r.spec.nu)
                     for r in results}, key=lambda t: (t[0], t[1], -t[2]))
    for metric in ("avg_fgmres", "newton_iters"):
        for precond, approach, nu in groups:
            sub = [r for r in results if (r.spec.precond, r.spec.approach,
                                          r.spec.nu) == (precond, approach, nu)]
            levels = sorted({r.spec.level for r in sub})
            betas = sorted({r.spec.beta for r in sub}, reverse=True)
            cell = {}
            for r in sub:
                val = "failed" if r.error else str(getattr(r, metric))
                if not r.converged and not r.error:
                    val += "†"
                cell[(r.spec.level, r.spec.beta)] = val
            rows = [[str(l)] + [cell.get((l, b), "") for b in betas]
                    for l in levels]
            tables.append({
                "title": f"{metric}, precond={precond}, approach={approach}, "
                         f"nu={nu:g}",
                "header": ["l \\ beta"] + [f"{b:.0e}" for b in betas],
                "rows": rows,
            })
    return tables


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _csv_text(results):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        s = r.spec
        writer.writerow([s.level, r.dof, repr(s.nu), repr(s.beta),
                         "" if s.gamma is None else repr(s.gamma),
                         s.precond, s.approach,
                         r.newton_iters, r.avg_fgmres,
                         str(r.converged).lower(), f"{r.runtime_s:.3f}"])
    return buf.getvalue()


def _json_text(results):
    payload = {"schema": JSON_SCHEMA,
               "results": [asdict(r) for r in results]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_results(path):
    """Read back a JSON emit; inverse of emit(..., format='json'). The
    `seed` that cases carried in earlier versions of the format is
    ignored, and so is the `gamma` they echoed on bpcd and ideal rows."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != JSON_SCHEMA:
        raise ValueError(f"unknown schema {payload.get('schema')!r}")
    out = []
    for d in payload["results"]:
        d = dict(d)
        legacy = {"seed"} if d["spec"].get("precond") == "al" \
            else {"seed", "gamma"}
        d["spec"] = CaseSpec(**{k: v for k, v in d["spec"].items()
                                if k not in legacy})
        out.append(CaseResult(**d))
    return out


def _md_table(table):
    lines = ["### " + table["title"], ""]
    lines.append("| " + " | ".join(table["header"]) + " |")
    lines.append("|" + "|".join(["---"] * len(table["header"])) + "|")
    for row in table["rows"]:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _md_text(results):
    parts = ["# Cavity control benchmark", ""]
    for table in pivot_tables(results):
        parts.append(_md_table(table))
        parts.append("")
    parts.append("## Cases")
    parts.append("")
    parts.append("```")
    parts.append(_csv_text(results).rstrip("\n"))
    parts.append("```")
    return "\n".join(parts) + "\n"


_WRITERS = {"csv": _csv_text, "json": _json_text, "md": _md_text}


def emit(results, fmt, path=None):
    """Write results in the requested format to path (or stdout)."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    text = _WRITERS[fmt](results)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def main(argv=None):
    name = os.environ.get("NSCTL_LOG", "WARNING")
    # getLevelName maps a registered level name to its number
    if not isinstance(logging.getLevelName(name.upper()), int):
        sys.stderr.write(f"nsctl-bench: error: NSCTL_LOG={name!r} is not a log "
                         "level; use DEBUG, INFO, WARNING, ERROR or CRITICAL\n")
        sys.exit(2)
    logging.basicConfig(level=name.upper(),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    specs, opts = parse_config(argv)
    results, pivots = run_sweep(specs, jobs=opts.jobs,
                                export_dir=opts.export_dir)
    emit(results, opts.format, opts.out)
    if opts.out is not None:
        for table in pivots:
            sys.stdout.write(_md_table(table) + "\n\n")
    failed = [r for r in results if r.error]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
