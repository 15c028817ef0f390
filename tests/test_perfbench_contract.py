"""The names and keywords by which the benchmark harness in perfbench/ calls
and wraps the package: its tracing replaces module attributes, its worker
captures the frozen stabilization wind from a keyword argument, and its
correctness checks solve the pinned step system directly. A change to any of
these call sites breaks the benchmark, so it must fail here first."""

import importlib
import sys
from pathlib import Path

import numpy as np

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.insert(0, _PERFBENCH)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from nsctl import bench  # noqa: E402
from nsctl.grid_fem import setup_geometry  # noqa: E402
from nsctl.newton import NewtonConfig, newton_solve  # noqa: E402
from nsctl.operators import KktParams, _level_operators  # noqa: E402


def test_traced_attributes_exist_and_are_callable():
    for module, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_install_captures_state_and_frozen_stabilization_wind(monkeypatch):
    """The worker's capture of the final state and of the `stab_wind`
    keyword, with every traced span installed; monkeypatch restores each
    replaced attribute afterwards."""
    newton = importlib.import_module("nsctl.newton")
    targets = [(m, a) for m, a, _ in tracing.TRACED] \
        + [("nsctl.bench", "newton_solve"), ("nsctl.newton", "eval_residual")]
    for module, attr in targets:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    calls = []
    real = newton.eval_residual

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(newton, "eval_residual", recording)
    rec = tracing.Recorder()
    tracing.install(rec, trace=True)
    rec.case = "l2"
    result = bench.run_case(bench.CaseSpec(level=2, nu=0.01, beta=1e-2))
    rec.case = None

    assert result.converged
    assert calls and all("stab_wind" in kw for kw in calls)
    assert np.any(calls[-1]["stab_wind"] != 0.0)
    assert rec.captured["stab_wind"] is calls[-1]["stab_wind"]
    assert rec.captured["state"].v.shape == calls[-1]["stab_wind"].shape
    # the multigrid AL stack calls every function behind the per-layer
    # counts through its module, after tracing is installed
    names = {span[0] for span in rec.spans}
    assert {"operators.build_kkt", "operators.augment",
            "precond.build_precond", "krylov.chebyshev_solve",
            "precond.matching_apply", "precond.al_outer_schur_apply",
            "precond.build_multigrid", "krylov.gmres"} <= names


def test_reference_solution_and_mass_norm(tmp_path):
    """The direct-solve reference reaches its tolerance on the pinned step
    systems, and the solver's velocity lies within the checks' bound of it
    in the mass norm."""
    geom = setup_geometry(2)
    params = KktParams(nu=0.01, beta=1e-2)
    ref, rel = checks.reference_solution(geom, params)
    assert rel <= checks.REF_TOL

    checker = checks.Checker(tmp_path)
    m = _level_operators(2, geom.quad.order).m_full
    assert checker.mass_norm(2, ref.v) == np.sqrt(ref.v @ (m @ ref.v))
    state, trace = newton_solve(NewtonConfig(), params, geom)
    assert trace.converged
    dist = checker.mass_norm(2, state.v - ref.v)
    assert dist <= checks.REF_RTOL * checker.mass_norm(2, ref.v)


def test_correctness_checks_accept_solved_cases(monkeypatch, tmp_path):
    """Two level-2 cases solved as the worker solves them, with the final
    state and frozen stabilization wind captured by `tracing.install`, pass
    every correctness check: boundary data, zero means, the residual at the
    captured wind, the reference solution and the beta sweep."""
    for module, attr in (("nsctl.bench", "newton_solve"),
                         ("nsctl.newton", "eval_residual")):
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    cases = [workloads.Case(2, 1 / 100, beta, False) for beta in (1e-1, 1e-3)]
    rec = tracing.Recorder()
    tracing.install(rec, trace=False)
    _, results, states = worker.solve_rounds(bench, cases, 0.0, rec)
    assert checks.Checker(tmp_path).check_rounds(results, states, cases) \
        == (0, True, [])
