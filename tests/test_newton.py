"""Newton driver behavior on small cavities."""

import logging
import weakref

import numpy as np
import pytest

import nsctl.newton as newton_mod
import nsctl.operators as operators_mod
from nsctl.krylov import KrylovConfig
from nsctl.newton import (NewtonConfig, NewtonTrace, convergence_check,
                          initial_state, newton_solve)
from nsctl.newton import _newton_step
from nsctl.operators import KktParams, KktSystem, StateIterate, build_kkt


@pytest.fixture(scope="module")
def l3_run(geom3):
    params = KktParams(nu=0.01, beta=1e-2)
    cfg = NewtonConfig()
    seen = []
    state, trace = newton_solve(cfg, params, geom3,
                                on_system=lambda k, s: seen.append((k, s.dim)))
    return state, trace, seen


def test_convergence_check_truth_table():
    cfg = NewtonConfig(tol=1e-5)
    ok = NewtonTrace(residuals=[1.0, 9e-6])
    assert convergence_check(ok, cfg)
    not_yet = NewtonTrace(residuals=[1.0, 2e-5])
    assert not convergence_check(not_yet, cfg)
    start = NewtonTrace(residuals=[1.0])
    assert not convergence_check(start, cfg)
    # absolute floor guards zero and near-zero data
    zero = NewtonTrace(residuals=[0.0])
    assert convergence_check(zero, cfg)
    tiny = NewtonTrace(residuals=[5e-13, 4e-13])
    assert convergence_check(tiny, cfg)


def test_trace_average_rounding():
    assert NewtonTrace(fgmres_iters=[5, 6]).avg_fgmres == 6
    assert NewtonTrace(fgmres_iters=[3, 4]).avg_fgmres == 4
    assert NewtonTrace(fgmres_iters=[2, 3, 3]).avg_fgmres == 3
    assert NewtonTrace(fgmres_iters=[7]).avg_fgmres == 7
    assert NewtonTrace().avg_fgmres == 0


def test_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(tol=1.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iters=0)
    with pytest.raises(ValueError):
        NewtonConfig(precond="ilu")
    cfg = NewtonConfig()
    assert isinstance(cfg.linear, KrylovConfig)
    assert (cfg.linear.restart, cfg.linear.maxiter) == (10, 200)


def test_zero_data_state_is_a_fixed_point(geom2):
    d = geom2.dofmap
    state = StateIterate(v=np.zeros(d.n_v_full), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p))
    params = KktParams(nu=0.01, beta=1e-2)
    cfg = NewtonConfig()
    new_state, stats, _ = _newton_step(
        state, cfg, params, geom2, wind=np.zeros(geom2.dofmap.n_v_full))
    assert stats.iters == 0 and stats.converged
    assert np.array_equal(new_state.v, state.v)
    assert not new_state.zeta.any()
    assert not new_state.mu.any() and not new_state.p.any()


def test_approaches_coincide_at_zero_wind(geom2):
    state = initial_state(geom2.dofmap)
    zero = np.zeros(geom2.dofmap.n_v_full)
    args = (geom2.mesh, geom2.dofmap, geom2.patches, geom2.quad)
    otd = build_kkt(state, *args, KktParams(nu=0.01, beta=1e-2,
                                            approach="otd"), wind=zero)
    dto = build_kkt(state, *args, KktParams(nu=0.01, beta=1e-2,
                                            approach="dto"), wind=zero)
    d12 = (otd.a12 - dto.a12).tocsr()
    assert (np.abs(d12.data).max(initial=0.0) if d12.nnz else 0.0) <= 1e-14
    assert np.allclose(otd.rhs(), dto.rhs(), atol=1e-14)


def test_solution_respects_boundary_data(geom2):
    params = KktParams(nu=0.01, beta=1e-2)
    state, trace = newton_solve(NewtonConfig(), params, geom2)
    assert trace.converged
    lift = initial_state(geom2.dofmap).v
    bnd = geom2.dofmap.boundary_vdofs
    assert np.array_equal(state.v[bnd], lift[bnd])
    assert not state.zeta[bnd].any()
    assert abs(state.mu.mean()) <= 1e-13
    assert abs(state.p.mean()) <= 1e-13


def test_l3_run_trace_consistency(l3_run, geom3):
    state, trace, seen = l3_run
    assert trace.converged
    assert all(trace.linear_converged)
    assert len(trace.residuals) == trace.newton_iters + 1
    assert len(trace.step_seconds) == trace.newton_iters
    assert all(t > 0.0 for t in trace.step_seconds)
    mean = np.mean(trace.fgmres_iters)
    assert trace.avg_fgmres == int(np.floor(mean + 0.5))
    # callback saw every assembled step system
    assert [k for k, _ in seen] == list(range(1, trace.newton_iters + 1))
    assert all(d == geom3.dofmap.coupled_dim for _, d in seen)


def test_l3_residuals_decrease_after_first_step(l3_run):
    _, trace, _ = l3_run
    res = np.asarray(trace.residuals)
    assert np.all(np.diff(res[1:]) < 0.0)
    ratios = res[2:] / res[1:-1]
    assert ratios.min() < 0.05


def test_full_newton_converges_no_slower(geom3):
    base = dict(nu=0.01, beta=1e-2, approach="dto")
    cfg = NewtonConfig(exact_blocks=True)
    _, inexact = newton_solve(cfg, KktParams(**base), geom3)
    _, full = newton_solve(cfg, KktParams(full_newton=True, **base), geom3)
    assert full.converged
    assert full.newton_iters <= inexact.newton_iters + 1


@pytest.mark.parametrize("exact", [True, False])
def test_velocity_operators_assembled_once_per_wind(geom3, monkeypatch,
                                                     exact):
    """One operator set per wind: the lifted state's residual, the Stokes
    step, and one per iterate, shared by its residual and the next step."""
    real = operators_mod.assemble_velocity
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators_mod, "assemble_velocity", counting)
    _, trace = newton_solve(NewtonConfig(exact_blocks=exact),
                            KktParams(nu=0.004, beta=1e-3), geom3)
    assert trace.converged and trace.newton_iters >= 3
    assert len(calls) == trace.newton_iters + 2


def test_residual_evaluated_once_per_iterate(geom2, monkeypatch):
    """The lifted state's residual, the Stokes step's (at its zero wind) and
    one per iterate, which the next step is built from: a solve of s steps
    evaluates the residual s + 2 times. Both the driver's name and the one
    `build_kkt` calls are counted."""
    calls = []
    for mod in (newton_mod, operators_mod):
        def counting(*args, _real=mod.eval_residual, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, "eval_residual", counting)
    _, trace = newton_solve(NewtonConfig(), KktParams(nu=0.01, beta=1e-2),
                            geom2)
    assert trace.converged and trace.newton_iters >= 3
    assert len(calls) == trace.newton_iters + 2


@pytest.mark.parametrize("kind, exact", [
    ("al", False), ("al", True), ("bpcd", False), ("ideal", False)])
def test_pressure_operators_assembled_only_for_bpcd(geom2, monkeypatch, kind,
                                                    exact):
    """Np and Wp are read by the bpcd outer Schur approximation alone: a
    solve assembles them once per step on that stack and never on the
    others."""
    real = operators_mod.assemble_pressure
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators_mod, "assemble_pressure", counting)
    _, trace = newton_solve(NewtonConfig(precond=kind, exact_blocks=exact),
                            KktParams(nu=0.01, beta=1e-2), geom2)
    assert trace.converged and trace.newton_iters >= 3
    assert len(calls) == (trace.newton_iters if kind == "bpcd" else 0)


@pytest.mark.parametrize("bad_step", [0, 2])
def test_non_finite_residual_stops_newton(geom2, monkeypatch, bad_step):
    """A NaN residual ends the iteration at that step, unconverged (step 0
    is the lifted zero state); the unperturbed case takes 3 steps."""
    real = newton_mod.eval_residual
    calls = []

    def nan_at_bad_step(*args, **kwargs):
        res = real(*args, **kwargs)
        if len(calls) == bad_step:
            res.norm = float("nan")
        calls.append(res)
        return res

    monkeypatch.setattr(newton_mod, "eval_residual", nan_at_bad_step)
    _, trace = newton_solve(NewtonConfig(), KktParams(nu=0.01, beta=1e-2),
                            geom2)
    assert trace.newton_iters == bad_step
    assert not trace.converged
    assert np.isnan(trace.residuals[-1])
    assert len(calls) == bad_step + 1


def test_step_system_released_before_next_step(geom2, monkeypatch):
    """Step k's system is gone once `on_system` has seen it: no earlier
    step's system is alive when the next preconditioner is built."""
    real = newton_mod.build_precond
    refs, alive = [], []

    def counting_build(system, *args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        return real(system, *args, **kwargs)

    monkeypatch.setattr(newton_mod, "build_precond", counting_build)
    _, trace = newton_solve(NewtonConfig(), KktParams(nu=0.01, beta=1e-2),
                            geom2,
                            on_system=lambda k, s: refs.append(weakref.ref(s)))
    assert trace.newton_iters == 3
    assert alive == [0, 0, 0]
    assert all(r() is None for r in refs)


def test_unconverged_linear_solve_warns(geom2, caplog):
    cfg = NewtonConfig(max_iters=2,
                       linear=KrylovConfig(restart=10, rtol=1e-6, maxiter=1))
    with caplog.at_level(logging.WARNING, logger="nsctl.newton"):
        _, trace = newton_solve(cfg, KktParams(nu=0.01, beta=1e-2), geom2)
    assert trace.fgmres_iters == [1, 1]
    assert trace.linear_converged == [False, False]
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING]
    assert len(warned) == 2
    for k, msg in enumerate(warned, start=1):
        assert msg.startswith(f"newton step {k}: linear solve not converged "
                              "(1 iters, residual ")


@pytest.mark.parametrize("kind,exact", [("al", False), ("al", True),
                                        ("bpcd", False)])
def test_step_solves_assemble_no_coupled_matrix(geom2, monkeypatch, kind,
                                                exact):
    """Both Krylov loops apply the step system block by block: a Newton
    solve converges with the assembled coupled and momentum matrices
    unavailable."""
    def refuse(self):
        raise AssertionError("a Newton step assembled a block matrix")

    monkeypatch.setattr(KktSystem, "matrix", refuse)
    monkeypatch.setattr(KktSystem, "momentum", refuse)
    cfg = NewtonConfig(precond=kind, exact_blocks=exact)
    _, trace = newton_solve(cfg, KktParams(nu=0.01, beta=1e-2), geom2)
    assert trace.converged and all(trace.linear_converged)
