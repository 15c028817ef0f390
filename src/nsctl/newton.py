"""Inexact Newton driver for the cavity control problem.

The first iteration linearizes around a zero wind, so it solves the Stokes
control problem; later iterations linearize around the current velocity. The
stabilization operator is frozen at the Stokes velocity: the first step runs
without it, every later step assembles it from that fixed wind. This keeps
the stabilization term exactly differentiated (it is linear in the unknowns
once its wind is fixed), which preserves the fast local convergence that
re-assembling it at every iterate destroys. Each step solves the coupled KKT
system with flexible GMRES under the configured preconditioner stack and
applies the full correction (no damping).
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .grid_fem import Geometry
from .krylov import KrylovConfig, fgmres
from .operators import (KktParams, StateIterate, build_kkt, eval_residual,
                        lift_boundary)
from .precond import build_precond, outer_p2_apply

log = logging.getLogger("nsctl.newton")

RESIDUAL_FLOOR = 1e-12


@dataclass
class NewtonConfig:
    tol: float = 1e-5                 # relative nonlinear residual reduction
    max_iters: int = 10
    precond: str = "al"               # "al" | "bpcd" | "ideal"
    linear: KrylovConfig = None
    exact_blocks: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.precond not in ("al", "bpcd", "ideal"):
            raise ValueError(f"unknown preconditioner kind {self.precond!r}")
        if self.linear is None:
            self.linear = KrylovConfig(restart=10, rtol=1e-6, maxiter=200)


@dataclass
class NewtonTrace:
    """Per-step bookkeeping; residuals[0] is the reference residual of the
    lifted zero state, so entry k is the residual after Newton step k."""

    residuals: list = field(default_factory=list)
    fgmres_iters: list = field(default_factory=list)
    step_seconds: list = field(default_factory=list)
    linear_converged: list = field(default_factory=list)
    converged: bool = False

    @property
    def newton_iters(self):
        return len(self.fgmres_iters)

    @property
    def avg_fgmres(self):
        """Mean FGMRES count over completed steps, rounded to nearest integer
        (half away from zero)."""
        if not self.fgmres_iters:
            return 0
        return int(np.floor(np.mean(self.fgmres_iters) + 0.5))


def initial_state(dofmap) -> StateIterate:
    """Lifted zero state: the lid data on v, everything else zero."""
    return StateIterate(v=lift_boundary(dofmap),
                        zeta=np.zeros(dofmap.n_v_full),
                        mu=np.zeros(dofmap.n_p), p=np.zeros(dofmap.n_p), k=0)


def convergence_check(trace: NewtonTrace, cfg: NewtonConfig) -> bool:
    """Relative criterion against the reference residual, with an absolute
    floor guarding zero-data cases."""
    ref = trace.residuals[0]
    return trace.residuals[-1] <= max(cfg.tol * ref, RESIDUAL_FLOOR)


def _apply_update(state: StateIterate, system, x, dofmap) -> StateIterate:
    dv, dz, dmu, dp = system.split(x)
    v = state.v.copy()
    zeta = state.zeta.copy()
    v[dofmap.interior_vdofs] += dv
    zeta[dofmap.interior_vdofs] += dz
    mu = state.mu + system.expand_pressure(dmu)
    p = state.p + system.expand_pressure(dp)
    # remove the pressure nullspace component from the multipliers
    mu -= mu.mean()
    p -= p.mean()
    return StateIterate(v=v, zeta=zeta, mu=mu, p=p, k=state.k + 1)


def _newton_step(state, cfg: NewtonConfig, params: KktParams, geom: Geometry,
                 wind, stab_wind=None, res=None):
    """One Newton step; returns (state, stats, system) with `system` the form
    of the step system the configured stack solved. `res` is the residual
    at `state` when it was evaluated at these winds (see `build_kkt`)."""
    stack = build_precond(
        build_kkt(state, geom.mesh, geom.dofmap, geom.patches, geom.quad,
                  params, wind=wind, stab_wind=stab_wind, res=res),
        kind=cfg.precond, exact_blocks=cfg.exact_blocks)
    system = stack.system
    x, stats = fgmres(system.matvec, lambda r: outer_p2_apply(stack, r),
                      system.rhs(), cfg.linear)
    return _apply_update(state, system, x, geom.dofmap), stats, system


def newton_solve(cfg: NewtonConfig, params: KktParams, geom: Geometry,
                 on_system=None):
    """Run the inexact Newton iteration; returns (state, trace).

    Stops when the nonlinear residual drops below tol relative to the
    residual of the lifted zero state, at the first non-finite residual, or
    after max_iters steps (in the last two cases the trace is marked not
    converged, averages taken over completed steps). `on_system(k, sys)` is
    called with each step system in the form its stack solved, e.g. for
    matrix export; the system and the residual it was built from are
    released when it returns, before the next iterate's operators are
    assembled, so only one step's matrices and factors are alive at a time.
    """
    state = initial_state(geom.dofmap)
    zero = np.zeros(geom.dofmap.n_v_full)
    stab = zero
    res = eval_residual(state, geom.mesh, geom.dofmap, geom.patches,
                        geom.quad, params, stab_wind=stab)
    trace = NewtonTrace(residuals=[res.norm])
    if not np.isfinite(res.norm):
        log.warning("newton: non-finite initial residual, stopping")
        return state, trace
    if convergence_check(trace, cfg):
        trace.converged = True
        return state, trace

    res = None                       # the Stokes step evaluates its own
    for k in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        wind = zero if k == 1 else state.v
        state, stats, system = _newton_step(state, cfg, params, geom, wind,
                                            stab_wind=stab, res=res)
        if k == 1:
            stab = state.v.copy()    # freeze the stabilization wind here
        if on_system is not None:
            on_system(k, system)
        del system, res
        if not stats.converged:
            log.warning("newton step %d: linear solve not converged (%d iters, "
                        "residual %.3e)", k, stats.iters, stats.true_residual)
        # one operator set and one residual per iterate, which step k + 1
        # is built from
        res = eval_residual(state, geom.mesh, geom.dofmap, geom.patches,
                            geom.quad, params, stab_wind=stab)
        trace.fgmres_iters.append(stats.iters)
        trace.linear_converged.append(bool(stats.converged))
        trace.step_seconds.append(time.perf_counter() - t0)
        trace.residuals.append(res.norm)
        log.info("newton step %d: residual %.6e (fgmres %d)",
                 k, res.norm, stats.iters)
        if not np.isfinite(res.norm):
            log.warning("newton step %d: non-finite residual, stopping", k)
            break
        if convergence_check(trace, cfg):
            trace.converged = True
            break
    return state, trace
