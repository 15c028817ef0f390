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
from .krylov import fgmres
from .operators import (KktParams, StateIterate, build_kkt, eval_residual,
                        lift_boundary)
from .precond import build_precond, outer_p2_apply

log = logging.getLogger("nsctl.newton")

RESIDUAL_FLOOR = 1e-12
MAX_STEPS = 10


@dataclass
class NewtonTrace:
    """Per-step bookkeeping; residuals[0] is the reference residual of the
    lifted zero state, so entry k is the residual after Newton step k."""

    residuals: list = field(default_factory=list)
    fgmres_per_step: list = field(default_factory=list)
    step_seconds: list = field(default_factory=list)
    linear_converged: list = field(default_factory=list)
    converged: bool = False

    @property
    def newton_iters(self):
        return len(self.fgmres_per_step)

    @property
    def avg_fgmres(self):
        """Mean FGMRES count over completed steps, rounded to nearest integer
        (half away from zero)."""
        if not self.fgmres_per_step:
            return 0
        return int(np.floor(np.mean(self.fgmres_per_step) + 0.5))


def initial_state(dofmap) -> StateIterate:
    """Lifted zero state: the lid data on v, everything else zero."""
    return StateIterate(v=lift_boundary(dofmap),
                        zeta=np.zeros(dofmap.n_v_full),
                        mu=np.zeros(dofmap.n_p), p=np.zeros(dofmap.n_p), k=0)


def convergence_check(trace: NewtonTrace, tol) -> bool:
    """Relative criterion `tol` against the reference residual, with an
    absolute floor guarding zero-data cases."""
    ref = trace.residuals[0]
    return bool(trace.residuals[-1] <= max(tol * ref, RESIDUAL_FLOOR))


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


def _newton_step(state, plain, geom: Geometry):
    """One Newton step on the plain step system `plain` linearized at
    `state`; returns (state, stats, system) with `system` the form of it
    that the configured stack solved."""
    stack = build_precond(plain)
    system = stack.system
    x, stats = fgmres(system.matvec, lambda r: outer_p2_apply(stack, r),
                      system.rhs(), system.params.tol_linear)
    return _apply_update(state, system, x, geom.dofmap), stats, system


def newton_solve(params: KktParams, geom: Geometry, on_system=None):
    """Run the inexact Newton iteration; returns (state, trace).

    One check runs on each iterate's residual, the lifted zero state's
    included: it stops when the residual drops below `params.tol_newton`
    relative to the lifted state's, at the first non-finite residual, or
    after MAX_STEPS steps (in the last two cases the trace is marked not
    converged, averages taken over completed steps). Each iterate's
    residual is the plain step system linearized there (`eval_residual`),
    which the next step solves. `on_system(k, sys)` is called with each
    step system in the form its stack solved, e.g. for matrix export; both
    forms are released when it returns, before the next iterate's operators
    are assembled, so only one step's matrices and factors are alive at a
    time.
    """
    state = initial_state(geom.dofmap)
    zero = np.zeros(geom.dofmap.n_v_full)
    stab = zero
    trace = NewtonTrace()
    plain = eval_residual(state, geom.mesh, geom.dofmap, geom.patches,
                          geom.quad, params, stab_wind=stab)
    for k in range(1, MAX_STEPS + 2):
        # the one stop check, on the residual of iterate k - 1
        trace.residuals.append(plain.norm)
        if not np.isfinite(plain.norm):
            log.warning("newton step %d: non-finite residual, stopping", k - 1)
            break
        trace.converged = convergence_check(trace, params.tol_newton)
        if trace.converged or k > MAX_STEPS:
            break
        t0 = time.perf_counter()
        if k == 1:                   # the Stokes step: a zero wind
            del plain                # the lifted state's, freed first
            plain = build_kkt(state, geom.mesh, geom.dofmap, geom.patches,
                              geom.quad, params, wind=zero, stab_wind=stab)
        state, stats, system = _newton_step(state, plain, geom)
        if k == 1:
            stab = state.v.copy()    # freeze the stabilization wind here
        if on_system is not None:
            on_system(k, system)
        del system, plain
        if not stats.converged:
            log.warning("newton step %d: linear solve not converged (%d iters, "
                        "residual %.3e)", k, stats.iters, stats.true_residual)
        # one operator set per iterate: its residual is step k + 1's system
        plain = eval_residual(state, geom.mesh, geom.dofmap, geom.patches,
                              geom.quad, params, stab_wind=stab)
        trace.fgmres_per_step.append(stats.iters)
        trace.linear_converged.append(bool(stats.converged))
        trace.step_seconds.append(time.perf_counter() - t0)
        log.info("newton step %d: residual %.6e (fgmres %d)",
                 k, plain.norm, stats.iters)
    return state, trace
