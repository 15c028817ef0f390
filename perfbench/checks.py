"""Correctness checks of every solved case, made apart from the solver stack
under test (preconditioners, Krylov solvers, the Newton driver).

- Reference: a Newton iteration with the same frozen-wind protocol, each step
  solving the pinned KKT system (`build_kkt(..., pin=True)`) by a direct
  sparse solve, run past the solver's tolerance. The solver's velocity must
  agree with it in the mass norm.
- Boundary: the lid and no-slip data hold exactly, the adjoint velocity
  `zeta` is zero there, and both multipliers have zero mean.
- Residual: recomputed at the returned state with the captured frozen
  stabilization wind, it meets the Newton tolerance.
- Beta sweep: at fixed level, viscosity and stack, the tracking term
  `||v||_M` does not grow as `beta` falls, as regularized optimal control
  requires.

References take 0.3-25 s a case, so they are cached under
perfbench/out/reference/, keyed by a hash of the package sources and of this
file: any change to either recomputes them. Delete that directory to
recompute them by hand.
"""

import hashlib

import numpy as np
import scipy.sparse.linalg as spla

from nsctl.grid_fem import setup_geometry
from nsctl.operators import (KktParams, StateIterate, assemble_velocity,
                             build_kkt, eval_residual, lift_boundary)

import workloads

# measured worst distance of a solved case to its reference: 2.5e-5
# (al-mg-l4, nu=1/100, beta=1e-3); the Newton tolerance is 1e-5
REF_RTOL = 1e-3
REF_TOL = 1e-11          # the reference runs to this relative residual
REF_MAX_STEPS = 20
MEAN_TOL = 1e-12         # |mean| of a multiplier, relative to its max entry


def case_setup(case):
    """(spec, params) exactly as `nsctl.bench.run_case` derives them."""
    spec = case.spec()
    params = KktParams(nu=spec.nu, beta=spec.beta, gamma=spec.gamma,
                       approach=spec.approach, lps_on=spec.lps,
                       full_newton=spec.full_newton)
    return spec, params


def _lifted_zero(dofmap):
    return StateIterate(v=lift_boundary(dofmap), zeta=np.zeros(dofmap.n_v_full),
                        mu=np.zeros(dofmap.n_p), p=np.zeros(dofmap.n_p), k=0)


def _residual(state, geom, params, stab):
    return eval_residual(state, geom.mesh, geom.dofmap, geom.patches,
                         geom.quad, params, stab_wind=stab).norm


def reference_solution(geom, params):
    """Newton with direct solves of the pinned KKT system; the stabilization
    wind is frozen at the first (Stokes) iterate, as in `newton_solve`.
    Returns the final state and the relative residual it reached."""
    dm = geom.dofmap
    state = _lifted_zero(dm)
    zero = np.zeros(dm.n_v_full)
    stab = zero
    res0 = _residual(state, geom, params, stab)
    rel = 1.0
    for k in range(1, REF_MAX_STEPS + 1):
        system = build_kkt(state, geom.mesh, dm, geom.patches, geom.quad,
                           params, wind=zero if k == 1 else state.v,
                           stab_wind=stab, pin=True)
        x = spla.spsolve(system.matrix().tocsc(), system.rhs())
        dv, dz, dmu, dp = system.split(x)
        v, zeta = state.v.copy(), state.zeta.copy()
        v[dm.interior_vdofs] += dv
        zeta[dm.interior_vdofs] += dz
        mu = state.mu + system.expand_pressure(dmu)
        p = state.p + system.expand_pressure(dp)
        state = StateIterate(v=v, zeta=zeta, mu=mu - mu.mean(),
                             p=p - p.mean(), k=k)
        if k == 1:
            stab = state.v.copy()
        new_rel = _residual(state, geom, params, stab) / res0
        if new_rel <= REF_TOL or (k > 2 and new_rel >= rel):
            return state, new_rel
        rel = new_rel
    return state, rel


def source_key():
    """Hash of everything a reference solution depends on."""
    root = workloads.checkout_root()
    h = hashlib.sha256()
    for path in sorted((root / "src" / "nsctl").glob("*.py")) \
            + [root / "perfbench" / "checks.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Checker:
    """Checks solved cases against cached reference solutions."""

    def __init__(self, cache_dir):
        self._dir = cache_dir / source_key()
        self._geoms = {}
        self._mass = {}
        self._res0 = {}

    def _geom(self, level):
        if level not in self._geoms:
            g = self._geoms[level] = setup_geometry(level)
            self._mass[level] = assemble_velocity(
                g.mesh, g.dofmap, g.patches, g.quad,
                np.zeros(g.dofmap.n_v_full), 1.0, lps_on=False).m_full
        return self._geoms[level]

    def mass_norm(self, level, v):
        self._geom(level)
        return float(np.sqrt(v @ (self._mass[level] @ v)))

    def reference(self, case):
        """(velocity, relative residual) of the case's reference solution."""
        path = self._dir / f"{case.id}.npz"
        if not path.exists():
            _, params = case_setup(case)
            state, rel = reference_solution(self._geom(case.level), params)
            self._dir.mkdir(parents=True, exist_ok=True)
            np.savez(path, v=state.v, rel=rel)
        with np.load(path) as data:
            return data["v"], float(data["rel"])

    def check_case(self, case, state, stab):
        """Check one converged case's final state. Returns (failures,
        tracking term ||v||_M, distance ||v - v_ref||_M)."""
        spec, params = case_setup(case)
        geom = self._geom(case.level)
        dm = geom.dofmap
        fails = []

        bd = dm.boundary_vdofs
        if not np.array_equal(state.v[bd], lift_boundary(dm)[bd]):
            fails.append("velocity boundary data changed")
        if np.any(state.zeta[bd] != 0.0):
            fails.append("adjoint velocity nonzero on the boundary")
        for name, q in (("mu", state.mu), ("p", state.p)):
            if abs(q.mean()) > MEAN_TOL * max(np.abs(q).max(), 1.0):
                fails.append(f"{name} has mean {q.mean():.3e}")

        res = _residual(state, geom, params, stab)
        if case not in self._res0:
            self._res0[case] = _residual(_lifted_zero(dm), geom, params,
                                         np.zeros(dm.n_v_full))
        res0 = self._res0[case]
        if not res <= spec.tol_newton * res0:
            fails.append(f"residual {res / res0:.3e} of the initial one "
                         f"misses the Newton tolerance {spec.tol_newton:g}")

        ref_v, ref_rel = self.reference(case)
        if not ref_rel <= spec.tol_newton:
            fails.append(f"reference reached only {ref_rel:.3e}")
        dist = self.mass_norm(case.level, state.v - ref_v)
        rel = dist / self.mass_norm(case.level, ref_v)
        if not rel <= REF_RTOL:
            fails.append(f"velocity {rel:.3e} from the reference "
                         f"(bound {REF_RTOL:g})")
        return fails, self.mass_norm(case.level, state.v), dist

    def check_rounds(self, results, arrays, cases):
        """Count the failed cases among one worker's results, which come in
        whole rounds of `cases`, and check the outputs of those that
        completed; `arrays` holds their final states. Returns (failed,
        correct, messages): `correct` is false when a completed case fails a
        check."""
        by_id = {c.id: c for c in cases}
        failed, correct, messages = 0, True, []
        for start in range(0, len(results), len(cases)):
            tracked, bad = {}, {}
            for r in results[start:start + len(cases)]:
                case = by_id[r["case"]]
                if r["error"] is not None:
                    bad[case] = "raised: " + r["error"].strip().splitlines()[-1]
                elif not r["converged"]:
                    bad[case] = "Newton did not converge"
                elif not all(r["linear_converged"]):
                    bad[case] = "an FGMRES solve missed its tolerance"
                else:
                    k = r["key"]
                    state = StateIterate(
                        v=arrays[f"{k}.v"], zeta=arrays[f"{k}.zeta"],
                        mu=arrays[f"{k}.mu"], p=arrays[f"{k}.p"])
                    fails, *tracked[case] = self.check_case(
                        case, state, arrays[f"{k}.stab"])
                    if fails:
                        bad[case] = "; ".join(fails)
            for case, msg in check_sweep(tracked).items():
                bad[case] = (bad[case] + "; " if case in bad else "") + msg
            correct = correct and not any(c in tracked for c in bad)
            failed += len(bad)
            messages += [f"{case.id}: {msg}" for case, msg in bad.items()]
        return failed, correct, messages


def check_sweep(tracked):
    """`tracked` maps case -> (||v||_M, ||v - v_ref||_M). Returns
    {case: failure} for each case whose tracking term exceeds that of the
    next larger beta at the same level, viscosity and stack by more than the
    two solutions' distances to their references allow."""
    groups = {}
    for case in tracked:
        groups.setdefault((case.level, case.nu, case.exact_blocks),
                          []).append(case)
    fails = {}
    for cases in groups.values():
        cases.sort(key=lambda c: -c.beta)
        for big, small in zip(cases, cases[1:]):
            (t_big, e_big), (t_small, e_small) = tracked[big], tracked[small]
            if t_small > t_big + e_big + e_small:
                fails[small] = (f"tracking term {t_small:.9e} grew from "
                                f"{t_big:.9e} at beta {big.beta:g}")
    return fails
