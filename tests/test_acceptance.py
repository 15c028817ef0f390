"""End-to-end acceptance checks, one test per criterion.

The two reference-grid tests compare measured iteration counts against the
recorded reference tables cell by cell and fail with the full list of
out-of-tolerance cells; the README's Tests section records what is known of
the remaining deviations.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from nsctl.bench import CaseSpec, run_case
from nsctl.grid_fem import build_dofmap, build_mesh, setup_geometry
import nsctl.krylov as krylov_mod
from nsctl.krylov import ChebyshevMassSolver, chebyshev_solve, fgmres
from nsctl.newton import initial_state
from nsctl.operators import (KktParams, StateIterate, assemble_velocity,
                             augment, build_kkt, eval_residual,
                             mass_eig_interval, pin_pressure, restrict)
from nsctl.precond import build_matching, build_precond, outer_p2_apply

DOF_COUNTS = {3: 1062, 4: 4422, 5: 18054, 6: 72966, 7: 293382}

NUS = [(1.0 / 100.0, "1/100"), (1.0 / 250.0, "1/250"), (1.0 / 500.0, "1/500")]
BETAS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]

# Newton iteration counts, measured on the exact LU stack (exact_blocks=True:
# LU for the velocity mass and both matching factors); rows nu = 1/100,
# 1/250, 1/500, columns beta = 1e-1 .. 1e-5.
NEWTON_REF = {
    3: [[5, 4, 3, 3, 3], [7, 5, 4, 3, 3], [8, 5, 4, 3, 3]],
    4: [[4, 4, 3, 3, 3], [6, 4, 3, 3, 3], [8, 5, 5, 4, 3]],
    5: [[4, 3, 3, 3, 3], [4, 4, 3, 3, 3], [6, 4, 3, 3, 3]],
}

# Average FGMRES iterations per Newton step, measured on the multigrid
# production AL stack (exact_blocks=False: Chebyshev mass solve, one
# multigrid cycle per matching factor).
AL_AVG_REF = {
    3: [[6, 5, 4, 3, 3], [6, 5, 4, 4, 3], [7, 5, 4, 4, 3]],
    4: [[7, 6, 5, 4, 4], [7, 6, 4, 4, 3], [9, 6, 4, 4, 3]],
}

_RUNS = {}


def _run(level, nu, beta, precond="al", exact=False):
    key = (level, round(nu, 12), beta, precond, exact)
    if key not in _RUNS:
        _RUNS[key] = run_case(CaseSpec(level=level, nu=nu, beta=beta,
                                       precond=precond, exact_blocks=exact))
    return _RUNS[key]


def test_dof_counts_exact():
    t0 = time.perf_counter()
    for level, expected in DOF_COUNTS.items():
        dofmap = build_dofmap(build_mesh(level))
        assert dofmap.coupled_dim == expected, \
            f"level {level}: {dofmap.coupled_dim} != {expected}"
    assert time.perf_counter() - t0 < 1.0


def test_ideal_preconditioner_two_step_convergence(monkeypatch):
    monkeypatch.setattr(krylov_mod, "RESTART", 5)
    monkeypatch.setattr(krylov_mod, "MAXITER", 5)
    geom = setup_geometry(2)
    params = KktParams(nu=0.01, beta=1e-2, precond="ideal")
    stack = build_precond(build_kkt(initial_state(geom.dofmap), geom.mesh,
                                    geom.dofmap, geom.patches, geom.quad,
                                    params))
    system = stack.system
    nv = system.n_v

    def p1(r):
        """The lower block-triangular P1 from the stack's two exact solves:
        the momentum solve, then the Schur solve on the corrected rest."""
        r_v, r_z, r_mu, r_p = system.split(r)
        z_m = stack.momentum_solve(np.concatenate([r_v, r_z]))
        y1, y2 = stack.outer_schur(r_mu - system.b @ z_m[:nv],
                                   r_p - system.b @ z_m[nv:])
        return np.concatenate([z_m, -y1, -y2])

    mat = system.matrix()
    rhs = system.rhs()
    norm_rhs = np.linalg.norm(rhs)
    for side, apply in (("p1", p1),
                        ("p2", lambda r: outer_p2_apply(stack, r))):
        _, stats = fgmres(lambda u: mat @ u, apply, rhs, 1e-10)
        assert stats.iters <= 2, f"{side}: {stats.iters} iterations"
        assert stats.true_residual <= 1e-10 * norm_rhs
    dense = mat.toarray()
    pa = np.empty_like(dense)
    for j in range(dense.shape[1]):
        pa[:, j] = p1(dense[:, j])
    eigs = np.linalg.eigvals(pa)
    spread = np.abs(eigs - 1.0).max()
    assert spread <= 1e-8, f"eigenvalue spread {spread:.3e}"


def test_matching_spectral_bounds(matching_factors):
    for level in (2, 3):
        geom = setup_geometry(level)
        zero = np.zeros(geom.dofmap.n_v_full)
        for beta in (1e-1, 1e-3, 1e-5):
            params = KktParams(nu=0.01, beta=beta, approach="dto",
                               exact_blocks=True)
            system = augment(
                build_kkt(initial_state(geom.dofmap), geom.mesh, geom.dofmap,
                          geom.patches, geom.quad, params, wind=zero))
            ms = build_matching(system)
            m = system.level_ops.m.toarray()
            m_inv = np.linalg.inv(m)
            s_exact = system.a21.toarray() @ m_inv @ system.a12.toarray() \
                + m / beta
            mat_21, mat_12 = matching_factors(system)
            assert ms.mass is system.level_ops.m
            s_tilde = mat_21.toarray() @ m_inv @ mat_12.toarray()
            lam = np.linalg.eigvals(np.linalg.solve(s_tilde, s_exact))
            tag = f"l={level} beta={beta:g}"
            assert np.abs(lam.imag).max() <= 1e-8, tag
            assert lam.real.min() >= 0.5 - 1e-8, \
                f"{tag}: min {lam.real.min():.10f}"
            assert lam.real.max() <= 1.0 + 1e-8, \
                f"{tag}: max {lam.real.max():.10f}"


def test_woodbury_block_identity():
    geom = setup_geometry(2)
    beta = 1e-2
    gamma = float(10.0 / np.sqrt(beta))
    params = KktParams(nu=0.01, beta=beta)
    system = build_kkt(initial_state(geom.dofmap), geom.mesh, geom.dofmap,
                       geom.patches, geom.quad, params, pin=True)
    lvl = system.level_ops
    b = system.b.toarray()
    w = lvl.mp_diag[1:]
    n_p = b.shape[0]
    phi_1 = restrict(lvl.m_full + 0.5 * lvl.k_full, geom.dofmap).toarray()
    phi = sla.block_diag(phi_1, phi_1)
    psi = np.block([[b, np.zeros_like(b)], [np.zeros_like(b), b]])
    w_inv = np.block([[np.zeros((n_p, n_p)), np.diag(1.0 / w)],
                      [np.diag(1.0 / w), np.zeros((n_p, n_p))]])
    phi_g = phi + gamma * psi.T @ w_inv @ psi
    lhs = np.linalg.inv(psi @ np.linalg.inv(phi_g) @ psi.T)
    rhs = np.linalg.inv(psi @ np.linalg.inv(phi) @ psi.T) + gamma * w_inv
    rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    assert rel <= 1e-9, f"identity violated at {rel:.3e}"


def test_augmentation_invariance():
    """The plain step system, augmented and then pinned, has the solution
    of the plain pinned system for every gamma."""
    geom = setup_geometry(2)
    args = (initial_state(geom.dofmap), geom.mesh, geom.dofmap, geom.patches,
            geom.quad)
    plain = build_kkt(*args, KktParams(nu=0.01, beta=1e-2), pin=True)
    solutions = [sla.solve(plain.matrix().toarray(), plain.rhs())]
    for gamma in (10.0, 1000.0):
        params = KktParams(nu=0.01, beta=1e-2, gamma=gamma)
        sys_g = pin_pressure(augment(build_kkt(*args, params)))
        solutions.append(sla.solve(sys_g.matrix().toarray(), sys_g.rhs()))
    ref = np.linalg.norm(solutions[0])
    for gamma, x in zip((10.0, 1000.0), solutions[1:]):
        rel = np.linalg.norm(x - solutions[0]) / ref
        assert rel <= 1e-8, f"gamma={gamma:g}: {rel:.3e}"


def test_jacobian_consistency():
    geom = setup_geometry(2)
    d = geom.dofmap
    rng = np.random.default_rng(3)
    v0 = initial_state(d).v
    v0[d.interior_vdofs] += 0.1 * rng.standard_normal(d.n_v_int)
    zeta0 = np.zeros(d.n_v_full)
    zeta0[d.interior_vdofs] = 0.1 * rng.standard_normal(d.n_v_int)
    mu0 = rng.standard_normal(d.n_p)
    mu0 -= mu0.mean()
    p0 = rng.standard_normal(d.n_p)
    p0 -= p0.mean()
    base = StateIterate(v=v0, zeta=zeta0, mu=mu0, p=p0, k=0)
    params = KktParams(nu=0.01, beta=1e-2, approach="dto", full_newton=True)
    system = build_kkt(base, geom.mesh, d, geom.patches, geom.quad, params,
                       stab_wind=v0)
    mat = system.matrix()
    dim = d.coupled_dim
    eps = 1e-6

    def residual_at(x):
        st = StateIterate(v=v0.copy(), zeta=zeta0.copy(), mu=mu0.copy(),
                          p=p0.copy(), k=0)
        st.v[d.interior_vdofs] += x[:d.n_v_int]
        st.zeta[d.interior_vdofs] += x[d.n_v_int:2 * d.n_v_int]
        st.mu = mu0 + x[2 * d.n_v_int:2 * d.n_v_int + d.n_p]
        st.p = p0 + x[2 * d.n_v_int + d.n_p:]
        return eval_residual(st, geom.mesh, d, geom.patches, geom.quad,
                             params, stab_wind=v0).rhs()

    for probe in range(5):
        e = np.random.default_rng(100 + probe).standard_normal(dim)
        fd = (residual_at(eps * e) - residual_at(-eps * e)) / (2.0 * eps)
        ae = -(mat @ e)
        rel = np.linalg.norm(fd - ae) / np.linalg.norm(ae)
        assert rel <= 1e-6, f"probe {probe}: {rel:.3e}"


def test_chebyshev_mass_solve_accuracy():
    geom = setup_geometry(4)
    vel = assemble_velocity(geom.mesh, geom.dofmap, geom.patches, geom.quad,
                            np.zeros(geom.dofmap.n_v_full), nu=1.0)
    m = restrict(vel.m_full, geom.dofmap)
    solver = ChebyshevMassSolver(matrix=m,
                                 interval=mass_eig_interval(
                                     geom.quad, geom.quad.q2_vals))
    rng = np.random.default_rng(7)
    for trial in range(10):
        b = rng.standard_normal(m.shape[0])
        x = chebyshev_solve(solver, b)
        rel = np.linalg.norm(m @ x - b) / np.linalg.norm(b)
        assert rel <= 1e-6, f"trial {trial}: {rel:.3e}"


@pytest.mark.slow
def test_newton_count_reference_grid():
    bad = []
    for level in (3, 4, 5):
        for i, (nu, nu_name) in enumerate(NUS):
            for j, beta in enumerate(BETAS):
                res = _run(level, nu, beta, precond="al", exact=True)
                want = NEWTON_REF[level][i][j]
                got = res.newton_iters
                if res.error or abs(got - want) > 1:
                    bad.append(f"l={level} nu={nu_name} beta={beta:g}: "
                               f"got {got}, reference {want} (+/-1)"
                               + (f" [{res.error}]" if res.error else ""))
    assert not bad, "out-of-tolerance cells:\n" + "\n".join(bad)


@pytest.mark.slow
def test_al_fgmres_reference_grid():
    bad = []
    for level in (3, 4):
        for i, (nu, nu_name) in enumerate(NUS):
            for j, beta in enumerate(BETAS):
                res = _run(level, nu, beta, precond="al", exact=False)
                want = AL_AVG_REF[level][i][j]
                got = res.avg_fgmres
                tag = f"l={level} nu={nu_name} beta={beta:g}"
                if res.error:
                    bad.append(f"{tag}: failed [{res.error}]")
                    continue
                if abs(got - want) > 3:
                    bad.append(f"{tag}: avg {got}, reference {want} (+/-3)")
                if got > 12:
                    bad.append(f"{tag}: avg {got} exceeds the hard cap 12")
                if not res.converged:
                    bad.append(f"{tag}: Newton did not converge")
    assert not bad, "out-of-tolerance cells:\n" + "\n".join(bad)


@pytest.mark.slow
def test_bpcd_vs_al_contrast():
    nu = 1.0 / 500.0
    al_hard = _run(4, nu, 1e-1, precond="al", exact=False)
    bpcd_hard = _run(4, nu, 1e-1, precond="bpcd", exact=False)
    bpcd_easy = _run(4, nu, 1e-5, precond="bpcd", exact=False)
    assert bpcd_hard.avg_fgmres >= 40, \
        f"bpcd beta=1e-1 avg {bpcd_hard.avg_fgmres}"
    assert al_hard.avg_fgmres <= 12, f"al beta=1e-1 avg {al_hard.avg_fgmres}"
    assert bpcd_easy.avg_fgmres <= 12, \
        f"bpcd beta=1e-5 avg {bpcd_easy.avg_fgmres}"
    assert al_hard.converged and bpcd_easy.converged
