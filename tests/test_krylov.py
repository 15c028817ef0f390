"""LU, Chebyshev and flexible GMRES contract checks."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import nsctl.krylov as krylov_mod
from nsctl.grid_fem import setup_geometry
from nsctl.krylov import (ChebyshevMassSolver, SingularMatrixError,
                          chebyshev_solve, factorize, fgmres, gmres)
from nsctl.operators import (KktParams, StateIterate, _level_operators,
                             assemble_velocity, augment, build_kkt,
                             lift_boundary, mass_eig_interval, restrict)


def _zero_wind(geom):
    return np.zeros(geom.dofmap.n_v_full)


def _interior_mass(geom):
    vel = assemble_velocity(geom.mesh, geom.dofmap, geom.patches, geom.quad,
                            _zero_wind(geom), nu=1.0)
    return restrict(vel.m_full, geom.dofmap)


# --------------------------------------------------------------------------
# factorize
# --------------------------------------------------------------------------

def test_factorize_identity(rng):
    f = factorize(sp.eye(7, format="csr"))
    b = rng.standard_normal(7)
    assert np.allclose(f.solve(b), b, atol=1e-14)


def test_factorize_diagonal():
    f = factorize(sp.diags(np.arange(1.0, 6.0)).tocsr())
    x = f.solve(np.ones(5))
    assert np.allclose(x, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=1e-14)


def test_factorize_rejects_nonsquare():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix((2, 3)))


def test_factorize_singular_neumann(geom2):
    lvl = _level_operators(geom2.mesh.level)
    with pytest.raises(SingularMatrixError):
        factorize(lvl.kp)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_factorize_rejects_the_neumann_kp_of_every_level(level):
    """SuperLU factorizes the pure-Neumann Kp without raising; the probe,
    whose mean lies outside Kp's mean-free range, is left unsolved."""
    with pytest.raises(SingularMatrixError, match="probe residual"):
        factorize(_level_operators(level).kp)


def test_factorize_rejects_a_dependent_row(geom3):
    """A nonsingular matrix with one row replaced by 0.3 row i + 0.7 row j is
    singular in exact arithmetic, but SuperLU leaves a roundoff pivot rather
    than raising; the probe solve rejects it."""
    a = _interior_mass(geom3).tolil()
    i, j, k = 3, 40, 100
    a[k] = 0.3 * a[i] + 0.7 * a[j]
    a = a.tocsr()
    spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
              options=dict(SymmetricMode=True))     # factorizes without error
    with pytest.raises(SingularMatrixError, match="probe residual"):
        factorize(a)


def test_factorize_exactly_singular_raises_through_superlu():
    """A zero column makes SuperLU itself report an exactly singular factor,
    which reaches the caller as SingularMatrixError."""
    a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [1.0, 3.0, 0.0],
                                [0.0, 1.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as info:
        factorize(a)
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("beta", [1e-1, 1e-5])
def test_factorize_probe_solves_matching_factors_to_roundoff(
        monkeypatch, matching_factors, level, beta):
    """The augmented matching factors solve the probe far inside the check's
    bound: both pass with the bound tightened to 1e-11."""
    geom = setup_geometry(level)
    d = geom.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    system = augment(build_kkt(state, geom.mesh, d, geom.patches, geom.quad,
                               KktParams(nu=1 / 500, beta=beta)))
    monkeypatch.setattr(krylov_mod, "_PROBE_RTOL", 1e-11)
    for a in matching_factors(system):
        factorize(a)


def test_factorize_roundtrip_on_mass(geom3, rng):
    m = _interior_mass(geom3)
    f = factorize(m)
    b = rng.standard_normal(m.shape[0])
    res = np.linalg.norm(m @ f.solve(b) - b) / np.linalg.norm(b)
    assert res <= 1e-10


@pytest.mark.parametrize("beta", [1e-1, 1e-5])
def test_factorize_solves_augmented_matching_block(geom3, rng, beta):
    d = geom3.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=0.01, beta=beta)
    system = augment(build_kkt(state, geom3.mesh, d, geom3.patches,
                               geom3.quad, params))
    shift = system.level_ops.m / np.sqrt(beta)
    for a in ((system.a21 + shift).tocsr(), (system.a12 + shift).tocsr()):
        b = rng.standard_normal(a.shape[0])
        res = np.linalg.norm(a @ factorize(a).solve(b) - b) / np.linalg.norm(b)
        assert res <= 1e-10


def test_factorize_fill_on_the_level4_matching_block(matching_factors):
    """The augmented Stokes-step `Psi2 + L` at level 4, nu=1/500, beta=1e-1
    stores only its true nonzeros (110,784) and threshold pivoting keeps
    its LU fill near the ordering's (517,320); strict partial pivoting
    fills it to 1.3M."""
    geom = setup_geometry(4)
    d = geom.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    system = augment(build_kkt(state, geom.mesh, d, geom.patches, geom.quad,
                               KktParams(nu=1 / 500, beta=1e-1),
                               wind=_zero_wind(geom)))
    mat_21, _ = matching_factors(system)
    assert mat_21.nnz <= 120_000
    lu = factorize(mat_21)._lu
    assert lu.L.nnz + lu.U.nnz <= 600_000


# --------------------------------------------------------------------------
# Chebyshev semi-iteration
# --------------------------------------------------------------------------

def test_chebyshev_zero_rhs():
    solver = ChebyshevMassSolver(matrix=sp.eye(4, format="csr"),
                                 interval=(0.5, 1.5))
    assert np.array_equal(chebyshev_solve(solver, np.zeros(4)), np.zeros(4))


def test_chebyshev_interval_validation():
    with pytest.raises(ValueError):
        ChebyshevMassSolver(matrix=sp.eye(3, format="csr"),
                            interval=(0.0, 1.0))
    for interval in ((2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="needs lmin < lmax"):
            ChebyshevMassSolver(matrix=sp.eye(3, format="csr"),
                                interval=interval)


def test_chebyshev_is_linear(geom2, rng):
    lvl = _level_operators(geom2.mesh.level)
    solver = ChebyshevMassSolver(matrix=lvl.mp,
                                 interval=mass_eig_interval(
                                     geom2.quad, geom2.quad.q1_vals))
    b = rng.standard_normal(lvl.mp.shape[0])
    x1 = chebyshev_solve(solver, b)
    x2 = chebyshev_solve(solver, 2.0 * b)
    assert np.array_equal(x2, 2.0 * x1)   # scaling by 2 commutes exactly
    y = rng.standard_normal(b.size)
    xy = chebyshev_solve(solver, b + y)
    assert np.allclose(xy, x1 + chebyshev_solve(solver, y), atol=1e-12)


def test_chebyshev_velocity_mass_accuracy(geom3, rng):
    m = _interior_mass(geom3)
    solver = ChebyshevMassSolver(matrix=m,
                                 interval=mass_eig_interval(
                                     geom3.quad, geom3.quad.q2_vals))
    b = rng.standard_normal(m.shape[0])
    x = chebyshev_solve(solver, b)
    assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-6


# --------------------------------------------------------------------------
# flexible GMRES
# --------------------------------------------------------------------------

def _well_conditioned(rng, n=60):
    return 4.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)


def test_gmres_identity_one_iteration(rng):
    b = rng.standard_normal(10)
    x, stats = fgmres(lambda u: u, lambda u: u, b, 1e-12)
    assert stats.iters == 1 and stats.converged
    assert np.allclose(x, b, atol=1e-14)


def test_gmres_fixed_iterations(rng):
    """The fixed solve takes exactly INNER_ITERS steps, no tolerance exit;
    its x minimizes ||b - A x|| over the span of the preconditioned
    directions, which the steps compute."""
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    dirs = []

    def apply_p(u):
        dirs.append(u / 4.0)
        return dirs[-1]

    x = gmres(lambda u: a @ u, apply_p, b)
    assert len(dirs) == krylov_mod.INNER_ITERS == 5
    z = np.column_stack(dirs)
    y = np.linalg.lstsq(a @ z, b, rcond=None)[0]
    assert np.linalg.norm(x - z @ y) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_gmres_fixed_iterations_apply_preconditioner_once_per_step(
        rng, monkeypatch, k):
    monkeypatch.setattr(krylov_mod, "INNER_ITERS", k)
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    calls = []

    def apply_p(u):
        calls.append(1)
        return u / 4.0

    gmres(lambda u: a @ u, apply_p, b)
    assert len(calls) == k


@pytest.mark.parametrize("cfg", [dict(), dict(rtol=1e-10)])
def test_gmres_applies_operator_once_per_step_and_cycle(rng, monkeypatch,
                                                         cfg):
    """Each Arnoldi step applies A once. The restarted solve (`cfg` holds
    its rtol) applies it once more per cycle, for the residual that serves
    both the convergence test and the next cycle's start; the fixed solve
    starts from x = 0, whose residual is b, so it forms no other."""
    monkeypatch.setattr(krylov_mod, "RESTART", 3)
    monkeypatch.setattr(krylov_mod, "MAXITER", 60)
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    calls = []

    def apply_a(u):
        calls.append(1)
        return a @ u

    if not cfg:
        gmres(apply_a, lambda u: u, b)
        assert len(calls) == krylov_mod.INNER_ITERS
        return
    x, stats = fgmres(apply_a, lambda u: u, b, **cfg)
    cycles = -(-stats.iters // 3)
    assert stats.converged and cycles >= 3
    assert len(calls) == stats.iters + cycles
    assert stats.true_residual == np.linalg.norm(b - a @ x)


def test_gmres_converges_and_reports_true_residual(rng, monkeypatch):
    monkeypatch.setattr(krylov_mod, "MAXITER", 100)
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    x, stats = fgmres(lambda u: a @ u, lambda u: u, b, 1e-9)
    assert stats.converged
    true = np.linalg.norm(b - a @ x)
    assert true <= 1e-9 * np.linalg.norm(b)
    assert abs(stats.true_residual - true) <= 1e-12 * np.linalg.norm(b)


def test_gmres_right_preconditioned_solution(rng, monkeypatch):
    monkeypatch.setattr(krylov_mod, "RESTART", 20)
    monkeypatch.setattr(krylov_mod, "MAXITER", 100)
    a = _well_conditioned(rng)
    p = np.linalg.inv(4.0 * np.eye(a.shape[0]))
    b = rng.standard_normal(a.shape[0])
    x, stats = fgmres(lambda u: a @ u, lambda u: p @ u, b, 1e-11)
    assert stats.converged
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)


def test_gmres_residuals_monotone_within_cycle(rng, monkeypatch):
    monkeypatch.setattr(krylov_mod, "RESTART", 50)    # a single cycle
    monkeypatch.setattr(krylov_mod, "MAXITER", 50)
    a = _well_conditioned(rng, n=50)
    b = rng.standard_normal(50)
    _, stats = fgmres(lambda u: a @ u, lambda u: u, b, 1e-10)
    res = np.array(stats.residuals)
    assert np.all(np.diff(res) <= 1e-12 * res[0])


def test_fgmres_zero_rhs():
    x, stats = fgmres(lambda u: u, lambda u: u, np.zeros(8), 1e-6)
    assert stats.iters == 0 and stats.converged
    assert np.array_equal(x, np.zeros(8))


def test_gmres_zero_rhs():
    """The fixed solve of b = 0 is x = 0, with no apply."""
    def refuse(u):
        raise AssertionError("applied an operator to b = 0")

    assert np.array_equal(gmres(refuse, refuse, np.zeros(8)), np.zeros(8))


def test_gmres_stops_on_a_first_step_breakdown(rng):
    """An operator that annihilates the first direction gives no step: the
    solve ends after one cycle, unconverged, at x = 0."""
    b = rng.standard_normal(8)
    x, stats = fgmres(lambda u: 0.0 * u, lambda u: u, b, 1e-6)
    assert stats.iters == 0 and not stats.converged
    assert np.array_equal(x, np.zeros(8))
    assert stats.true_residual == np.linalg.norm(b)



def test_krylov_config_validation():
    """The solves' settings: RESTART, MAXITER and INNER_ITERS are
    constants, and the outer rtol is KktParams.tol_linear, checked there.
    The fixed solve has no tolerance exit, so it reads no rtol."""
    assert (krylov_mod.RESTART, krylov_mod.MAXITER,
            krylov_mod.INNER_ITERS) == (10, 200, 5)
    # tol_linear lies in (0, 1): the zero vector meets any rtol >= 1
    for bad in (-1.0, 0.0, 1.0, 3.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            KktParams(nu=0.01, beta=1e-2, tol_linear=bad)


def test_gmres_ends_at_a_happy_breakdown(rng):
    """A multiple of the identity is solved in one step, a happy breakdown:
    the fixed solve stops there, after one apply of each operator, with
    the exact solution."""
    b = rng.standard_normal(6)
    a_calls, p_calls = [], []
    x = gmres(lambda u: a_calls.append(1) or 2.0 * u,
              lambda u: p_calls.append(1) or u, b)
    assert len(a_calls) == len(p_calls) == 1
    assert np.allclose(x, b / 2.0, rtol=1e-14)
