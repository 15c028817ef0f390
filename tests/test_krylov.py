"""Sparse kernel, Chebyshev and GMRES/FGMRES contract checks."""

import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from nsctl.krylov import (ChebyshevMassSolver, KrylovConfig,
                          SingularMatrixError, chebyshev_solve, factorize,
                          fgmres, from_triplets, gmres)
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
# from_triplets
# --------------------------------------------------------------------------

def test_triplets_empty():
    a = from_triplets([], [], [], (3, 3))
    assert a.shape == (3, 3) and a.nnz == 0


def test_triplets_duplicates_summed():
    a = from_triplets([0, 0], [0, 0], [1.0, 2.0], (2, 2))
    assert a.nnz == 1
    assert a[0, 0] == 3.0


def test_triplets_identity():
    a = from_triplets([0, 1], [0, 1], [1.0, 1.0], (2, 2))
    assert np.array_equal(a.toarray(), np.eye(2))


def test_triplets_out_of_bounds():
    with pytest.raises(ValueError):
        from_triplets([2], [0], [1.0], (2, 2))
    with pytest.raises(ValueError):
        from_triplets([0], [-1], [1.0], (2, 2))


@given(trips=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                st.floats(-1e3, 1e3)), max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_triplets_match_dense_accumulation(trips, seed):
    rows = [t[0] for t in trips]
    cols = [t[1] for t in trips]
    vals = [t[2] for t in trips]
    a = from_triplets(rows, cols, vals, (5, 5))
    dense = np.zeros((5, 5))
    for r, c, v in trips:
        dense[r, c] += v
    assert np.allclose(a.toarray(), dense, atol=1e-8)
    # assembly order must not matter
    perm = list(range(len(trips)))
    random.Random(seed).shuffle(perm)
    b = from_triplets([rows[i] for i in perm], [cols[i] for i in perm],
                      [vals[i] for i in perm], (5, 5))
    assert np.allclose(a.toarray(), b.toarray(), atol=1e-8)
    # per-row columns strictly increasing
    for i in range(5):
        idx = a.indices[a.indptr[i]:a.indptr[i + 1]]
        assert np.all(np.diff(idx) > 0)


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
    lvl = _level_operators(geom2.mesh.level, geom2.quad.order)
    with pytest.raises(SingularMatrixError):
        factorize(lvl.kp)


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
                               geom3.quad, params), params.gamma)
    shift = system.level_ops.m / np.sqrt(beta)
    for a in ((system.a21 + shift).tocsr(), (system.a12 + shift).tocsr()):
        b = rng.standard_normal(a.shape[0])
        res = np.linalg.norm(a @ factorize(a).solve(b) - b) / np.linalg.norm(b)
        assert res <= 1e-10


# --------------------------------------------------------------------------
# Chebyshev semi-iteration
# --------------------------------------------------------------------------

def test_chebyshev_zero_rhs():
    solver = ChebyshevMassSolver(matrix=sp.eye(4, format="csr"),
                                 interval=(1.0, 1.0), steps=20)
    assert np.array_equal(chebyshev_solve(solver, np.zeros(4)), np.zeros(4))


def test_chebyshev_identity_one_step(rng):
    solver = ChebyshevMassSolver(matrix=sp.eye(5, format="csr"),
                                 interval=(1.0, 1.0), steps=1)
    b = rng.standard_normal(5)
    assert np.array_equal(chebyshev_solve(solver, b), b)


def test_chebyshev_interval_validation():
    with pytest.raises(ValueError):
        ChebyshevMassSolver(matrix=sp.eye(3, format="csr"),
                            interval=(0.0, 1.0), steps=20)
    with pytest.raises(ValueError):
        ChebyshevMassSolver(matrix=sp.eye(3, format="csr"),
                            interval=(2.0, 1.0), steps=20)


def test_chebyshev_is_linear(geom2, rng):
    lvl = _level_operators(geom2.mesh.level, geom2.quad.order)
    solver = ChebyshevMassSolver(matrix=lvl.mp,
                                 interval=mass_eig_interval(geom2.quad, "q1"),
                                 steps=20)
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
                                 interval=mass_eig_interval(geom3.quad, "q2"),
                                 steps=20)
    b = rng.standard_normal(m.shape[0])
    x = chebyshev_solve(solver, b)
    assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-6


# --------------------------------------------------------------------------
# GMRES / FGMRES
# --------------------------------------------------------------------------

def _well_conditioned(rng, n=60):
    return 4.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)


def test_gmres_identity_one_iteration(rng):
    b = rng.standard_normal(10)
    x, stats = gmres(lambda u: u, None, b, KrylovConfig(rtol=1e-12))
    assert stats.iters == 1 and stats.converged
    assert np.allclose(x, b, atol=1e-14)


def test_gmres_fixed_iterations(rng):
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    x, stats = gmres(lambda u: a @ u, None, b, KrylovConfig(fixed_iters=5))
    assert stats.iters == 5
    assert len(stats.residuals) == 5


@pytest.mark.parametrize("k", [1, 3, 5])
def test_gmres_fixed_iterations_apply_preconditioner_once_per_step(rng, k):
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    calls = []

    def apply_p(u):
        calls.append(1)
        return u / 4.0

    _, stats = gmres(lambda u: a @ u, apply_p, b, KrylovConfig(fixed_iters=k))
    assert stats.iters == k
    assert len(calls) == k


@pytest.mark.parametrize("cfg", [
    KrylovConfig(fixed_iters=5),
    KrylovConfig(restart=3, rtol=1e-10, maxiter=60)])
def test_gmres_applies_operator_once_per_step_and_cycle(rng, cfg):
    """Each Arnoldi step applies A once. A restarted solve applies it once
    more per cycle, for the residual that serves both the convergence test
    and the next cycle's start; the fixed mode starts from x = 0, whose
    residual is b."""
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    calls = []

    def apply_a(u):
        calls.append(1)
        return a @ u

    x, stats = gmres(apply_a, None, b, cfg)
    if cfg.fixed_iters is not None:
        assert len(calls) == stats.iters == cfg.fixed_iters
        return
    cycles = -(-stats.iters // cfg.restart)
    assert stats.converged and cycles >= 3
    assert len(calls) == stats.iters + cycles
    assert stats.true_residual == np.linalg.norm(b - a @ x)


def test_gmres_converges_and_reports_true_residual(rng):
    a = _well_conditioned(rng)
    b = rng.standard_normal(a.shape[0])
    cfg = KrylovConfig(restart=10, rtol=1e-9, maxiter=100)
    x, stats = gmres(lambda u: a @ u, None, b, cfg)
    assert stats.converged
    true = np.linalg.norm(b - a @ x)
    assert true <= 1e-9 * np.linalg.norm(b)
    assert abs(stats.true_residual - true) <= 1e-12 * np.linalg.norm(b)


def test_gmres_right_preconditioned_solution(rng):
    a = _well_conditioned(rng)
    p = np.linalg.inv(4.0 * np.eye(a.shape[0]))
    b = rng.standard_normal(a.shape[0])
    cfg = KrylovConfig(restart=20, rtol=1e-11, maxiter=100)
    x, stats = gmres(lambda u: a @ u, lambda u: p @ u, b, cfg)
    assert stats.converged
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)


def test_gmres_residuals_monotone_within_cycle(rng):
    a = _well_conditioned(rng, n=50)
    b = rng.standard_normal(50)
    cfg = KrylovConfig(restart=50, rtol=1e-10, maxiter=50)   # single cycle
    _, stats = gmres(lambda u: a @ u, None, b, cfg)
    res = np.array(stats.residuals)
    assert np.all(np.diff(res) <= 1e-12 * res[0])


def test_fgmres_matches_gmres_for_constant_preconditioner(rng):
    a = _well_conditioned(rng)
    p = np.linalg.inv(np.diag(np.diag(a)))
    b = rng.standard_normal(a.shape[0])
    cfg = KrylovConfig(restart=10, rtol=1e-9, maxiter=100)
    x1, s1 = gmres(lambda u: a @ u, lambda u: p @ u, b, cfg)
    x2, s2 = fgmres(lambda u: a @ u, lambda u: p @ u, b, cfg)
    assert s1.iters == s2.iters
    assert s1.converged and s2.converged
    assert np.allclose(x1, x2, atol=1e-10)


def test_fgmres_zero_rhs():
    x, stats = fgmres(lambda u: u, None, np.zeros(8), KrylovConfig())
    assert stats.iters == 0 and stats.converged
    assert np.array_equal(x, np.zeros(8))


def test_krylov_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(restart=0)
    with pytest.raises(ValueError):
        KrylovConfig(rtol=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            KrylovConfig(rtol=bad)
        with pytest.raises(ValueError):
            KrylovConfig(rtol=bad, fixed_iters=5)
