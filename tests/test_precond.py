"""Preconditioner building blocks at desk scale."""

import dataclasses
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import nsctl.precond as precond_mod
from nsctl.grid_fem import cell_stars
from nsctl.krylov import (Factorization, KrylovConfig, SingularMatrixError,
                          factorize, gmres)
from nsctl.newton import NewtonConfig, _newton_step, initial_state
from nsctl.operators import (KktParams, StateIterate, _level_operators,
                             build_kkt, lift_boundary, mass_eig_interval)
from nsctl.precond import (IdealPrecond, Multigrid, build_matching,
                           build_precond, inner_p1_apply, matching_apply,
                           matching_forward, outer_p2_apply)


def _stokes_system(geom, nu=0.01, beta=1e-2, augmented=False, pinned=False,
                   approach="otd"):
    d = geom.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=nu, beta=beta, approach=approach)
    return build_kkt(state, geom.mesh, geom.dofmap, geom.patches, geom.quad,
                     params, wind=np.zeros(d.n_v_full), do_augment=augmented,
                     pin=pinned)


# --------------------------------------------------------------------------
# matching strategy
# --------------------------------------------------------------------------

def test_matching_roundtrip(geom2, rng):
    system = _stokes_system(geom2, augmented=True)
    ms = build_matching(system)
    x = rng.standard_normal(system.n_v)
    back = matching_apply(ms, matching_forward(ms, x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_matching_apply_matches_dense(geom2, rng):
    system = _stokes_system(geom2, augmented=True)
    ms = build_matching(system)
    m_inv = np.linalg.inv(ms.mass.toarray())
    s_dense = ms.mat_21.toarray() @ m_inv @ ms.mat_12.toarray()
    rhs = rng.standard_normal(system.n_v)
    got = matching_apply(ms, rhs)
    want = np.linalg.solve(s_dense, rhs)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_matching_factors_include_shift(geom2):
    system = _stokes_system(geom2, augmented=True)
    ms = build_matching(system)
    shift = system.level_ops.m / np.sqrt(system.params.beta)
    d21 = (ms.mat_21 - system.a21 - shift).tocsr()
    d12 = (ms.mat_12 - system.a12 - shift).tocsr()
    for diff in (d21, d12):
        assert (np.abs(diff.data).max(initial=0.0) if diff.nnz else 0.0) \
            <= 1e-14


@pytest.mark.parametrize("beta", [1e-1, 1e-5])
def test_multigrid_cycle_contracts_matching_residual(geom3, beta):
    """One cycle on the level-3 augmented matching factors, lid wind included.

    Measured worst reductions over three random right-hand sides: 0.048 at
    beta=1e-1 and 0.018 at beta=1e-5 (gamma = 31.6 and 3162); the bound 0.1
    leaves a margin of two over the worse of them.
    """
    d = geom3.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    system = build_kkt(state, geom3.mesh, d, geom3.patches, geom3.quad,
                       KktParams(nu=0.01, beta=beta), do_augment=True)
    assert isinstance(build_matching(system).inv_21, Factorization)
    ms = build_matching(system, exact=False)
    for a, inv in ((ms.mat_21, ms.inv_21), (ms.mat_12, ms.inv_12)):
        assert isinstance(inv, Multigrid)
        for seed in range(3):
            b = np.random.default_rng(seed).standard_normal(a.shape[0])
            rel = np.linalg.norm(b - a @ inv.solve(b)) / np.linalg.norm(b)
            assert rel <= 0.1, f"beta={beta:g} seed={seed}: {rel:.3f}"
    # the cycle is a fixed linear map, so the inner GMRES sees one
    # preconditioned matrix
    b1, b2 = (np.random.default_rng(s).standard_normal(system.n_v)
              for s in (5, 6))
    lin = ms.inv_21.solve(b1 + b2) - ms.inv_21.solve(b1) - ms.inv_21.solve(b2)
    assert np.linalg.norm(lin) <= 1e-12 * np.linalg.norm(ms.inv_21.solve(b1))


def _csr_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def test_multigrid_hierarchy_identical_with_warm_geometry_cache(geom3):
    system = _stokes_system(geom3, beta=1e-3, augmented=True)
    mat = build_matching(system).mat_21
    precond_mod._velocity_prolongation.cache_clear()
    cell_stars.cache_clear()
    cold = precond_mod.build_multigrid(mat, 3)
    warm = precond_mod.build_multigrid(mat, 3)
    assert precond_mod._velocity_prolongation.cache_info().hits == 2
    assert cell_stars.cache_info().hits == 2
    for a, b in zip(cold.ops + cold.prolongations,
                    warm.ops + warm.prolongations, strict=True):
        assert _csr_equal(a, b)
    for ga, gb in zip(cold.smoothers, warm.smoothers, strict=True):
        for sa, sb in zip(ga, gb, strict=True):
            assert np.array_equal(sa.dofs, sb.dofs)
            assert _csr_equal(sa.rows, sb.rows)
            assert np.array_equal(sa.inv, sb.inv)
    # the cached arrays are shared between hierarchies, so they are read-only
    p = warm.prolongations[0]
    assert not any(x.flags.writeable for x in (p.data, p.indices, p.indptr))
    assert not any(g.flags.writeable for g in cell_stars(3))


@pytest.fixture(scope="module")
def step2_system(geom3):
    """The augmented level-3 system of Newton step 2 at nu=1/100, beta=1e-2:
    its wind and its frozen stabilization wind are the step-1 velocity."""
    params = KktParams(nu=0.01, beta=1e-2)
    zero = np.zeros(geom3.dofmap.n_v_full)
    state, _, _ = _newton_step(initial_state(geom3.dofmap),
                               NewtonConfig(exact_blocks=True), params, geom3,
                               wind=zero)
    return build_kkt(state, geom3.mesh, geom3.dofmap, geom3.patches,
                     geom3.quad, params, wind=state.v, stab_wind=state.v,
                     do_augment=True)


@pytest.mark.parametrize("exact", [True, False])
def test_concurrent_matching_build_equals_sequential(step2_system, exact):
    """The two factors built side by side solve bit for bit as the same
    factors built one after the other in this thread, also when both
    threads fill the cold per-level geometry caches at once (a short switch
    interval makes the threads interleave often)."""
    precond_mod._velocity_prolongation.cache_clear()
    cell_stars.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ms = build_matching(step2_system, exact=exact)
    finally:
        sys.setswitchinterval(interval)
    if exact:
        seq_21, seq_12 = factorize(ms.mat_21), factorize(ms.mat_12)
    else:
        seq_21 = precond_mod.build_multigrid(ms.mat_21, 3)
        seq_12 = precond_mod.build_multigrid(ms.mat_12, 3)
    b = np.random.default_rng(7).standard_normal(step2_system.n_v)
    assert np.array_equal(ms.inv_21.solve(b), seq_21.solve(b))
    assert np.array_equal(ms.inv_12.solve(b), seq_12.solve(b))


@pytest.mark.parametrize("exact, error", [
    (True, SingularMatrixError), (False, np.linalg.LinAlgError)])
def test_matching_build_error_propagates(geom2, exact, error):
    """A zero (Psi1 + L)^T cannot be factorized (LU) or star-smoothed
    (multigrid); its build runs in the worker thread, and the error reaches
    the caller."""
    system = _stokes_system(geom2, augmented=True)
    lam = system.level_ops.m / np.sqrt(system.params.beta)
    broken = dataclasses.replace(system, a12=(-lam).tocsr())
    with pytest.raises(error):
        build_matching(broken, exact=exact)


# --------------------------------------------------------------------------
# outer Schur approximations
# --------------------------------------------------------------------------

def _zero_mean_pinned_rhs(rng, n):
    r = rng.standard_normal(n)
    r[0] = 0.0
    r[1:] -= r[1:].mean()
    return r


def test_al_outer_cross_pairing(geom2, rng):
    system = _stokes_system(geom2, augmented=True)
    stack = build_precond(system, "al", exact_blocks=True)
    s = stack.outer
    n_p = system.n_p
    kp = system.level_ops.kp

    r = _zero_mean_pinned_rhs(rng, n_p)
    y1, y2 = precond_mod.al_outer_schur_apply(s, r, np.zeros(n_p))
    # first residual feeds the Laplacian part of y1 ...
    assert np.linalg.norm(kp @ y1 - r) <= 1e-9 * np.linalg.norm(r)
    assert abs(y1.mean()) <= 1e-12
    # ... and the weighted part of y2
    assert np.allclose(y2, s.gamma * (r / s.w_diag), atol=1e-13)

    y1, y2 = precond_mod.al_outer_schur_apply(s, np.zeros(n_p), r)
    assert np.allclose(y1, s.gamma * (r / s.w_diag), atol=1e-13)
    assert np.linalg.norm(kp @ (-s.beta * y2) - r) <= 1e-9 * np.linalg.norm(r)


def test_al_outer_zero_rhs(geom2):
    system = _stokes_system(geom2, augmented=True)
    stack = build_precond(system, "al", exact_blocks=True)
    y1, y2 = precond_mod.al_outer_schur_apply(stack.outer,
                                              np.zeros(system.n_p),
                                              np.zeros(system.n_p))
    assert not y1.any() and not y2.any()


def test_bpcd_stokes_limit(geom2):
    system = _stokes_system(geom2, augmented=False)
    stack = build_precond(system, "bpcd", exact_blocks=True)
    s = stack.outer
    nu_kp = (system.params.nu * system.level_ops.kp).tocsr()
    for block in (s.dp_od, s.dp_do):
        diff = (block - nu_kp).tocsr()
        assert (np.abs(diff.data).max(initial=0.0) if diff.nnz else 0.0) \
            <= 1e-15


def test_bpcd_outer_zero_rhs(geom2):
    system = _stokes_system(geom2, augmented=False)
    stack = build_precond(system, "bpcd", exact_blocks=False)
    y1, y2 = precond_mod.bpcd_outer_schur_apply(stack.outer,
                                                np.zeros(system.n_p),
                                                np.zeros(system.n_p))
    assert not y1.any() and not y2.any()


# --------------------------------------------------------------------------
# inner momentum preconditioner
# --------------------------------------------------------------------------

def test_inner_p1_zero_and_linearity(geom2, rng):
    system = _stokes_system(geom2, augmented=True)
    stack = build_precond(system, "al", exact_blocks=True)
    z = inner_p1_apply(stack, np.zeros(2 * system.n_v))
    assert not z.any()
    a = rng.standard_normal(2 * system.n_v)
    b = rng.standard_normal(2 * system.n_v)
    zab = inner_p1_apply(stack, a + b)
    za = inner_p1_apply(stack, a)
    zb = inner_p1_apply(stack, b)
    assert np.linalg.norm(zab - za - zb) <= 1e-10 * np.linalg.norm(zab)


@pytest.mark.parametrize("augmented", [True, False])
def test_inner_momentum_solve_quality(geom2, augmented):
    kind = "al" if augmented else "bpcd"
    system = _stokes_system(geom2, augmented=augmented)
    stack = build_precond(system, kind, exact_blocks=True)
    mom = stack.momentum
    rhs = np.concatenate([system.rhs1, system.rhs2])

    cfg = KrylovConfig(fixed_iters=5)
    x5, _ = gmres(lambda x: mom @ x,
                  lambda x: inner_p1_apply(stack, x), rhs, cfg)
    assert np.linalg.norm(rhs - mom @ x5) <= 1e-2 * np.linalg.norm(rhs)

    cfg = KrylovConfig(restart=30, rtol=1e-10, maxiter=30)
    _, stats = gmres(lambda x: mom @ x,
                     lambda x: inner_p1_apply(stack, x), rhs, cfg)
    assert stats.converged
    assert stats.iters <= 15


@pytest.mark.parametrize("exact", [True, False])
def test_inner_gmres_update_matches_preconditioned_basis_form(geom2, exact):
    """The update Z y equals P(V y), the form that applies the linear inner
    preconditioner once more, with y the residual minimizer over span(Z)."""
    system = _stokes_system(geom2, augmented=True)
    stack = build_precond(system, "al", exact_blocks=exact)
    mom = stack.momentum
    rhs = np.concatenate([system.rhs1, system.rhs2])
    basis, images = [], []

    def apply_p(v):
        basis.append(v.copy())
        images.append(inner_p1_apply(stack, v))
        return images[-1]

    x, _ = gmres(lambda u: mom @ u, apply_p, rhs, KrylovConfig(fixed_iters=5))
    az = np.column_stack([mom @ z for z in images])
    y = np.linalg.lstsq(az, rhs, rcond=None)[0]
    old = inner_p1_apply(stack, np.column_stack(basis) @ y)
    assert np.linalg.norm(x - old) <= 1e-12 * np.linalg.norm(old)


# --------------------------------------------------------------------------
# ideal preconditioners
# --------------------------------------------------------------------------

def test_ideal_p1_inverts_lower_triangle(geom2, rng):
    system = _stokes_system(geom2, pinned=True)
    pre = IdealPrecond(system)
    nm = 2 * system.n_v
    rhs = rng.standard_normal(system.dim)
    z = pre.apply(rhs, side="p1")
    z_m, z_p = z[:nm], z[nm:]
    f = system.momentum()
    b_blk = sp.bmat([[system.b, None], [None, system.b]], format="csr")
    sd = b_blk @ np.linalg.solve(f.toarray(), b_blk.T.toarray())
    assert np.linalg.norm(f @ z_m - rhs[:nm]) \
        <= 1e-10 * np.linalg.norm(rhs[:nm])
    assert np.linalg.norm(b_blk @ z_m - sd @ z_p - rhs[nm:]) \
        <= 1e-8 * np.linalg.norm(rhs)


def test_ideal_p2_inverts_upper_triangle(geom2, rng):
    system = _stokes_system(geom2, pinned=True)
    pre = IdealPrecond(system)
    nm = 2 * system.n_v
    rhs = rng.standard_normal(system.dim)
    z = pre.apply(rhs, side="p2")
    z_m, z_p = z[:nm], z[nm:]
    f = system.momentum()
    b_blk = sp.bmat([[system.b, None], [None, system.b]], format="csr")
    sd = b_blk @ np.linalg.solve(f.toarray(), b_blk.T.toarray())
    assert np.linalg.norm(-sd @ z_p - rhs[nm:]) \
        <= 1e-8 * np.linalg.norm(rhs)
    assert np.linalg.norm(f @ z_m + b_blk.T @ z_p - rhs[:nm]) \
        <= 1e-10 * np.linalg.norm(rhs)


def test_ideal_requires_pinned_system(geom2):
    system = _stokes_system(geom2, pinned=False)
    with pytest.raises(ValueError):
        IdealPrecond(system)


def test_ideal_size_guard(geom2, monkeypatch):
    monkeypatch.setattr(precond_mod, "_IDEAL_GUARD", 100)
    system = _stokes_system(geom2, pinned=True)
    with pytest.raises(ValueError):
        IdealPrecond(system)


def test_ideal_side_validation(geom2, rng):
    system = _stokes_system(geom2, pinned=True)
    pre = IdealPrecond(system)
    with pytest.raises(ValueError):
        pre.apply(rng.standard_normal(system.dim), side="p3")


# --------------------------------------------------------------------------
# configured stack
# --------------------------------------------------------------------------

def test_build_precond_validation(geom2):
    plain = _stokes_system(geom2)
    augmented = _stokes_system(geom2, augmented=True)
    with pytest.raises(ValueError):
        build_precond(plain, "al")          # needs augmentation
    with pytest.raises(ValueError):
        build_precond(augmented, "bpcd")    # must not be augmented
    with pytest.raises(ValueError):
        build_precond(_stokes_system(geom2, pinned=True), "al")
    with pytest.raises(ValueError):
        build_precond(plain, "ilu")


@pytest.mark.parametrize("level", [2, 3])
def test_stack_reads_the_level_record(request, monkeypatch, level):
    """Every step system carries the cached operators of its level, and the
    stack takes the level, the mass matrices and their Chebyshev intervals
    from that record, with no geometry passed in."""
    geom = request.getfixturevalue(f"geom{level}")
    lvl = _level_operators(level, geom.quad.order)
    plain = _stokes_system(geom)
    augmented = _stokes_system(geom, augmented=True)
    for system in (plain, augmented, _stokes_system(geom, pinned=True)):
        assert system.level_ops is lvl

    built = []
    real = precond_mod.ChebyshevMassSolver
    names = {id(lvl.m): "M", id(lvl.mp): "Mp"}

    def recording(**kw):
        built.append((names.get(id(kw["matrix"])), kw["interval"]))
        return real(**kw)

    monkeypatch.setattr(precond_mod, "ChebyshevMassSolver", recording)
    q2, q1 = mass_eig_interval(geom.quad, "q2"), mass_eig_interval(geom.quad, "q1")
    stack = build_precond(augmented, "al")
    for mg in (stack.matching.inv_21, stack.matching.inv_12):
        assert len(mg.prolongations) == level - precond_mod.MG_COARSEST
    assert built == [("M", q2)]
    built.clear()
    build_precond(plain, "bpcd")
    assert built == [("M", q2), ("Mp", q1)]


def test_outer_p2_zero_rhs(geom2):
    for kind, augmented in (("al", True), ("bpcd", False)):
        system = _stokes_system(geom2, augmented=augmented)
        stack = build_precond(system, kind)
        z = outer_p2_apply(stack, np.zeros(system.dim))
        assert not z.any()
