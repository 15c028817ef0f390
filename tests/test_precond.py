"""Preconditioner building blocks at desk scale."""

import dataclasses
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import nsctl.operators as operators_mod
import nsctl.precond as precond_mod
from nsctl.grid_fem import cell_stars, setup_geometry
from nsctl.krylov import (ChebyshevMassSolver, Factorization, KrylovConfig,
                          SingularMatrixError, chebyshev_solve, factorize,
                          gmres)
from nsctl.newton import NewtonConfig, _newton_step, initial_state
from nsctl.operators import (CHEB_STEPS, KktParams, PressureOperators,
                             StateIterate, _level_operators, _wind_terms,
                             augment, build_kkt, lift_boundary,
                             mass_eig_interval)
from nsctl.precond import (IdealPrecond, MatchingSchur, Multigrid,
                           build_matching, build_precond, inner_p1_apply,
                           matching_apply, outer_p2_apply)


def _stokes_system(geom, nu=0.01, beta=1e-2, augmented=False, pinned=False,
                   approach="otd"):
    d = geom.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=nu, beta=beta, approach=approach)
    system = build_kkt(state, geom.mesh, geom.dofmap, geom.patches, geom.quad,
                       params, wind=np.zeros(d.n_v_full), pin=pinned)
    return augment(system, params.gamma) if augmented else system


# --------------------------------------------------------------------------
# matching strategy
# --------------------------------------------------------------------------

def test_matching_roundtrip(geom2, rng, matching_factors):
    system = _stokes_system(geom2, augmented=True)
    ms = build_matching(system)
    mat_21, mat_12 = matching_factors(system)
    x = rng.standard_normal(system.n_v)
    s_x = mat_21 @ factorize(ms.mass).solve(mat_12 @ x)           # S~ x
    back = matching_apply(ms, s_x)
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_matching_apply_matches_dense(geom2, rng, matching_factors):
    system = _stokes_system(geom2, augmented=True)
    ms = build_matching(system)
    mat_21, mat_12 = matching_factors(system)
    m_inv = np.linalg.inv(ms.mass.toarray())
    s_dense = mat_21.toarray() @ m_inv @ mat_12.toarray()
    rhs = rng.standard_normal(system.n_v)
    got = matching_apply(ms, rhs)
    want = np.linalg.solve(s_dense, rhs)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_matching_factors_include_shift(geom2, rng, matching_factors):
    """The two inverses invert a21 and a12 shifted by L = M / sqrt(beta),
    and the mass they apply between them is the level record's M."""
    system = _stokes_system(geom2, augmented=True)
    ms = build_matching(system)
    assert ms.mass is system.level_ops.m
    shift = system.level_ops.m / np.sqrt(system.params.beta)
    mat_21, mat_12 = matching_factors(system)
    for diff in ((mat_21 - system.a21 - shift).tocsr(),
                 (mat_12 - system.a12 - shift).tocsr()):
        assert (np.abs(diff.data).max(initial=0.0) if diff.nnz else 0.0) \
            <= 1e-14
    b = rng.standard_normal(system.n_v)
    for a, inv in ((mat_21, ms.inv_21), (mat_12, ms.inv_12)):
        assert np.linalg.norm(a @ inv.solve(b) - b) \
            <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("beta", [1e-1, 1e-5])
def test_multigrid_cycle_contracts_matching_residual(geom3, beta,
                                                     matching_factors):
    """One cycle on the level-3 augmented matching factors, lid wind included.

    Measured worst reductions over three random right-hand sides: 0.048 at
    beta=1e-1 and 0.018 at beta=1e-5 (gamma = 31.6 and 3162); the bound 0.1
    leaves a margin of two over the worse of them.
    """
    d = geom3.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=0.01, beta=beta)
    system = augment(build_kkt(state, geom3.mesh, d, geom3.patches,
                               geom3.quad, params), params.gamma)
    assert isinstance(build_matching(system).inv_21, Factorization)
    ms = build_matching(system, exact=False)
    mat_21, mat_12 = matching_factors(system)
    for a, inv in ((mat_21, ms.inv_21), (mat_12, ms.inv_12)):
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


def test_multigrid_hierarchy_identical_with_warm_geometry_cache(
        geom3, matching_factors):
    system = _stokes_system(geom3, beta=1e-3, augmented=True)
    mat, _ = matching_factors(system)
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
    return augment(build_kkt(state, geom3.mesh, geom3.dofmap, geom3.patches,
                             geom3.quad, params, wind=state.v,
                             stab_wind=state.v), params.gamma)


@pytest.mark.parametrize("exact", [True, False])
def test_concurrent_matching_build_equals_sequential(step2_system, exact,
                                                     matching_factors):
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
    mat_21, mat_12 = matching_factors(step2_system)
    if exact:
        seq_21, seq_12 = factorize(mat_21), factorize(mat_12)
    else:
        seq_21 = precond_mod.build_multigrid(mat_21, 3)
        seq_12 = precond_mod.build_multigrid(mat_12, 3)
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


def _rss_mb():
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident set size from /proc")
def test_worker_built_factors_are_freed():
    """scipy's SuperLU wrapper frees a factor's memory only on the thread
    that built it, so the worker-built factor must be dropped there: twenty
    exact matching builds at level 4 in one process may grow the resident
    set by at most 50 MB (a factor never freed costs about 9 MB a build)."""
    system = _stokes_system(setup_geometry(4), nu=1 / 250, beta=1e-3,
                            augmented=True)
    build_matching(system)
    before = _rss_mb()
    for _ in range(20):
        build_matching(system)
    grown = _rss_mb() - before
    assert grown <= 50.0, f"resident set grew by {grown:.0f} MB"


# --------------------------------------------------------------------------
# outer Schur approximations
# --------------------------------------------------------------------------

def _zero_mean_pinned_rhs(rng, n):
    r = rng.standard_normal(n)
    r[0] = 0.0
    r[1:] -= r[1:].mean()
    return r


def test_al_outer_cross_pairing(geom2, rng):
    stack = build_precond(_stokes_system(geom2), "al", exact_blocks=True)
    system = stack.system
    n_p = system.n_p
    kp, w = system.level_ops.kp, system.level_ops.mp_diag
    gamma, beta = system.params.gamma, system.params.beta

    r = _zero_mean_pinned_rhs(rng, n_p)
    y1, y2 = precond_mod.al_outer_schur_apply(system, r, np.zeros(n_p))
    # first residual feeds the Laplacian part of y1 ...
    assert np.linalg.norm(kp @ y1 - r) <= 1e-9 * np.linalg.norm(r)
    assert abs(y1.mean()) <= 1e-12
    # ... and the weighted part of y2
    assert np.allclose(y2, gamma * (r / w), atol=1e-13)

    y1, y2 = precond_mod.al_outer_schur_apply(system, np.zeros(n_p), r)
    assert np.allclose(y1, gamma * (r / w), atol=1e-13)
    assert np.linalg.norm(kp @ (-beta * y2) - r) <= 1e-9 * np.linalg.norm(r)


def test_al_outer_zero_rhs(geom2):
    stack = build_precond(_stokes_system(geom2), "al", exact_blocks=True)
    system = stack.system
    y1, y2 = precond_mod.al_outer_schur_apply(system,
                                              np.zeros(system.n_p),
                                              np.zeros(system.n_p))
    assert not y1.any() and not y2.any()


def test_bpcd_stokes_limit(geom2):
    stack = build_precond(_stokes_system(geom2), "bpcd", exact_blocks=True)
    system = stack.system
    nu_kp = (system.params.nu * system.level_ops.kp).tocsr()
    for block in (stack.outer.dp, stack.outer.dp_adj):
        diff = (block - nu_kp).tocsr()
        assert (np.abs(diff.data).max(initial=0.0) if diff.nnz else 0.0) \
            <= 1e-15


def test_bpcd_outer_zero_rhs(geom2):
    stack = build_precond(_stokes_system(geom2), "bpcd", exact_blocks=False)
    system = stack.system
    y1, y2 = precond_mod.bpcd_outer_schur_apply(stack, np.zeros(system.n_p),
                                                np.zeros(system.n_p))
    assert not y1.any() and not y2.any()


@pytest.mark.parametrize("exact", [True, False])
def test_bpcd_outer_apply_reads_the_level(geom2, rng, exact):
    """The bpcd outer Schur inverse, with Kp's LU, Mp and beta read from the
    step system, equals the blockwise formula bit for bit on a step system
    at a random wind, with D_p formed from the kernel's Np and Wp."""
    d = geom2.dofmap
    v = lift_boundary(d)
    v[d.interior_vdofs] = rng.standard_normal(d.n_v_int)
    state = StateIterate(v=v, zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=1 / 250, beta=1e-2)
    plain = build_kkt(state, geom2.mesh, d, geom2.patches, geom2.quad, params)
    stack = build_precond(plain, "bpcd", exact_blocks=exact)
    system = stack.system
    lvl, beta = system.level_ops, system.params.beta
    n_p, w_p = _wind_terms(geom2.mesh, d, geom2.patches, geom2.quad, v,
                           params.nu, True, None, geom2.quad.q1_vals, lvl.g1,
                           d.cell_q1, d.n_p)
    assert np.abs(w_p).max() > 0.0
    base = (params.nu * lvl.kp + w_p).tocsr()
    dp_od, dp_do = (base - n_p).tocsr(), (base + n_p).tocsr()
    mp_solve = (lvl.mp_lu.solve if exact
                else lambda b: chebyshev_solve(lvl.mp_cheb, b))
    r1, r2 = rng.standard_normal(system.n_p), rng.standard_normal(system.n_p)
    u1 = precond_mod._pinned_solve(lvl.kp_pinned_lu, r1)
    u2 = precond_mod._pinned_solve(lvl.kp_pinned_lu, r2)
    want = (mp_solve(lvl.mp @ u1 + dp_od @ u2),
            mp_solve(dp_do @ u1 - (lvl.mp @ u2) / beta))
    got = precond_mod.bpcd_outer_schur_apply(stack, r1, r2)
    assert np.any(want[0]) and np.any(want[1])
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


# --------------------------------------------------------------------------
# inner momentum preconditioner
# --------------------------------------------------------------------------

def test_inner_p1_zero_and_linearity(geom2, rng):
    stack = build_precond(_stokes_system(geom2), "al", exact_blocks=True)
    system = stack.system
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
    stack = build_precond(_stokes_system(geom2), kind, exact_blocks=True)
    system = stack.system
    mom = system.momentum()
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
    stack = build_precond(_stokes_system(geom2), "al", exact_blocks=exact)
    system = stack.system
    mom = system.momentum()
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
    for kind in ("al", "bpcd", "ideal"):
        with pytest.raises(ValueError):     # takes the unpinned system
            build_precond(_stokes_system(geom2, pinned=True), kind)
    with pytest.raises(ValueError):
        build_precond(_stokes_system(geom2), "ilu")


@pytest.mark.parametrize("level", [2, 3])
def test_stack_reads_the_level_record(request, monkeypatch, rng, level):
    """Every step system carries the cached operators of its level, and the
    stack takes the level and the Chebyshev mass solvers from that record,
    with no geometry passed in: once the record is built, building the AL
    and bpcd stacks constructs no Chebyshev solver, and their mass solves
    are the record's solvers bit for bit."""
    geom = request.getfixturevalue(f"geom{level}")
    lvl = _level_operators(level, geom.quad.order)
    plain = _stokes_system(geom)
    for system in (plain, _stokes_system(geom, augmented=True),
                   _stokes_system(geom, pinned=True)):
        assert system.level_ops is lvl
    for cheb, mat, vals in ((lvl.m_cheb, lvl.m, geom.quad.q2_vals),
                            (lvl.mp_cheb, lvl.mp, geom.quad.q1_vals)):
        assert cheb.matrix is mat and cheb.steps == CHEB_STEPS
        assert cheb.interval == mass_eig_interval(geom.quad, vals)

    def refuse(self):
        raise AssertionError("a stack built a Chebyshev mass solver")

    monkeypatch.setattr(ChebyshevMassSolver, "__post_init__", refuse)
    stack = build_precond(plain, "al")
    assert stack.system.level_ops is lvl
    for mg in (stack.matching.inv_21, stack.matching.inv_12):
        assert len(mg.prolongations) == level - precond_mod.MG_COARSEST
    bpcd = build_precond(plain, "bpcd")
    b = rng.standard_normal(lvl.m.shape[0])
    bp = rng.standard_normal(lvl.mp.shape[0])
    want = chebyshev_solve(lvl.m_cheb, b)
    assert np.array_equal(stack.mass_solve(b), want)
    assert np.array_equal(bpcd.mass_solve(b), want)
    assert np.array_equal(bpcd.mp_solve(bp),
                          chebyshev_solve(lvl.mp_cheb, bp))


def test_stacks_hold_only_per_step_objects(geom2):
    """A matching Schur approximation holds M and the two inverses only,
    with M the level record's; the bpcd stack's outer part is the step's
    pressure-space pair and holds none of the level's data."""
    assert [f.name for f in dataclasses.fields(MatchingSchur)] \
        == ["mass", "inv_21", "inv_12"]
    assert [f.name for f in dataclasses.fields(PressureOperators)] \
        == ["dp", "dp_adj"]
    stack = build_precond(_stokes_system(geom2), "bpcd")
    assert set(vars(stack.matching)) == {"mass", "inv_21", "inv_12"}
    assert stack.matching.mass is stack.system.level_ops.m
    assert type(stack.outer) is PressureOperators
    assert set(vars(stack.outer)) == {"dp", "dp_adj"}


def test_level_factorizations_built_once(geom2, monkeypatch):
    """The LUs of M, Mp and the pinned Kp are the level record's: stacks on
    two systems of one level factorize each at most once, and the
    multigrid stacks factorize neither mass matrix."""
    lvl = _level_operators(2, geom2.quad.order)
    seen = []
    real = precond_mod.factorize

    def which(a):
        if a.shape == lvl.m.shape and abs(a - lvl.m).max() == 0.0:
            return "M"
        if a.shape == lvl.mp.shape:
            return "Mp" if abs(a - lvl.mp).max() == 0.0 else "Kp"
        return None

    def counting(a):
        seen.append(which(a))
        return real(a)

    monkeypatch.setattr(operators_mod, "factorize", counting, raising=False)
    monkeypatch.setattr(precond_mod, "factorize", counting)
    for exact in (False, True):
        for beta in (1e-2, 1e-3):
            stack = build_precond(_stokes_system(geom2, beta=beta), "bpcd",
                                  exact_blocks=exact)
        if not exact:
            assert "M" not in seen and "Mp" not in seen
    assert all(seen.count(name) <= 1 for name in ("M", "Mp", "Kp")), seen
    assert stack.mass_solve == lvl.m_lu.solve
    assert stack.mp_solve == lvl.mp_lu.solve


def test_outer_p2_zero_rhs(geom2):
    for kind in ("al", "bpcd"):
        stack = build_precond(_stokes_system(geom2), kind)
        z = outer_p2_apply(stack, np.zeros(stack.system.dim))
        assert not z.any()
