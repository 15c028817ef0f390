"""Preconditioner building blocks at desk scale."""

import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

import nsctl.krylov as krylov_mod
import nsctl.operators as operators_mod
import nsctl.precond as precond_mod
from nsctl.grid_fem import cell_stars, q2_prolongation, setup_geometry
from nsctl.krylov import (ChebyshevMassSolver, Factorization,
                          SingularMatrixError, chebyshev_solve, factorize,
                          fgmres, gmres)
from nsctl.newton import _newton_step, initial_state, newton_solve
from nsctl.operators import (KktParams, PressureOperators,
                             StateIterate, _level_operators, _wind_terms,
                             augment, build_kkt, lift_boundary,
                             mass_eig_interval)
from nsctl.precond import (MatchingSchur, Multigrid, PrecondStack,
                           build_matching, build_precond, inner_p1_apply,
                           matching_apply, outer_p2_apply)


def _stokes_system(geom, nu=0.01, beta=1e-2, augmented=False, pinned=False,
                   **settings):
    """The Stokes step system of the lifted zero state; `settings` are
    further KktParams fields, such as the stack's `precond`."""
    d = geom.dofmap
    state = StateIterate(v=lift_boundary(d), zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=nu, beta=beta, **settings)
    system = build_kkt(state, geom.mesh, geom.dofmap, geom.patches, geom.quad,
                       params, wind=np.zeros(d.n_v_full), pin=pinned)
    return augment(system) if augmented else system


def _with_params(system, **changes):
    """`system` with the given KktParams fields changed."""
    return dataclasses.replace(
        system, params=dataclasses.replace(system.params, **changes))


# --------------------------------------------------------------------------
# matching strategy
# --------------------------------------------------------------------------

def test_matching_roundtrip(geom2, rng, matching_factors):
    system = _stokes_system(geom2, augmented=True, exact_blocks=True)
    ms = build_matching(system)
    mat_21, mat_12 = matching_factors(system)
    x = rng.standard_normal(system.n_v)
    s_x = mat_21 @ factorize(ms.mass).solve(mat_12 @ x)           # S~ x
    back = matching_apply(ms, s_x)
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_matching_apply_matches_dense(geom2, rng, matching_factors):
    system = _stokes_system(geom2, augmented=True, exact_blocks=True)
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
    system = _stokes_system(geom2, augmented=True, exact_blocks=True)
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
                               geom3.quad, params))
    lu = build_matching(_with_params(system, exact_blocks=True))
    assert isinstance(lu.inv_21, Factorization)
    ms = build_matching(system)
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
    """A hierarchy built from the warm per-level geometry caches, and one
    built from the warm star plans as well, equal a cold build bit for
    bit."""
    system = _stokes_system(geom3, beta=1e-3, augmented=True)
    mat, _ = matching_factors(system)
    q2_prolongation.cache_clear()
    cell_stars.cache_clear()
    precond_mod._star_plans.clear()
    cold = precond_mod.build_multigrid(mat, 3)
    precond_mod._star_plans.clear()  # replan from the warm geometry
    warm = precond_mod.build_multigrid(mat, 3)
    assert q2_prolongation.cache_info().hits == 2
    assert cell_stars.cache_info().hits == 2
    planned = precond_mod.build_multigrid(mat, 3)
    assert cell_stars.cache_info().hits == 2   # the plans were reused
    for other in (warm, planned):
        _assert_hierarchies_equal(cold, other)
    # the hierarchy applies the geometry layer's prolongations themselves;
    # the cached arrays are shared between hierarchies, so they are read-only
    for p, l in zip(warm.prolongations, (3, 2), strict=True):
        assert p is q2_prolongation(l)
    p = warm.prolongations[0]
    assert not any(x.flags.writeable for x in (p.data, p.indices, p.indptr))
    assert not any(g.flags.writeable for g in cell_stars(3))


def _assert_hierarchies_equal(a, b):
    for x, y in zip(a.ops + a.prolongations + a.restrictions,
                    b.ops + b.prolongations + b.restrictions, strict=True):
        assert _csr_equal(x, y)
    for ga, gb in zip(a.smoothers, b.smoothers, strict=True):
        for sa, sb in zip(ga, gb, strict=True):
            assert np.array_equal(sa.dofs, sb.dofs)
            assert _csr_equal(sa.rows, sb.rows)
            assert np.array_equal(sa.inv, sb.inv)


def _reference_stars(a, level):
    """Per star group of the level: its rows [-A[D, not D] | I_D] over
    [x; b] and its (n_stars, k, k) blocks A[D, D], by fancy indexing into
    `a`; each row keeps the entries of `a` in their stored order, then its
    identity entry."""
    out = []
    for d in cell_stars(level):
        k = d.shape[1]
        rows = a[d.ravel()]
        row = np.repeat(np.arange(d.size), np.diff(rows.indptr))
        off = ~(d[row // k] == rows.indices[:, None]).any(axis=1)
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(row[off], minlength=d.size))])
        blocks = a[np.repeat(d, k, axis=1).ravel(), np.tile(d, (1, k)).ravel()]
        off_rows = sp.csr_matrix((rows.data[off], rows.indices[off], indptr),
                                 shape=rows.shape)
        eye = sp.csr_matrix((np.ones(d.size), d.ravel(),
                             np.arange(d.size + 1)), shape=rows.shape)
        out.append((sp.hstack([-off_rows, eye], format="csr"),
                    np.asarray(blocks).reshape(-1, k, k)))
    return out


def _assert_smoothers_match_reference(mg, level):
    """Every level's star rows, blocks and inverses equal the fancy-index
    reference bit for bit."""
    for k, groups in enumerate(mg.smoothers):
        a = mg.ops[k]
        _, _, plan = precond_mod._star_plans[level - k]
        data = np.append(a.data, 0.0)
        for s, (rows, blocks), (_, _, _, _, block) in zip(
                groups, _reference_stars(a, level - k), plan, strict=True):
            assert _csr_equal(s.rows, rows)
            assert np.array_equal(data[block], blocks)
            assert np.array_equal(s.inv, np.linalg.inv(blocks))


def test_star_plan_equals_fancy_index_reference(geom3, step2_system,
                                                matching_factors):
    """On the Stokes step's pattern and on the pattern of every later step,
    and on each Galerkin level below them, the planned gather gives the
    negated off-star rows with their closing identity entries, the star
    blocks and their inverses of fancy indexing."""
    stokes = _stokes_system(geom3, nu=0.01, beta=1e-2, augmented=True)
    for system in (stokes, step2_system):
        for mat in matching_factors(system):
            _assert_smoothers_match_reference(
                precond_mod.build_multigrid(mat, 3), 3)


def test_star_plan_follows_pattern_switches(geom3, step2_system,
                                            matching_factors):
    """The Stokes step and a later step differ in pattern; switching
    A -> B -> A on one level replans each time and leaves no stale
    positions."""
    mat_a, _ = matching_factors(_stokes_system(geom3, nu=0.01, beta=1e-2,
                                               augmented=True))
    mat_b, _ = matching_factors(step2_system)
    assert not np.array_equal(mat_a.indices, mat_b.indices)
    for mat in (mat_a, mat_b, mat_a):
        mg = precond_mod.build_multigrid(mat, 3)
        _assert_smoothers_match_reference(mg, 3)
        assert np.array_equal(precond_mod._star_plans[3][1], mat.indices)


def test_concurrent_builds_of_two_patterns(geom3, step2_system,
                                           matching_factors):
    """Threads (more than the cores) that build hierarchies of two patterns
    on the same levels at once, so that each replans what another just
    planned, all get the hierarchy of their own matrix."""
    mat_a, _ = matching_factors(_stokes_system(geom3, nu=0.01, beta=1e-2,
                                               augmented=True))
    mat_b, _ = matching_factors(step2_system)
    ref = {id(m): precond_mod.build_multigrid(m, 3) for m in (mat_a, mat_b)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(4):
                precond_mod._star_plans.clear()
                mats = (mat_a, mat_b) * 2
                built = pool.map(partial(precond_mod.build_multigrid, level=3),
                                 mats)
                for m, mg in zip(mats, built, strict=True):
                    _assert_hierarchies_equal(ref[id(m)], mg)
    finally:
        sys.setswitchinterval(interval)


def test_matching_build_plans_each_level_once(step2_system, monkeypatch):
    """Both factors of a step share one pattern; when they are built side
    by side with no plan yet, each level is planned once."""
    planned = []
    plan_stars = precond_mod._plan_stars
    monkeypatch.setattr(precond_mod, "_plan_stars", lambda a, level: (
        planned.append(level), plan_stars(a, level))[1])
    precond_mod._star_plans.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        build_matching(_with_params(step2_system, exact_blocks=False))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(planned) == [2, 3]


def _additive_cycle(mg, b, k=0):
    """The V-cycle with each star update in its additive form
    x[D] += A[D, D]^-1 (b - A x)[D], over the star's full rows."""
    if k == len(mg.prolongations):
        return mg.coarse.solve(b)
    x = np.zeros_like(b)
    for _ in range(precond_mod.MG_SWEEPS):
        for s in mg.smoothers[k]:
            r = b[s.dofs] - (mg.ops[k][s.dofs.ravel()] @ x).reshape(
                s.dofs.shape)
            x[s.dofs] += (s.inv @ r[:, :, None])[:, :, 0]
    p = mg.prolongations[k]
    return x + p @ _additive_cycle(mg, p.T @ (b - mg.ops[k] @ x), k + 1)


def test_off_star_cycle_is_the_additive_cycle(step2_system,
                                              matching_factors):
    """Solving each star from its off-star residual is the additive star
    update in exact arithmetic: the two cycles agree to roundoff, and the
    cycle stays linear."""
    for mat in matching_factors(step2_system):
        mg = precond_mod.build_multigrid(mat, 3)
        rng = np.random.default_rng(11)
        b1, b2 = rng.standard_normal((2, mat.shape[0]))
        y1 = mg.solve(b1)
        ref = _additive_cycle(mg, b1)
        assert np.linalg.norm(y1 - ref) <= 1e-10 * np.linalg.norm(ref)
        lin = mg.solve(b1 + b2) - y1 - mg.solve(b2)
        assert np.linalg.norm(lin) <= 1e-12 * np.linalg.norm(y1)


def test_star_kernel_accumulates_and_equals_matmul(rng):
    """The raw CSR kernel the star update calls adds A x into `y`, and
    into zeros it gives scipy's `A @ x` bit for bit on int32 indices."""
    a = sp.random(60, 80, density=0.2, format="csr", random_state=3)
    assert a.indices.dtype == a.indptr.dtype == np.int32
    x = rng.standard_normal(80)
    y = np.zeros(60)
    precond_mod.csr_matvec(60, 80, a.indptr, a.indices, a.data, x, y)
    assert np.array_equal(y, a @ x)
    # small integers sum exactly, so the accumulation shows unrounded
    a.data = rng.integers(-9, 10, a.nnz).astype(float)
    x = rng.integers(-9, 10, 80).astype(float)
    y = np.full(60, 1000.0)
    precond_mod.csr_matvec(60, 80, a.indptr, a.indices, a.data, x, y)
    assert np.array_equal(y, 1000.0 + a @ x)


def _sparse_cycle(mg, b, k=0):
    """The V-cycle through scipy's sparse products: each star from
    b[D] - A[D, not D] x, with A[D, not D] the negated x-half of the
    smoother's rows, and the restriction applied as P^T."""
    if k == len(mg.prolongations):
        return mg.coarse.solve(b)
    x = np.zeros_like(b)
    for _ in range(precond_mod.MG_SWEEPS):
        for s in mg.smoothers[k]:
            off = -s.rows[:, :b.size]
            r = b[s.dofs] - (off @ x).reshape(s.dofs.shape)
            x[s.dofs] = (s.inv @ r[:, :, None])[:, :, 0]
    p = mg.prolongations[k]
    return x + p @ _sparse_cycle(mg, p.T @ (b - mg.ops[k] @ x), k + 1)


@pytest.mark.parametrize("step", ["stokes", "step2"])
def test_fused_cycle_equals_sparse_cycle(geom3, step2_system,
                                         matching_factors, step):
    """The cycle on the work vector [x; b], with each star update one CSR
    kernel call and the restriction held in CSR, is the cycle of sparse
    products bit for bit, on both factors of the Stokes step and of a
    later step at level 3."""
    system = (step2_system if step == "step2" else
              _stokes_system(geom3, nu=0.01, beta=1e-2, augmented=True))
    for mat in matching_factors(system):
        mg = precond_mod.build_multigrid(mat, 3)
        for seed in range(2):
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            assert np.array_equal(mg.solve(b), _sparse_cycle(mg, b))
        # the kernel does not check bounds, so the cycle checks the size
        with pytest.raises(ValueError, match="right-hand side"):
            mg.solve(b[:-1])


def test_cycle_dispatches_per_level_transfer(step2_system, matching_factors,
                                             monkeypatch):
    """One level-3 cycle goes through scipy's sparse `@` three times per
    level transfer (residual, restriction, prolongation), however many
    star groups the levels have: the star updates call the kernel."""
    mat, _ = matching_factors(step2_system)
    mg = precond_mod.build_multigrid(mat, 3)
    owner = next(c for c in type(mat).__mro__ if "__matmul__" in vars(c))
    matmul, calls = owner.__matmul__, []
    monkeypatch.setattr(owner, "__matmul__", lambda self, other: (
        calls.append(1), matmul(self, other))[1])
    mg.solve(np.ones(mat.shape[0]))
    updates = precond_mod.MG_SWEEPS * sum(map(len, mg.smoothers))
    assert updates > 3 * len(mg.prolongations) > 0
    assert len(calls) <= 3 * len(mg.prolongations)


@pytest.mark.parametrize("settings", [
    dict(precond="al"), dict(precond="bpcd"),
    dict(approach="dto", full_newton=True)], ids=["al", "bpcd", "dto-full"])
def test_multigrid_inputs_are_canonical_csr(geom3, monkeypatch, settings):
    """`build_multigrid` gathers star blocks by position and does not sum
    duplicate entries: every matrix a Newton solve hands it is CSR in
    canonical format (sorted indices, no duplicates)."""
    real = precond_mod.build_multigrid
    seen = []

    def checking(a, level):
        # a new matrix on the same arrays computes the flag, not a cached one
        seen.append(a.format == "csr" and sp.csr_matrix(
            (a.data, a.indices, a.indptr), shape=a.shape).has_canonical_format)
        return real(a, level)

    monkeypatch.setattr(precond_mod, "build_multigrid", checking)
    _, trace = newton_solve(KktParams(nu=0.01, beta=1e-2, **settings), geom3)
    assert trace.converged
    assert len(seen) == 2 * trace.newton_iters and all(seen)


@pytest.fixture(scope="module")
def step2_system(geom3):
    """The augmented level-3 system of Newton step 2 at nu=1/100, beta=1e-2:
    its wind and its frozen stabilization wind are the step-1 velocity."""
    params = KktParams(nu=0.01, beta=1e-2, exact_blocks=True)
    lifted = initial_state(geom3.dofmap)
    zero = np.zeros(geom3.dofmap.n_v_full)
    stokes = build_kkt(lifted, geom3.mesh, geom3.dofmap, geom3.patches,
                       geom3.quad, params, wind=zero)
    state, _, _ = _newton_step(lifted, stokes, geom3)
    return augment(build_kkt(state, geom3.mesh, geom3.dofmap, geom3.patches,
                             geom3.quad, params, wind=state.v,
                             stab_wind=state.v))


@pytest.mark.parametrize("exact", [True, False])
def test_concurrent_matching_build_equals_sequential(step2_system, exact,
                                                     matching_factors):
    """The two factors built side by side solve bit for bit as the same
    factors built one after the other in this thread, also when both
    threads fill the cold per-level geometry caches at once (a short switch
    interval makes the threads interleave often)."""
    q2_prolongation.cache_clear()
    cell_stars.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ms = build_matching(_with_params(step2_system, exact_blocks=exact))
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
    system = _stokes_system(geom2, augmented=True, exact_blocks=exact)
    lam = system.level_ops.m / np.sqrt(system.params.beta)
    broken = dataclasses.replace(system, a12=(-lam).tocsr())
    with pytest.raises(error):
        build_matching(broken)


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
                            augmented=True, exact_blocks=True)
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


def test_kp_solve_is_the_projected_pinned_solve(rng):
    """The level record's Kp solve takes the mean out of the right-hand
    side, zeroes its pinned entry, solves with the pinned LU and takes the
    mean out of the result, bit for bit in that order; the right-hand side
    is left as it was."""
    lvl = _level_operators(2)
    r = rng.standard_normal(lvl.kp.shape[0]) + 1.0
    keep = r.copy()
    rt = r - r.mean()
    rt[0] = 0.0
    z = lvl.kp_pinned_lu.solve(rt)
    got = lvl.kp_solve(r)
    assert np.array_equal(got, z - z.mean())
    assert np.array_equal(r, keep)
    assert abs(got.mean()) <= 1e-15 * np.abs(got).max()


def test_al_outer_cross_pairing(geom2, rng):
    stack = build_precond(_stokes_system(geom2, exact_blocks=True))
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
    stack = build_precond(_stokes_system(geom2, exact_blocks=True))
    system = stack.system
    y1, y2 = precond_mod.al_outer_schur_apply(system,
                                              np.zeros(system.n_p),
                                              np.zeros(system.n_p))
    assert not y1.any() and not y2.any()


def test_bpcd_stokes_limit(geom2):
    stack = build_precond(_stokes_system(geom2, precond="bpcd",
                                          exact_blocks=True))
    system, pres, _ = stack.outer_schur.args
    assert system is stack.system
    nu_kp = (system.params.nu * system.level_ops.kp).tocsr()
    for block in (pres.dp, pres.dp_adj):
        diff = (block - nu_kp).tocsr()
        assert (np.abs(diff.data).max(initial=0.0) if diff.nnz else 0.0) \
            <= 1e-15


def test_bpcd_outer_zero_rhs(geom2):
    stack = build_precond(_stokes_system(geom2, precond="bpcd"))
    system = stack.system
    y1, y2 = stack.outer_schur(np.zeros(system.n_p), np.zeros(system.n_p))
    assert not y1.any() and not y2.any()


@pytest.mark.parametrize("exact", [True, False])
def test_bpcd_outer_apply_reads_the_level(geom2, rng, exact):
    """The bpcd stack's outer Schur inverse, with Kp's LU, Mp and beta read
    from the step system and the level's Mp solve, equals the blockwise
    formula bit for bit on a step system at a random wind, with D_p formed
    from the kernel's Np and Wp."""
    d = geom2.dofmap
    v = lift_boundary(d)
    v[d.interior_vdofs] = rng.standard_normal(d.n_v_int)
    state = StateIterate(v=v, zeta=np.zeros(d.n_v_full),
                         mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)
    params = KktParams(nu=1 / 250, beta=1e-2, precond="bpcd",
                       exact_blocks=exact)
    plain = build_kkt(state, geom2.mesh, d, geom2.patches, geom2.quad, params,
                      stab_wind=v)
    stack = build_precond(plain)
    system = stack.system
    lvl, beta = system.level_ops, system.params.beta
    n_p, w_p = _wind_terms(geom2.mesh, d, geom2.patches, geom2.quad, v,
                           params.nu, True, v, geom2.quad.q1_vals, lvl.g1,
                           d.cell_q1, d.n_p)
    assert np.abs(w_p).max() > 0.0
    base = (params.nu * lvl.kp + w_p).tocsr()
    dp_od, dp_do = (base - n_p).tocsr(), (base + n_p).tocsr()
    mp_solve = (lvl.mp_lu.solve if exact
                else lambda b: chebyshev_solve(lvl.mp_cheb, b))
    r1, r2 = rng.standard_normal(system.n_p), rng.standard_normal(system.n_p)
    u1, u2 = lvl.kp_solve(r1), lvl.kp_solve(r2)
    want = (mp_solve(lvl.mp @ u1 + dp_od @ u2),
            mp_solve(dp_do @ u1 - (lvl.mp @ u2) / beta))
    got = stack.outer_schur(r1, r2)
    assert stack.outer_schur.func is precond_mod.bpcd_outer_schur_apply
    assert np.any(want[0]) and np.any(want[1])
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


# --------------------------------------------------------------------------
# inner momentum preconditioner
# --------------------------------------------------------------------------

def _inner_p1(stack):
    """The stack's inner momentum preconditioner, which its momentum solve,
    the fixed GMRES solve on the system's momentum operator, binds."""
    solve = stack.momentum_solve
    assert solve.func is precond_mod.gmres
    assert solve.args[0] == stack.system.momentum_matvec
    assert solve.args[1].func is inner_p1_apply
    return solve.args[1]


def test_inner_p1_zero_and_linearity(geom2, rng):
    stack = build_precond(_stokes_system(geom2, exact_blocks=True))
    system, p1 = stack.system, _inner_p1(stack)
    z = p1(np.zeros(2 * system.n_v))
    assert not z.any()
    a = rng.standard_normal(2 * system.n_v)
    b = rng.standard_normal(2 * system.n_v)
    zab = p1(a + b)
    za = p1(a)
    zb = p1(b)
    assert np.linalg.norm(zab - za - zb) <= 1e-10 * np.linalg.norm(zab)


@pytest.mark.parametrize("augmented", [True, False])
def test_inner_momentum_solve_quality(geom2, monkeypatch, augmented):
    kind = "al" if augmented else "bpcd"
    stack = build_precond(_stokes_system(geom2, precond=kind,
                                         exact_blocks=True))
    system = stack.system
    mom = system.momentum()
    rhs = np.concatenate([system.rhs1, system.rhs2])

    x5 = gmres(lambda x: mom @ x, _inner_p1(stack), rhs)
    assert np.linalg.norm(rhs - mom @ x5) <= 1e-2 * np.linalg.norm(rhs)
    # the stack's momentum solve is that fixed solve, on the system's blocks
    x = stack.momentum_solve(rhs)
    assert np.linalg.norm(x - x5) <= 1e-12 * np.linalg.norm(x5)

    monkeypatch.setattr(krylov_mod, "RESTART", 30)
    monkeypatch.setattr(krylov_mod, "MAXITER", 30)
    _, stats = fgmres(lambda x: mom @ x, _inner_p1(stack), rhs, 1e-10)
    assert stats.converged
    assert stats.iters <= 15


@pytest.mark.parametrize("exact", [True, False])
def test_inner_gmres_update_matches_preconditioned_basis_form(geom2, exact):
    """The update Z y equals P(V y), the form that applies the linear inner
    preconditioner once more, with y the residual minimizer over span(Z)."""
    stack = build_precond(_stokes_system(geom2, exact_blocks=exact))
    system, p1 = stack.system, _inner_p1(stack)
    mom = system.momentum()
    rhs = np.concatenate([system.rhs1, system.rhs2])
    basis, images = [], []

    def apply_p(v):
        basis.append(v.copy())
        images.append(p1(v))
        return images[-1]

    x = gmres(lambda u: mom @ u, apply_p, rhs)
    az = np.column_stack([mom @ z for z in images])
    y = np.linalg.lstsq(az, rhs, rcond=None)[0]
    old = p1(np.column_stack(basis) @ y)
    assert np.linalg.norm(x - old) <= 1e-12 * np.linalg.norm(old)


# --------------------------------------------------------------------------
# ideal stack
# --------------------------------------------------------------------------

def _ideal_blocks(stack):
    """F, Bblk and the dense Schur complement Bblk F^-1 Bblk^T of the
    ideal stack's pinned system."""
    system = stack.system
    f = system.momentum()
    b_blk = sp.bmat([[system.b, None], [None, system.b]], format="csr")
    sd = b_blk @ np.linalg.solve(f.toarray(), b_blk.T.toarray())
    return f, b_blk, sd


def test_ideal_stack_solves_exactly(geom2, rng):
    """On the pinned system that `build_precond` makes, the ideal stack's
    momentum solve inverts F and its outer Schur inverse inverts the dense
    Bblk F^-1 Bblk^T on the two stacked pressure blocks."""
    stack = build_precond(_stokes_system(geom2, precond="ideal"))
    system = stack.system
    assert system.pinned
    f, _, sd = _ideal_blocks(stack)
    t = rng.standard_normal(2 * system.n_v)
    assert np.linalg.norm(f @ stack.momentum_solve(t) - t) \
        <= 1e-10 * np.linalg.norm(t)
    r1, r2 = (rng.standard_normal(system.n_p) for _ in range(2))
    y1, y2 = stack.outer_schur(r1, r2)
    assert y1.shape == r1.shape and y2.shape == r2.shape
    r = np.concatenate([r1, r2])
    assert np.linalg.norm(sd @ np.concatenate([y1, y2]) - r) \
        <= 1e-8 * np.linalg.norm(r)


def test_ideal_p2_inverts_upper_triangle(geom2, rng):
    stack = build_precond(_stokes_system(geom2, precond="ideal"))
    system = stack.system
    nm = 2 * system.n_v
    rhs = rng.standard_normal(system.dim)
    z = outer_p2_apply(stack, rhs)
    z_m, z_p = z[:nm], z[nm:]
    f, b_blk, sd = _ideal_blocks(stack)
    assert np.linalg.norm(-sd @ z_p - rhs[nm:]) \
        <= 1e-8 * np.linalg.norm(rhs)
    assert np.linalg.norm(f @ z_m + b_blk.T @ z_p - rhs[:nm]) \
        <= 1e-10 * np.linalg.norm(rhs)


def test_ideal_size_guard(geom2, monkeypatch):
    monkeypatch.setattr(precond_mod, "_IDEAL_GUARD", 100)
    with pytest.raises(ValueError):
        build_precond(_stokes_system(geom2, precond="ideal"))


# --------------------------------------------------------------------------
# configured stack
# --------------------------------------------------------------------------

def test_build_precond_validation(geom2):
    for kind in ("al", "bpcd", "ideal"):
        with pytest.raises(ValueError):     # takes the unpinned system
            build_precond(_stokes_system(geom2, pinned=True, precond=kind))


@pytest.mark.parametrize("level", [2, 3])
def test_stack_reads_the_level_record(request, monkeypatch, rng, level):
    """Every step system carries the cached operators of its level, and the
    stack takes the level and the Chebyshev mass solvers from that record,
    with no geometry passed in: once the record is built, building the AL
    and bpcd stacks constructs no Chebyshev solver, and their mass solves
    are the record's solvers bit for bit."""
    geom = request.getfixturevalue(f"geom{level}")
    lvl = _level_operators(level)
    plain = _stokes_system(geom)
    plain_bpcd = _stokes_system(geom, precond="bpcd")
    for system in (plain, plain_bpcd, _stokes_system(geom, augmented=True),
                   _stokes_system(geom, pinned=True)):
        assert system.level_ops is lvl
    for cheb, mat, vals in ((lvl.m_cheb, lvl.m, geom.quad.q2_vals),
                            (lvl.mp_cheb, lvl.mp, geom.quad.q1_vals)):
        assert cheb.matrix is mat
        assert cheb.interval == mass_eig_interval(geom.quad, vals)

    def refuse(self):
        raise AssertionError("a stack built a Chebyshev mass solver")

    monkeypatch.setattr(ChebyshevMassSolver, "__post_init__", refuse)
    stack = build_precond(plain)
    assert stack.system.level_ops is lvl
    _, mass_solve, matching = _inner_p1(stack).args
    for mg in (matching.inv_21, matching.inv_12):
        assert len(mg.prolongations) == level - precond_mod.MG_COARSEST
    bpcd = build_precond(plain_bpcd)
    b = rng.standard_normal(lvl.m.shape[0])
    bp = rng.standard_normal(lvl.mp.shape[0])
    want = chebyshev_solve(lvl.m_cheb, b)
    assert np.array_equal(mass_solve(b), want)
    assert np.array_equal(_inner_p1(bpcd).args[1](b), want)
    mp_solve = bpcd.outer_schur.args[2]
    assert np.array_equal(mp_solve(bp), chebyshev_solve(lvl.mp_cheb, bp))


def test_stacks_hold_only_per_step_objects(geom2):
    """A stack holds its system, its outer Schur inverse and its momentum
    solve; the AL and bpcd momentum solves bind the system's momentum
    operator and the inner preconditioner, which binds the system, the mass
    solve and the matching Schur approximation, which holds M and the two
    inverses only, with M the level record's. The bpcd outer inverse binds
    the step's pressure-space pair, which holds none of the level's data,
    and the AL one binds the augmented system alone."""
    assert [f.name for f in dataclasses.fields(PrecondStack)] \
        == ["system", "outer_schur", "momentum_solve"]
    assert [f.name for f in dataclasses.fields(MatchingSchur)] \
        == ["mass", "inv_21", "inv_12"]
    assert [f.name for f in dataclasses.fields(PressureOperators)] \
        == ["dp", "dp_adj"]
    stack = build_precond(_stokes_system(geom2, precond="bpcd"))
    system, _, matching = _inner_p1(stack).args
    assert system is stack.system
    assert set(vars(matching)) == {"mass", "inv_21", "inv_12"}
    assert matching.mass is stack.system.level_ops.m
    pres = stack.outer_schur.args[1]
    assert type(pres) is PressureOperators
    assert set(vars(pres)) == {"dp", "dp_adj"}
    al = build_precond(_stokes_system(geom2))
    assert al.outer_schur.func is precond_mod.al_outer_schur_apply
    assert len(al.outer_schur.args) == 1
    assert al.outer_schur.args[0] is al.system


def test_level_factorizations_built_once(geom2, monkeypatch):
    """The LUs of M, Mp and the pinned Kp are the level record's: stacks on
    two systems of one level factorize each at most once, and the
    multigrid stacks factorize neither mass matrix."""
    lvl = _level_operators(2)
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
            stack = build_precond(_stokes_system(
                geom2, beta=beta, precond="bpcd", exact_blocks=exact))
        if not exact:
            assert "M" not in seen and "Mp" not in seen
    assert all(seen.count(name) <= 1 for name in ("M", "Mp", "Kp")), seen
    assert _inner_p1(stack).args[1] == lvl.m_lu.solve
    assert stack.outer_schur.args[2] == lvl.mp_lu.solve


def test_outer_p2_zero_rhs(geom2):
    for kind in ("al", "bpcd", "ideal"):
        stack = build_precond(_stokes_system(geom2, precond=kind))
        assert type(stack) is PrecondStack
        z = outer_p2_apply(stack, np.zeros(stack.system.dim))
        assert not z.any()
