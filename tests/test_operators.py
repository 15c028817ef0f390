"""Assembly and coupled-system contracts on small grids."""

import numpy as np
import pytest
import scipy.sparse as sp

from nsctl.grid_fem import setup_geometry
from nsctl.operators import (KktParams, StateIterate, _level_operators,
                             _scatter, _vector_expand, _wind_cellwise,
                             assemble_curvature, assemble_curvature_exact,
                             assemble_divergence, assemble_pressure,
                             assemble_velocity, augment, build_kkt,
                             eval_residual, export_matrix_market,
                             lift_boundary, mass_eig_interval, pin_pressure,
                             restrict)


def _maxabs(mat):
    if sp.issparse(mat):
        return np.abs(mat.data).max(initial=0.0) if mat.nnz else 0.0
    return np.abs(mat).max(initial=0.0)


def _vel(geom, wind, nu=1.0, **kw):
    return assemble_velocity(geom.mesh, geom.dofmap, geom.patches, geom.quad,
                             wind, nu, **kw)


def _pres(geom, wind, nu=1.0, **kw):
    return assemble_pressure(geom.mesh, geom.dofmap, geom.patches, geom.quad,
                             wind, nu, **kw)


def _zero_wind(geom):
    return np.zeros(geom.dofmap.n_v_full)


def _const_wind(geom, cx, cy):
    w = np.empty(geom.dofmap.n_v_full)
    w[0::2] = cx
    w[1::2] = cy
    return w


def _zero_state(geom):
    d = geom.dofmap
    return StateIterate(v=np.zeros(d.n_v_full), zeta=np.zeros(d.n_v_full),
                        mu=np.zeros(d.n_p), p=np.zeros(d.n_p), k=0)


# --------------------------------------------------------------------------
# velocity operators
# --------------------------------------------------------------------------

def test_mass_symmetric_positive_definite(geom2):
    m = restrict(_vel(geom2, _zero_wind(geom2)).m_full, geom2.dofmap)
    assert _maxabs(m - m.T) <= 1e-14
    eigs = np.linalg.eigvalsh(m.toarray())
    assert eigs.min() > 0.0


def test_mass_component_blocks_integrate_area(geom2):
    vel = _vel(geom2, _zero_wind(geom2))
    for comp in (0, 1):
        block = vel.m_full[comp::2, comp::2]
        assert block.sum() == pytest.approx(4.0, abs=1e-12)
    # components do not couple in the mass matrix
    assert _maxabs(vel.m_full[0::2, 1::2]) == 0.0


def test_stiffness_symmetric_with_constant_nullvector(geom2):
    vel = _vel(geom2, _zero_wind(geom2))
    assert _maxabs(vel.k_full - vel.k_full.T) <= 1e-14
    ones = np.ones(vel.k_full.shape[0])
    assert np.abs(vel.k_full @ ones).max() <= 1e-13


def test_convection_vanishes_at_zero_wind(geom2):
    vel = _vel(geom2, _zero_wind(geom2))
    assert _maxabs(vel.n_full) == 0.0
    assert _maxabs(vel.h_full) == 0.0
    assert _maxabs(vel.w_full) == 0.0


def test_wind_gradient_block_vanishes_for_constant_wind(geom2):
    vel = _vel(geom2, _const_wind(geom2, 1.0, -2.0))
    assert _maxabs(vel.h_full) <= 1e-13
    # ... while plain convection does not
    assert _maxabs(vel.n_full) > 1e-3


def test_wind_gradient_block_matches_einsum_form(geom3, rng):
    """H against its defining contraction H[(i,a),(j,b)] =
    sum_q wdet N_i N_j dw_a/dx_b, written as one einsum, for a random wind."""
    d = geom3.dofmap
    wind = rng.standard_normal(d.n_v_full)
    lvl = _level_operators(geom3.mesh.level, geom3.quad.order)
    wdet, g2 = lvl.wdet, lvl.g2
    nvals = geom3.quad.q2_vals
    gradw = np.einsum("cnd,qne->cqde", _wind_cellwise(wind, d), g2)
    h_e = np.einsum("q,qi,qj,cqab->ciajb", wdet, nvals, nvals, gradw)
    idx = _vector_expand(d.cell_q2)
    want = _scatter(idx, idx, h_e.reshape(-1, 18, 18),
                    (2 * d.n_q2, 2 * d.n_q2))
    got = _vel(geom3, wind).h_full
    assert _maxabs((got - want).tocsr()) <= 1e-13 * _maxabs(want)


def test_stabilization_symmetric_psd(geom2):
    vel = _vel(geom2, _const_wind(geom2, 1.0, 0.5), nu=1e-3)
    assert _maxabs((vel.w_full - vel.w_full.T).tocsr()) <= 1e-14
    eigs = np.linalg.eigvalsh(vel.w_full.toarray())
    assert eigs.min() >= -1e-12
    assert eigs.max() > 0.0


def test_stabilization_wind_override(geom2):
    stab = _const_wind(geom2, 1.0, 0.5)
    frozen = _vel(geom2, _zero_wind(geom2), nu=1e-3, stab_wind=stab)
    direct = _vel(geom2, stab, nu=1e-3)
    assert _maxabs(frozen.w_full) > 0.0
    assert _maxabs((frozen.w_full - direct.w_full).tocsr()) == 0.0
    assert _maxabs(frozen.n_full) == 0.0    # convection still uses `wind`


def test_velocity_combination_identities(geom2):
    vel = _vel(geom2, lift_boundary(geom2.dofmap), nu=0.01)
    d = vel.d_full(0.01) - (0.01 * vel.k_full + vel.n_full + vel.w_full)
    d_adj = vel.d_adj_full(0.01) - (0.01 * vel.k_full - vel.n_full
                                    + vel.w_full)
    assert _maxabs(d.tocsr()) == 0.0
    assert _maxabs(d_adj.tocsr()) == 0.0


def test_wind_validation(geom2):
    """Both spaces' assembly rejects a wind, or a stabilization wind, of the
    wrong size or with a non-finite entry, with or without the
    stabilization: a NaN stabilization wind must not switch it off."""
    n = geom2.dofmap.n_v_full
    nan = _zero_wind(geom2)
    nan[3] = np.nan
    wind = _const_wind(geom2, 1.0, 0.5)
    for assemble in (_vel, _pres):
        for bad in (np.zeros(7), np.zeros(n - 2), np.zeros(n + 2), nan):
            with pytest.raises(ValueError):
                assemble(geom2, bad)
            for lps_on in (True, False):
                with pytest.raises(ValueError):
                    assemble(geom2, wind, nu=1e-3, lps_on=lps_on,
                             stab_wind=bad)


def test_level_operators_shared_and_read_only(geom3):
    """M, K, B, Mp, Kp and diag(Mp) are built once per level: two geometries
    of one level get the same objects, whatever the wind, and they refuse
    in-place writes."""
    other = setup_geometry(3)
    a = _vel(geom3, _zero_wind(geom3))
    b = _vel(other, _const_wind(other, 1.0, 0.5), nu=1e-3)
    lvl = _level_operators(geom3.mesh.level, geom3.quad.order)
    da = assemble_divergence(geom3.mesh, geom3.dofmap, geom3.quad)
    db = assemble_divergence(other.mesh, other.dofmap, other.quad)
    assert a.m_full is b.m_full and a.k_full is b.k_full
    assert a.m_full is lvl.m_full
    assert lvl is _level_operators(other.mesh.level, other.quad.order)
    assert da is db is lvl
    assert lvl.bt_winv_b is lvl.bt_winv_b
    assert a.n_full is not b.n_full
    for mat in (a.m_full, a.k_full, lvl.mp, lvl.kp, da.b, da.b_full,
                lvl.bt_winv_b):
        for arr in (mat.data, mat.indices, mat.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    for diag in (lvl.mp_diag, lvl.m_cheb.diag, lvl.mp_cheb.diag):
        with pytest.raises(ValueError):
            diag[0] = 1.0
    with pytest.raises(ValueError):
        a.m_full.data *= 2.0


def test_scatter_sums_duplicates_into_canonical_csr():
    """`_scatter` relies on scipy's COO -> CSR conversion to sum duplicate
    entries and sort each row's column indices."""
    rows = np.array([[2, 0], [0, 2], [1, 2]])
    cols = np.array([[1, 0], [1, 0], [0, 1]])
    blocks = np.arange(1.0, 13.0).reshape(3, 2, 2)
    a = _scatter(rows, cols, blocks, (3, 2))
    want = np.zeros((3, 2))
    np.add.at(want, (np.repeat(rows, 2, axis=1).ravel(),
                     np.tile(cols, (1, 2)).ravel()), blocks.ravel())
    assert a.format == "csr"
    assert a.has_canonical_format and a.has_sorted_indices
    for i in range(a.shape[0]):
        assert np.all(np.diff(a.indices[a.indptr[i]:a.indptr[i + 1]]) > 0)
    assert a.nnz == np.count_nonzero(want)
    assert np.array_equal(a.toarray(), want)


# --------------------------------------------------------------------------
# pressure operators
# --------------------------------------------------------------------------

def test_pressure_mass_and_stiffness(geom2):
    lvl = _level_operators(geom2.mesh.level, geom2.quad.order)
    assert lvl.mp.sum() == pytest.approx(4.0, abs=1e-12)
    assert _maxabs(lvl.kp - lvl.kp.T) <= 1e-14
    ones = np.ones(lvl.kp.shape[0])
    assert np.abs(lvl.kp @ ones).max() <= 1e-13
    assert np.array_equal(lvl.mp_diag, lvl.mp.diagonal())
    assert np.all(lvl.mp_diag > 0.0)


def test_pressure_wind_blocks_vanish_at_zero_wind(geom2):
    pres = _pres(geom2, _zero_wind(geom2))
    assert _maxabs(pres.np_conv) == 0.0
    assert _maxabs(pres.wp) == 0.0


# --------------------------------------------------------------------------
# divergence
# --------------------------------------------------------------------------

def test_divergence_shape(geom3):
    div = assemble_divergence(geom3.mesh, geom3.dofmap, geom3.quad)
    assert div.b.shape == (81, 450)
    assert div.b_full.shape == (81, geom3.dofmap.n_v_full)


def test_divergence_annihilates_solenoidal_fields(geom2):
    div = assemble_divergence(geom2.mesh, geom2.dofmap, geom2.quad)
    const = _const_wind(geom2, 2.0, -3.0)
    assert np.abs(div.b_full @ const).max() <= 1e-13
    shear = np.empty(geom2.dofmap.n_v_full)
    coords = geom2.dofmap.q2_coords
    shear[0::2] = coords[:, 0]
    shear[1::2] = -coords[:, 1]
    assert np.abs(div.b_full @ shear).max() <= 1e-13


def test_divergence_interior_columns_sum_to_zero(geom2):
    div = assemble_divergence(geom2.mesh, geom2.dofmap, geom2.quad)
    assert np.abs(div.b.T @ np.ones(div.b.shape[0])).max() <= 1e-13


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def test_curvature_zero_adjoint(geom2):
    n_z, h_z = assemble_curvature(geom2.mesh, geom2.dofmap, geom2.quad,
                                  _zero_wind(geom2))
    assert _maxabs(n_z) == 0.0 and _maxabs(h_z) == 0.0
    for approach in ("dto", "otd"):
        c = assemble_curvature_exact(geom2.mesh, geom2.dofmap, geom2.quad,
                                     _zero_wind(geom2), approach)
        assert _maxabs(c) == 0.0


def test_curvature_matches_wind_blocks(geom2, rng):
    zeta = _zero_wind(geom2)
    zeta[geom2.dofmap.interior_vdofs] = rng.standard_normal(
        geom2.dofmap.n_v_int)
    n_z, h_z = assemble_curvature(geom2.mesh, geom2.dofmap, geom2.quad, zeta)
    ops = _vel(geom2, zeta, nu=1.0, lps_on=False)
    assert _maxabs((n_z - restrict(ops.n_full, geom2.dofmap)).tocsr()) == 0.0
    assert _maxabs((h_z - restrict(ops.h_full, geom2.dofmap)).tocsr()) == 0.0


def test_curvature_dto_is_symmetric(geom2, rng):
    zeta = _zero_wind(geom2)
    zeta[geom2.dofmap.interior_vdofs] = rng.standard_normal(
        geom2.dofmap.n_v_int)
    c = assemble_curvature_exact(geom2.mesh, geom2.dofmap, geom2.quad, zeta,
                                 "dto")
    assert _maxabs((c - c.T).tocsr()) <= 1e-15


# --------------------------------------------------------------------------
# boundary data
# --------------------------------------------------------------------------

def test_lift_default_lid(geom2):
    lid = lift_boundary(geom2.dofmap)
    coords = geom2.dofmap.q2_coords
    for node in range(coords.shape[0]):
        x, y = coords[node]
        ux, uy = lid[2 * node], lid[2 * node + 1]
        if y == 1.0 and abs(x) < 1.0:
            assert (ux, uy) == (1.0, 0.0)
        else:
            assert (ux, uy) == (0.0, 0.0)   # corners and the rest: no slip


# --------------------------------------------------------------------------
# parameters, coupled system, augmentation
# --------------------------------------------------------------------------

def test_params_default_gamma():
    p = KktParams(nu=0.01, beta=1e-2)
    assert isinstance(p.gamma, float)
    assert p.gamma == pytest.approx(100.0, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        KktParams(nu=0.0, beta=1e-2)
    with pytest.raises(ValueError):
        KktParams(nu=0.01, beta=-1.0)
    with pytest.raises(ValueError):
        KktParams(nu=0.01, beta=1e-2, gamma=-1.0)
    with pytest.raises(ValueError):
        KktParams(nu=0.01, beta=1e-2, approach="both")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            KktParams(nu=bad, beta=1e-2)
        with pytest.raises(ValueError):
            KktParams(nu=0.01, beta=bad)
        with pytest.raises(ValueError):
            KktParams(nu=0.01, beta=1e-2, gamma=bad)


def test_zero_data_problem_has_zero_residual(geom2):
    params = KktParams(nu=0.01, beta=1e-2)
    res = eval_residual(_zero_state(geom2), geom2.mesh, geom2.dofmap,
                        geom2.patches, geom2.quad, params)
    assert res.norm == 0.0
    assert np.array_equal(res.stacked(), np.zeros(res.stacked().size))


def test_kkt_matrix_matches_blocks(geom2, rng):
    params = KktParams(nu=0.01, beta=1e-2, approach="otd")
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    system = build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                       geom2.quad, params)
    n_v, n_p = system.n_v, system.n_p
    assert system.dim == 2 * n_v + 2 * n_p
    x = rng.standard_normal(system.dim)
    x1, x2 = x[:n_v], x[n_v:2 * n_v]
    x3, x4 = x[2 * n_v:2 * n_v + n_p], x[2 * n_v + n_p:]
    y = system.matrix() @ x
    bt = system.b.T
    assert np.allclose(y[:n_v],
                       system.a11 @ x1 + system.a12 @ x2 + bt @ x3,
                       atol=1e-12)
    assert np.allclose(y[n_v:2 * n_v],
                       system.a21 @ x1 + system.a22 @ x2 + bt @ x4,
                       atol=1e-12)
    assert np.allclose(y[2 * n_v:2 * n_v + n_p], system.b @ x1, atol=1e-12)
    assert np.allclose(y[2 * n_v + n_p:], system.b @ x2, atol=1e-12)
    rhs = system.rhs()
    assert np.array_equal(rhs, np.concatenate([system.rhs1, system.rhs2,
                                               system.rhs_div1,
                                               system.rhs_div2]))


def test_kkt_dto_offdiagonal_symmetry(geom2):
    params = KktParams(nu=0.01, beta=1e-2, approach="dto")
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    system = build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                       geom2.quad, params)
    assert _maxabs((system.a12 - system.a21.T).tocsr()) == 0.0


def _bits_equal(x, y):
    if sp.issparse(x):
        return all(np.array_equal(getattr(x, f), getattr(y, f))
                   for f in ("indptr", "indices", "data"))
    return np.array_equal(x, y)


@pytest.mark.parametrize("approach", ["otd", "dto"])
def test_kkt_with_given_operators_is_bit_equal(geom3, rng, approach):
    """build_kkt on a residual evaluated beforehand with a given operator
    set (as the Newton driver passes its own) gives exactly the system it
    assembles itself, and its momentum blocks equal the sums of the
    restricted matrices."""
    d = geom3.dofmap
    params = KktParams(nu=0.004, beta=1e-3, approach=approach)
    state = _zero_state(geom3)
    state.v = lift_boundary(d)
    for x in (state.v, state.zeta):
        x[d.interior_vdofs] = rng.standard_normal(d.n_v_int)
    state.mu[:] = rng.standard_normal(d.n_p)
    stab = state.v + 0.1 * rng.standard_normal(d.n_v_full)
    args = (state, geom3.mesh, d, geom3.patches, geom3.quad, params)
    vel = _vel(geom3, state.v, nu=params.nu, stab_wind=stab)
    res = eval_residual(*args, vel=vel)
    own = augment(build_kkt(*args, stab_wind=stab), params.gamma)
    given = augment(build_kkt(*args, stab_wind=stab, res=res), params.gamma)
    for name in ("a11", "a12", "a21", "a22", "b", "rhs1", "rhs2",
                 "rhs_div1", "rhs_div2"):
        assert _bits_equal(getattr(own, name), getattr(given, name)), name

    plain = build_kkt(*args, stab_wind=stab, res=res)
    k, n, h, w = (restrict(m, d) for m in (vel.k_full, vel.n_full,
                                            vel.h_full, vel.w_full))
    d_int = (params.nu * k + n + w).tocsr()
    assert _bits_equal(plain.a21, (d_int + h).tocsr())
    if approach == "otd":
        d_adj = (params.nu * k - n + w).tocsr()
        assert _bits_equal(plain.a12, (d_adj + h.T).tocsr())
    else:
        assert _bits_equal(plain.a12, (d_int + h).T.tocsr())


def test_full_newton_adds_exact_curvature(geom2, rng):
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    state.zeta[geom2.dofmap.interior_vdofs] = rng.standard_normal(
        geom2.dofmap.n_v_int)
    base = KktParams(nu=0.01, beta=1e-2, approach="dto")
    full = KktParams(nu=0.01, beta=1e-2, approach="dto", full_newton=True)
    args = (geom2.mesh, geom2.dofmap, geom2.patches, geom2.quad)
    s0 = build_kkt(state, *args, base)
    s1 = build_kkt(state, *args, full)
    curv = assemble_curvature_exact(geom2.mesh, geom2.dofmap, geom2.quad,
                                    state.zeta, "dto")
    assert _maxabs((s1.a11 - s0.a11 - curv).tocsr()) <= 1e-15
    assert _maxabs((s1.a12 - s0.a12).tocsr()) == 0.0


def test_augment_refuses_pinned_system(geom2):
    params = KktParams(nu=0.01, beta=1e-2)
    system = build_kkt(_zero_state(geom2), geom2.mesh, geom2.dofmap,
                       geom2.patches, geom2.quad, params, pin=True)
    for gamma in (0.0, params.gamma):
        with pytest.raises(ValueError):
            augment(system, gamma)


def test_augment_marks_and_modifies(geom2):
    params = KktParams(nu=0.01, beta=1e-2)
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    system = build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                       geom2.quad, params)
    aug = augment(system, params.gamma)
    w = system.level_ops.mp_diag
    c = params.gamma * (system.b.T @ sp.diags(1.0 / w) @ system.b)
    assert _maxabs((aug.a12 - system.a12 - c).tocsr()) <= 1e-12
    assert _maxabs((aug.a21 - system.a21 - c).tocsr()) <= 1e-12
    # momentum RHS pairs with the *other* unknown's divergence residual
    assert np.allclose(aug.rhs1 - system.rhs1,
                       params.gamma * (system.b.T @ (system.rhs_div2 / w)),
                       atol=1e-14)
    assert np.allclose(aug.rhs2 - system.rhs2,
                       params.gamma * (system.b.T @ (system.rhs_div1 / w)),
                       atol=1e-14)
    assert np.array_equal(aug.rhs_div1, system.rhs_div1)


def test_pinned_system_drops_first_pressure_row(geom2):
    params = KktParams(nu=0.01, beta=1e-2)
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    free = build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                     geom2.quad, params)
    pinned = build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                       geom2.quad, params, pin=True)
    assert pinned.pinned and pinned.n_p == free.n_p - 1
    assert _maxabs((pinned.b - free.b[1:, :]).tocsr()) == 0.0
    q = pinned.expand_pressure(np.arange(1.0, pinned.n_p + 1))
    assert q.size == free.n_p and q[0] == 0.0


@pytest.mark.parametrize("approach", ["otd", "dto"])
@pytest.mark.parametrize("derive", [
    lambda s: s, lambda s: augment(s, s.params.gamma), pin_pressure],
    ids=["plain", "augment", "pin_pressure"])
def test_block_products_match_assembled(geom2, rng, derive, approach):
    """The block products the Krylov loops apply equal the assembled
    coupled and momentum matrices, on every form of the step system."""
    params = KktParams(nu=0.01, beta=1e-2, approach=approach)
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    system = derive(build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                              geom2.quad, params))
    x = rng.standard_normal(system.dim)
    for got, want in ((system.matvec(x), system.matrix() @ x),
                      (system.momentum_matvec(x[:2 * system.n_v]),
                       system.momentum() @ x[:2 * system.n_v])):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


# --------------------------------------------------------------------------
# utilities
# --------------------------------------------------------------------------

def test_matrix_market_export(geom2, tmp_path):
    vel = _vel(geom2, _zero_wind(geom2))
    out = tmp_path / "m.mtx"
    export_matrix_market(vel.m_full, out)
    header = out.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate real general"


def test_mass_eig_intervals(geom2):
    lo2, hi2 = mass_eig_interval(geom2.quad, "q2")
    assert (lo2, hi2) == pytest.approx((0.25, 1.5625), abs=1e-10)
    lo1, hi1 = mass_eig_interval(geom2.quad, "q1")
    assert (lo1, hi1) == pytest.approx((0.25, 2.25), abs=1e-10)
    # the assembled, Jacobi-scaled mass spectrum sits inside the interval
    vel = _vel(geom2, _zero_wind(geom2))
    m = vel.m_full[0::2, 0::2].toarray()
    d = 1.0 / np.sqrt(np.diag(m))
    eigs = np.linalg.eigvalsh(m * np.outer(d, d))
    assert eigs.min() >= lo2 - 1e-10 and eigs.max() <= hi2 + 1e-10
