"""Assembly and coupled-system contracts on small grids."""

import random
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from nsctl.grid_fem import setup_geometry
from nsctl.operators import (KktParams, StateIterate, _level_operators,
                             _lps_delta, _lps_matrix, _scatter, _streamline,
                             _wind_cellwise, _wind_terms,
                             assemble_curvature_exact, assemble_divergence,
                             assemble_pressure, assemble_velocity, augment,
                             build_kkt, eval_residual, lift_boundary,
                             mass_eig_interval, pin_pressure, restrict)


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


def _terms(geom, wind, nu=1.0, space="q2", lps_on=True, stab_wind=None):
    """The scalar convection and stabilization (N, W) of one space, from
    the `_wind_terms` kernel."""
    d, q = geom.dofmap, geom.quad
    lvl = _level_operators(geom.mesh.level)
    tables = ((q.q2_vals, lvl.g2, d.cell_q2, d.n_q2) if space == "q2"
              else (q.q1_vals, lvl.g1, d.cell_q1, d.n_p))
    return _wind_terms(geom.mesh, d, geom.patches, q, wind, nu, lps_on,
                       stab_wind, *tables)


def _kron2(a):
    return sp.kron(a, sp.eye(2), format="csr")


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
    k = _level_operators(geom2.mesh.level).k_full
    assert _maxabs(k - k.T) <= 1e-14
    ones = np.ones(k.shape[0])
    assert np.abs(k @ ones).max() <= 1e-13


def test_convection_vanishes_at_zero_wind(geom2):
    vel = _vel(geom2, _zero_wind(geom2))
    assert _maxabs(vel.n_full) == 0.0
    assert _maxabs(vel.h_full) == 0.0
    zero = _zero_wind(geom2)
    assert _maxabs(_terms(geom2, zero, stab_wind=zero)[1]) == 0.0


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
    lvl = _level_operators(geom3.mesh.level)
    wdet, g2 = lvl.wdet, lvl.g2
    nvals = geom3.quad.q2_vals
    gradw = np.einsum("cnd,qne->cqde", _wind_cellwise(wind, d), g2)
    h_e = np.einsum("q,qi,qj,cqab->ciajb", wdet, nvals, nvals, gradw)
    idx = d.cell_v
    want = _scatter((2 * d.n_q2, 2 * d.n_q2),
                    (idx, idx, h_e.reshape(-1, 18, 18)))
    got = _vel(geom3, wind).h_full
    assert _maxabs((got - want).tocsr()) <= 1e-13 * _maxabs(want)


def test_stabilization_symmetric_psd(geom2):
    wind = _const_wind(geom2, 1.0, 0.5)
    _, w = _terms(geom2, wind, nu=1e-3, stab_wind=wind)
    assert _maxabs((w - w.T).tocsr()) <= 1e-14
    eigs = np.linalg.eigvalsh(w.toarray())
    assert eigs.min() >= -1e-12
    assert eigs.max() > 0.0


def test_stabilization_wind_override(geom2):
    stab = _const_wind(geom2, 1.0, 0.5)
    n_frozen, w_frozen = _terms(geom2, _zero_wind(geom2), nu=1e-3,
                                stab_wind=stab)
    _, w_direct = _terms(geom2, stab, nu=1e-3, stab_wind=stab)
    assert _maxabs(w_frozen) > 0.0
    assert _maxabs((w_frozen - w_direct).tocsr()) == 0.0
    assert _maxabs(n_frozen) == 0.0         # convection still uses `wind`


def test_velocity_combination_identities(geom2):
    lift = lift_boundary(geom2.dofmap)
    stab = _const_wind(geom2, 1.0, 0.5)
    vel = _vel(geom2, lift, nu=0.01, stab_wind=stab)
    k = _level_operators(geom2.mesh.level).k_full
    n, w = (_kron2(a) for a in _terms(geom2, lift, nu=0.01, stab_wind=stab))
    assert _maxabs(w) > 0.0
    d = vel.d_full - (0.01 * k + n + w)
    d_adj = vel.d_adj_full - (0.01 * k - n + w)
    assert _maxabs(d.tocsr()) == 0.0
    assert _maxabs(d_adj.tocsr()) == 0.0


@pytest.mark.parametrize("lps_on", [True, False])
@pytest.mark.parametrize("separate_stab", [False, True])
@pytest.mark.parametrize("level", [2, 3])
def test_operator_pairs_are_formed_by_the_formulas(request, level,
                                                   separate_stab, lps_on):
    """Each assembler's pair is bit for bit the sum the step code formed
    from K (or Kp) and the kernel's N and W (or Np and Wp):
    D = (nu K + N) + W and D_adj = (nu K - N) + W on the velocity space,
    (nu Kp + Wp) + Np and (nu Kp + Wp) - Np on the pressure space."""
    geom = request.getfixturevalue(f"geom{level}")
    d, nu = geom.dofmap, 1 / 250
    rng = np.random.default_rng(level)
    wind = lift_boundary(d)
    wind[d.interior_vdofs] = 0.5 * rng.standard_normal(d.n_v_int)
    stab = (wind + 0.1 * rng.standard_normal(d.n_v_full) if separate_stab
            else wind)
    lvl = _level_operators(level)
    kw = dict(nu=nu, lps_on=lps_on, stab_wind=stab)

    vel = _vel(geom, wind, **kw)
    n, w = (_kron2(a) for a in _terms(geom, wind, **kw))
    assert (_maxabs(w) > 0.0) == lps_on
    assert _bits_equal(vel.d_full, (nu * lvl.k_full + n + w).tocsr())
    assert _bits_equal(vel.d_adj_full, (nu * lvl.k_full - n + w).tocsr())

    pres = _pres(geom, wind, **kw)
    n_p, w_p = _terms(geom, wind, space="q1", **kw)
    assert (_maxabs(w_p) > 0.0) == lps_on
    base = (nu * lvl.kp + w_p).tocsr()
    assert _bits_equal(pres.dp, (base + n_p).tocsr())
    assert _bits_equal(pres.dp_adj, (base - n_p).tocsr())


def test_no_stabilization_without_its_wind(geom2):
    """With `lps_on` and no stabilization wind, neither space gets a W:
    each assembler's pair is bit for bit the one with the stabilization
    off, although the linearization wind would give a nonzero one."""
    wind = _const_wind(geom2, 1.0, 0.5)
    for assemble, names in ((_vel, ("d_full", "d_adj_full")),
                            (_pres, ("dp", "dp_adj"))):
        on = assemble(geom2, wind, nu=1e-3)
        off = assemble(geom2, wind, nu=1e-3, lps_on=False)
        stab = assemble(geom2, wind, nu=1e-3, stab_wind=wind)
        for name in names:
            assert _bits_equal(getattr(on, name), getattr(off, name)), name
            assert _maxabs((getattr(stab, name) - getattr(off, name))
                           .tocsr()) > 0.0, name


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
    lvl = _level_operators(geom3.mesh.level)
    da = assemble_divergence(geom3.mesh)
    db = assemble_divergence(other.mesh)
    assert a.m_full is b.m_full and a.m_full is lvl.m_full
    assert lvl is _level_operators(other.mesh.level)
    assert da is db is lvl
    assert lvl.bt_winv_b is lvl.bt_winv_b
    assert a.n_full is not b.n_full
    for mat in (a.m_full, lvl.k_full, lvl.mp, lvl.kp, da.b, da.b_full,
                lvl.bt_winv_b):
        for arr in (mat.data, mat.indices, mat.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    for diag in (lvl.mp_diag, lvl.m_cheb.diag, lvl.mp_cheb.diag):
        with pytest.raises(ValueError):
            diag[0] = 1.0
    with pytest.raises(ValueError):
        a.m_full.data *= 2.0


def _reassembled_without_drop(level):
    """M, K, B, Mp and Kp of a level scattered from their element matrices
    as `_level_operators` scatters them, but keeping every summed entry;
    each with the largest element entry its residue is measured against."""
    lvl, geom = _level_operators(level), setup_geometry(level)
    d, v2, v1 = geom.dofmap, geom.quad.q2_vals, geom.quad.q1_vals
    n_cells = geom.mesh.n_cells

    def raw(e, idx_r, idx_c, shape, vector=False):
        a = _scatter(shape, (idx_r, idx_c,
                             np.broadcast_to(e, (n_cells,) + e.shape)))
        return (_kron2(a) if vector else a), np.abs(e).max()

    q2, q1 = (d.n_q2, d.n_q2), (d.n_p, d.n_p)
    return {
        "m_full": raw(np.einsum("q,qi,qj->ij", lvl.wdet, v2, v2),
                      d.cell_q2, d.cell_q2, q2, vector=True),
        "k_full": raw(np.einsum("q,qid,qjd->ij", lvl.wdet, lvl.g2, lvl.g2),
                      d.cell_q2, d.cell_q2, q2, vector=True),
        "b_full": raw(-np.einsum("q,qi,qja->ija", lvl.wdet, v1,
                                 lvl.g2).reshape(4, 18),
                      d.cell_q1, d.cell_v, (d.n_p, d.n_v_full)),
        "mp": raw(np.einsum("q,qi,qj->ij", lvl.wdet, v1, v1),
                  d.cell_q1, d.cell_q1, q1),
        "kp": raw(np.einsum("q,qid,qjd->ij", lvl.wdet, lvl.g1, lvl.g1),
                  d.cell_q1, d.cell_q1, q1),
    }


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_level_operators_store_no_cancellation_residue(level):
    """Every stored entry of the wind-free operators is genuine (at least
    1e-3 of its matrix's largest), and a scatter that keeps every summed
    entry differs from the stored matrix only where an entry was dropped,
    by no more than the drop threshold 64 eps max|e|."""
    lvl = _level_operators(level)
    for name, (full, e_max) in _reassembled_without_drop(level).items():
        kept = getattr(lvl, name)
        assert np.abs(kept.data).min() >= 1e-3 * np.abs(kept.data).max(), name
        diff = full - kept
        assert np.abs(diff.data).max(initial=0.0) \
            <= 64 * np.finfo(float).eps * e_max, name
        assert diff.multiply(kept != 0).count_nonzero() == 0, name
    if level == 4:
        assert lvl.b_full.nnz == 6468


def test_scatter_sums_duplicates_into_canonical_csr():
    """`_scatter` relies on scipy's COO -> CSR conversion to sum duplicate
    entries, within one part and across parts, and sort each row's column
    indices."""
    rows = np.array([[2, 0], [0, 2], [1, 2]])
    cols = np.array([[1, 0], [1, 0], [0, 1]])
    blocks = np.arange(1.0, 13.0).reshape(3, 2, 2)
    column = (np.array([[0, 1, 2]]), np.array([[1]]),
              np.array([[[0.5], [-1.0], [2.0]]]))
    a = _scatter((3, 2), (rows, cols, blocks), column)
    want = np.zeros((3, 2))
    np.add.at(want, (np.repeat(rows, 2, axis=1).ravel(),
                     np.tile(cols, (1, 2)).ravel()), blocks.ravel())
    want[:, 1] += [0.5, -1.0, 2.0]
    assert a.format == "csr"
    assert a.has_canonical_format and a.has_sorted_indices
    for i in range(a.shape[0]):
        assert np.all(np.diff(a.indices[a.indptr[i]:a.indptr[i + 1]]) > 0)
    assert a.nnz == np.count_nonzero(want)
    assert np.array_equal(a.toarray(), want)
    empty = _scatter((3, 2), (np.zeros((0, 1), dtype=np.int64),
                              np.zeros((0, 1), dtype=np.int64),
                              np.zeros((0, 1, 1))))
    assert empty.format == "csr" and empty.shape == (3, 2)
    assert empty.nnz == 0


def _scatter_entries(entries, cuts):
    """`_scatter` of (row, col, value) entries as 1x1 element blocks, split
    into parts at the given cut points."""
    bounds = [0] + sorted({c % (len(entries) + 1) for c in cuts}) \
        + [len(entries)]
    rows = np.array([r for r, _, _ in entries], dtype=np.int64)
    cols = np.array([c for _, c, _ in entries], dtype=np.int64)
    vals = np.array([v for _, _, v in entries], dtype=np.float64)
    parts = [(rows[lo:hi, None], cols[lo:hi, None], vals[lo:hi, None, None])
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    return _scatter((5, 5), *parts)


@given(entries=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                  st.floats(-1e3, 1e3)), max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scatter_matches_dense_accumulation(entries, cuts, seed):
    """One CSR entry per distinct position, holding the sum of its
    duplicates, with each row's columns strictly increasing; neither the
    order of the entries nor their split into parts changes the result
    beyond roundoff."""
    a = _scatter_entries(entries, cuts)
    dense = np.zeros((5, 5))
    for r, c, v in entries:
        dense[r, c] += v
    assert a.format == "csr"
    assert a.nnz == len({(r, c) for r, c, _ in entries})
    assert np.allclose(a.toarray(), dense, atol=1e-8)
    for i in range(5):
        assert np.all(np.diff(a.indices[a.indptr[i]:a.indptr[i + 1]]) > 0)
    shuffled = list(entries)
    random.Random(seed).shuffle(shuffled)
    b = _scatter_entries(shuffled, [seed])
    assert np.allclose(a.toarray(), b.toarray(), atol=1e-8)


# --------------------------------------------------------------------------
# pressure operators
# --------------------------------------------------------------------------

def test_pressure_mass_and_stiffness(geom2):
    lvl = _level_operators(geom2.mesh.level)
    assert lvl.mp.sum() == pytest.approx(4.0, abs=1e-12)
    assert _maxabs(lvl.kp - lvl.kp.T) <= 1e-14
    ones = np.ones(lvl.kp.shape[0])
    assert np.abs(lvl.kp @ ones).max() <= 1e-13
    assert np.array_equal(lvl.mp_diag, lvl.mp.diagonal())
    assert np.all(lvl.mp_diag > 0.0)
    # one array: the record's diag(Mp) is the one its Chebyshev solver holds
    assert lvl.mp_diag is lvl.mp_cheb.diag


def test_pressure_wind_blocks_vanish_at_zero_wind(geom2):
    zero = _zero_wind(geom2)
    n_p, w_p = _terms(geom2, zero, space="q1", stab_wind=zero)
    assert _maxabs(n_p) == 0.0
    assert _maxabs(w_p) == 0.0
    pres = _pres(geom2, _zero_wind(geom2))
    kp = _level_operators(geom2.mesh.level).kp
    for pair in (pres.dp, pres.dp_adj):     # nu Kp alone, with nu = 1
        assert _maxabs((pair - kp).tocsr()) == 0.0


def _lps_reference(patches, conv, wdet, delta, cell_nodes, n_dofs):
    """The stabilization's own triplet assembly, as `_lps_matrix` had it
    before it went through `_scatter`: cell blocks, then the rank-one
    patch corrections, in one COO -> CSR conversion."""
    active = np.flatnonzero(delta != 0.0)
    if active.size == 0:
        return sp.csr_matrix((n_dofs, n_dofs))
    t_cell = np.einsum("cqm,cqn,q->cmn", conv, conv, wdet)
    a_cell = np.einsum("cqn,q->cn", conv, wdet)
    cells_act = patches.patch_cells[active].ravel()
    w_act = np.repeat(delta[active], 4)
    blocks = t_cell[cells_act] * w_act[:, None, None]
    idx = cell_nodes[cells_act]
    nb = idx.shape[1]
    rows = [np.repeat(idx, nb, axis=1).ravel()]
    cols = [np.tile(idx, (1, nb)).ravel()]
    vals = [blocks.ravel()]
    nodes_p = cell_nodes[patches.patch_cells[active]].reshape(active.size, -1)
    a_p = a_cell[patches.patch_cells[active]].reshape(active.size, -1)
    coef = (delta[active] / patches.size ** 2)[:, None, None]
    outer = -coef * a_p[:, :, None] * a_p[:, None, :]
    npb = nodes_p.shape[1]
    rows.append(np.repeat(nodes_p, npb, axis=1).ravel())
    cols.append(np.tile(nodes_p, (1, npb)).ravel())
    vals.append(outer.ravel())
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_dofs, n_dofs)).tocsr()


@pytest.mark.parametrize("space", ["q2", "q1"])
def test_lps_matrix_matches_triplet_reference(geom3, space):
    """W and Wp through `_scatter` are byte for byte the reference triplet
    assembly on the streamline derivative of every cell, with every patch
    active, with some, and with none."""
    d, q = geom3.dofmap, geom3.quad
    lvl = _level_operators(geom3.mesh.level)
    grads, nodes, n = ((lvl.g2, d.cell_q2, d.n_q2) if space == "q2"
                       else (lvl.g1, d.cell_q1, d.n_p))
    ramp = _zero_wind(geom3)
    ramp[0::2] = (d.q2_coords[:, 0] + 1.0) ** 4
    seen = set()
    for wind, nu in ((_const_wind(geom3, 1.0, 0.5), 1e-3), (ramp, 0.05),
                     (_zero_wind(geom3), 1.0)):
        conv = _streamline(wind, d, q, grads)
        delta = _lps_delta(geom3.patches, wind.reshape(-1, 2), nu)
        seen.add(int(np.count_nonzero(delta)))
        # `_lps_matrix` forms the streamline derivative on the active
        # patches' cells only; the reference forms it on every cell
        got = _lps_matrix(geom3.patches,
                          partial(_streamline, wind, d, q, grads),
                          lvl.wdet, delta, nodes, n)
        want = _lps_reference(geom3.patches, conv, lvl.wdet, delta, nodes, n)
        assert got.shape == want.shape
        for f in ("indptr", "indices", "data"):
            g, w = getattr(got, f), getattr(want, f)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f
    n_patches = geom3.patches.patch_cells.shape[0]
    assert 0 in seen and n_patches in seen and len(seen) == 3


# --------------------------------------------------------------------------
# divergence
# --------------------------------------------------------------------------

def test_divergence_shape(geom3):
    div = assemble_divergence(geom3.mesh)
    assert div.b.shape == (81, 450)
    assert div.b_full.shape == (81, geom3.dofmap.n_v_full)


def test_divergence_annihilates_solenoidal_fields(geom2):
    div = assemble_divergence(geom2.mesh)
    const = _const_wind(geom2, 2.0, -3.0)
    assert np.abs(div.b_full @ const).max() <= 1e-13
    shear = np.empty(geom2.dofmap.n_v_full)
    coords = geom2.dofmap.q2_coords
    shear[0::2] = coords[:, 0]
    shear[1::2] = -coords[:, 1]
    assert np.abs(div.b_full @ shear).max() <= 1e-13


def test_divergence_interior_columns_sum_to_zero(geom2):
    div = assemble_divergence(geom2.mesh)
    assert np.abs(div.b.T @ np.ones(div.b.shape[0])).max() <= 1e-13


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def test_curvature_zero_adjoint(geom2):
    ops = _vel(geom2, _zero_wind(geom2), nu=1.0, lps_on=False)
    assert _maxabs(ops.n_full) == 0.0 and _maxabs(ops.h_full) == 0.0
    for approach in ("dto", "otd"):
        c = assemble_curvature_exact(geom2.mesh, geom2.dofmap, geom2.quad,
                                     _zero_wind(geom2), approach)
        assert _maxabs(c) == 0.0


def test_curvature_matches_wind_blocks(geom2, rng):
    zeta = _zero_wind(geom2)
    zeta[geom2.dofmap.interior_vdofs] = rng.standard_normal(
        geom2.dofmap.n_v_int)
    c = assemble_curvature_exact(geom2.mesh, geom2.dofmap, geom2.quad, zeta,
                                 "otd")
    ops = _vel(geom2, zeta, nu=1.0, lps_on=False)
    want = (restrict(ops.n_full, geom2.dofmap)
            + restrict(ops.h_full, geom2.dofmap)).tocsr()
    assert _maxabs(want) > 0.0
    assert _maxabs((c - want).tocsr()) == 0.0


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
    for kind in ("bpcd", "ideal"):        # only the al stack reads gamma
        assert KktParams(nu=0.01, beta=1e-2, precond=kind).gamma is None


def test_params_validation():
    with pytest.raises(ValueError):
        KktParams(nu=0.0, beta=1e-2)
    with pytest.raises(ValueError):
        KktParams(nu=0.01, beta=-1.0)
    with pytest.raises(ValueError):
        KktParams(nu=0.01, beta=1e-2, gamma=-1.0)
    with pytest.raises(ValueError):
        KktParams(nu=0.01, beta=1e-2, approach="both")
    for kind in ("bpcd", "ideal"):
        with pytest.raises(ValueError, match="reads no gamma"):
            KktParams(nu=0.01, beta=1e-2, precond=kind, gamma=5.0)
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
    assert np.array_equal(res.rhs(), np.zeros(res.dim))


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
def test_residual_is_the_plain_system_at_the_iterate(geom3, rng, approach):
    """The residual at a state is the plain step system linearized there,
    bit for bit, with the norm of its right-hand side; its momentum blocks
    equal the sums of the restricted matrices."""
    d = geom3.dofmap
    params = KktParams(nu=0.004, beta=1e-3, approach=approach)
    state = _zero_state(geom3)
    state.v = lift_boundary(d)
    for x in (state.v, state.zeta):
        x[d.interior_vdofs] = rng.standard_normal(d.n_v_int)
    state.mu[:] = rng.standard_normal(d.n_p)
    stab = state.v + 0.1 * rng.standard_normal(d.n_v_full)
    args = (state, geom3.mesh, d, geom3.patches, geom3.quad, params)
    res = eval_residual(*args, stab_wind=stab)
    plain = build_kkt(*args, wind=state.v, stab_wind=stab)
    for name in ("a11", "a12", "a21", "a22", "b", "rhs1", "rhs2",
                 "rhs_div1", "rhs_div2"):
        assert _bits_equal(getattr(res, name), getattr(plain, name)), name
    assert res.norm == np.linalg.norm(res.rhs())

    n_s, w_s = _terms(geom3, state.v, nu=params.nu, stab_wind=stab)
    k, n, h, w = (restrict(m, d) for m in (
        _level_operators(3).k_full, _kron2(n_s),
        _vel(geom3, state.v).h_full, _kron2(w_s)))
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


def test_augment_marks_and_modifies(geom2):
    params = KktParams(nu=0.01, beta=1e-2)
    state = _zero_state(geom2)
    state.v = lift_boundary(geom2.dofmap)
    system = build_kkt(state, geom2.mesh, geom2.dofmap, geom2.patches,
                       geom2.quad, params)
    aug = augment(system)
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
    lambda s: s, augment, pin_pressure],
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

def test_mass_eig_intervals(geom2):
    lo2, hi2 = mass_eig_interval(geom2.quad, geom2.quad.q2_vals)
    assert (lo2, hi2) == pytest.approx((0.25, 1.5625), abs=1e-10)
    lo1, hi1 = mass_eig_interval(geom2.quad, geom2.quad.q1_vals)
    assert (lo1, hi1) == pytest.approx((0.25, 2.25), abs=1e-10)
    # the assembled, Jacobi-scaled mass spectrum sits inside the interval
    vel = _vel(geom2, _zero_wind(geom2))
    m = vel.m_full[0::2, 0::2].toarray()
    d = 1.0 / np.sqrt(np.diag(m))
    eigs = np.linalg.eigvalsh(m * np.outer(d, d))
    assert eigs.min() >= lo2 - 1e-10 and eigs.max() <= hi2 + 1e-10
