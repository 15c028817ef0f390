"""Mesh, dof-map, macro-patch and quadrature-table checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsctl.grid_fem import (QUAD_ORDER, _q1_shapes_1d, _q2_shapes_1d,
                            _tensor_tabulate, build_dofmap, build_mesh,
                            build_patches, cell_stars, q2_prolongation,
                            tabulate, vector_dofs)

DOF_COUNTS = {3: 1062, 4: 4422, 5: 18054, 6: 72966, 7: 293382}


def _q1_coords(dofmap):
    """Coordinates of the Q1 vertices: the Q2 nodes of even index in both
    directions, in the pressure numbering."""
    m = int(round(np.sqrt(dofmap.n_q2)))
    return dofmap.q2_coords.reshape(m, m, 2)[::2, ::2].reshape(-1, 2)


def _interior_nodes(dofmap):
    return dofmap.interior_vdofs[0::2] // 2


@pytest.mark.parametrize("l,cells,nq2,nq1", [
    (1, 4, 25, 9),
    (3, 64, 289, 81),
    (4, 256, 1089, 289),
])
def test_mesh_counts(l, cells, nq2, nq1):
    mesh = build_mesh(l)
    dofmap = build_dofmap(mesh)
    assert mesh.n_cells == cells
    assert dofmap.n_q2 == nq2
    assert dofmap.n_p == nq1
    assert _q1_coords(dofmap).shape[0] == nq1
    assert np.array_equal(np.unique(dofmap.cell_q1), np.arange(nq1))


def test_cells_are_identical_squares():
    mesh = build_mesh(2)
    dofmap = build_dofmap(mesh)
    assert mesh.h_q1 == 0.5
    v = _q1_coords(dofmap)[dofmap.cell_q1]       # (n_cells, 4, 2)
    # the pressure dofs of a cell are the corner nodes of its Q2 block
    assert np.array_equal(v, dofmap.q2_coords[dofmap.cell_q2[:, [0, 2, 6, 8]]])
    assert np.all(v[:, 1, 0] - v[:, 0, 0] == mesh.h_q1)
    assert np.all(v[:, 2, 1] - v[:, 0, 1] == mesh.h_q1)
    assert np.all(v[:, 1, 1] == v[:, 0, 1])
    assert np.all(v[:, 2, 0] == v[:, 0, 0])


def test_vertex_grid_spacing():
    mesh = build_mesh(3)
    xs = np.unique(_q1_coords(build_dofmap(mesh))[:, 0])
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert np.allclose(np.diff(xs), mesh.h_q1)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "3"])
def test_invalid_level_rejected(bad):
    with pytest.raises(ValueError):
        build_mesh(bad)


@pytest.mark.parametrize("l", sorted(DOF_COUNTS))
def test_coupled_dimension(l):
    assert build_dofmap(build_mesh(l)).coupled_dim == DOF_COUNTS[l]


def test_dof_closed_forms():
    for l in (1, 2, 3, 4):
        d = build_dofmap(build_mesh(l))
        m = 2 ** (l + 1)
        assert d.n_v_int == 2 * ((m + 1) ** 2 - 4 * m)
        assert d.n_p == (2 ** l + 1) ** 2
        assert d.boundary_vdofs.size == 2 * 4 * m
        assert d.interior_vdofs.size == d.n_v_int
        # boundary and interior nodes partition the Q2 grid
        both = np.concatenate([d.boundary_nodes, _interior_nodes(d)])
        assert np.array_equal(np.sort(both), np.arange(d.n_q2))


def test_velocity_dofs_interleave_the_nodes():
    """cell_v is cell_q2 with node n expanded to dofs 2n, 2n+1 in turn, and
    the boundary and interior dof lists are their nodes' interleaves, as
    the stacked expressions they replace wrote them."""
    d = build_dofmap(build_mesh(2))
    assert d.cell_v.shape == (d.cell_q2.shape[0], 18)
    assert np.array_equal(d.cell_v[:, 0::2], 2 * d.cell_q2)
    assert np.array_equal(d.cell_v[:, 1::2], 2 * d.cell_q2 + 1)
    nodes = d.boundary_nodes
    assert np.array_equal(d.boundary_vdofs,
                          np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel())
    nodes = _interior_nodes(d)
    assert np.array_equal(d.interior_vdofs,
                          np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel())
    assert np.array_equal(vector_dofs(np.array([[3], [5]])),
                          [[6, 7], [10, 11]])


def test_boundary_nodes_lie_on_boundary():
    d = build_dofmap(build_mesh(2))
    coords = d.q2_coords[d.boundary_nodes]
    assert np.all(np.max(np.abs(coords), axis=1) == 1.0)
    inner = d.q2_coords[_interior_nodes(d)]
    assert np.all(np.max(np.abs(inner), axis=1) < 1.0)


@pytest.mark.parametrize("l,n_patches", [(1, 1), (2, 4), (3, 16)])
def test_patch_counts(l, n_patches):
    patches = build_patches(build_mesh(l))
    assert patches.patch_cells.shape[0] == n_patches
    assert patches.patch_cells.shape[1] == 4


def test_patches_disjoint_cover():
    mesh = build_mesh(3)
    patches = build_patches(mesh)
    cells = np.sort(patches.patch_cells.ravel())
    assert np.array_equal(cells, np.arange(mesh.n_cells))


def test_patch_size_and_centroids():
    mesh = build_mesh(3)
    patches = build_patches(mesh)
    assert patches.size == 2.0 * mesh.h_q1 == 0.5
    # the centroid node is the mean of the four cell centres (Q2 node 4)
    d = build_dofmap(mesh)
    centres = d.q2_coords[d.cell_q2[patches.patch_cells, 4]]    # (n, 4, 2)
    assert np.array_equal(d.q2_coords[patches.centroid_nodes],
                          centres.mean(axis=1))


@pytest.mark.parametrize("level", [2, 3])
def test_q2_prolongation_reproduces_interior_quadratics(level):
    """Each velocity component of a coarse Q2 field that vanishes on the
    boundary (a multiple of the bubble (1-x^2)(1-y^2)) is interpolated
    exactly onto the interior fine dofs."""
    fine = build_dofmap(build_mesh(level))
    coarse = build_dofmap(build_mesh(level - 1))

    def field(dofmap):
        x, y = dofmap.q2_coords[:, 0], dofmap.q2_coords[:, 1]
        bubble = (1.0 - x * x) * (1.0 - y * y)
        v = np.column_stack([bubble, -2.0 * bubble]).ravel()
        return v[dofmap.interior_vdofs]

    p = q2_prolongation(level)
    assert p.shape == (fine.n_v_int, coarse.n_v_int)
    assert np.abs(p @ field(coarse) - field(fine)).max() <= 1e-13
    assert p is q2_prolongation(level)          # cached, so read-only
    assert not any(a.flags.writeable for a in (p.data, p.indices, p.indptr))


@pytest.mark.parametrize("level", [2, 3, 4])
def test_cell_stars_cover_interior_dofs(level):
    n_v = build_dofmap(build_mesh(level)).n_v_int
    groups = cell_stars(level)
    hits = np.zeros(n_v, dtype=int)
    for group in groups:
        flat = group.ravel()
        assert np.unique(flat).size == flat.size    # disjoint within a group
        hits[flat] += 1
    assert hits.min() >= 1
    assert sum(g.shape[0] for g in groups) == 4 ** level     # one per cell
    assert max(g.shape[1] for g in groups) == 50             # 5x5 nodes


def test_quadrature_weights_sum():
    rule = tabulate()
    assert QUAD_ORDER == 5 and rule.weights.size == 25
    assert rule.weights.sum() == pytest.approx(4.0, abs=1e-14)


def test_q1_shapes_at_center():
    rule = tabulate()                  # odd order: (0, 0) is a quad point
    x1, _ = np.polynomial.legendre.leggauss(QUAD_ORDER)
    mid = np.flatnonzero(np.abs(x1) < 1e-14)
    assert mid.size == 1
    # points are lex by (y, x): the centre is row mid, column mid
    assert np.allclose(rule.q1_vals[mid[0] * QUAD_ORDER + mid[0]], 0.25,
                       atol=1e-15)


def test_partition_of_unity_at_quad_points():
    rule = tabulate()
    assert np.allclose(rule.q2_vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(rule.q1_vals.sum(axis=1), 1.0, atol=1e-13)
    # gradients of a partition of unity sum to zero
    assert np.abs(rule.q2_grads.sum(axis=1)).max() < 1e-13
    assert np.abs(rule.q1_grads.sum(axis=1)).max() < 1e-13


@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=8))
def test_partition_of_unity_anywhere(points):
    pts = np.array(points)
    v2, _ = _tensor_tabulate(pts, _q2_shapes_1d)
    v1, _ = _tensor_tabulate(pts, _q1_shapes_1d)
    assert np.allclose(v2.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(v1.sum(axis=1), 1.0, atol=1e-12)
