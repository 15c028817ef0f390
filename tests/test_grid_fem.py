"""Mesh, dof-map, macro-patch and quadrature-table checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsctl.grid_fem import (_q1_shapes_1d, _q2_shapes_1d, _tensor_tabulate,
                            build_dofmap, build_mesh, build_patches,
                            cell_stars, q2_prolongation, tabulate)

DOF_COUNTS = {3: 1062, 4: 4422, 5: 18054, 6: 72966, 7: 293382}


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
    assert mesh.vertices.shape[0] == nq1


def test_cells_are_identical_squares():
    mesh = build_mesh(2)
    assert mesh.h_q1 == 0.5
    v = mesh.vertices[mesh.cell_vertices]        # (n_cells, 4, 2)
    assert np.all(v[:, 1, 0] - v[:, 0, 0] == mesh.h_q1)
    assert np.all(v[:, 2, 1] - v[:, 0, 1] == mesh.h_q1)
    assert np.all(v[:, 1, 1] == v[:, 0, 1])
    assert np.all(v[:, 2, 0] == v[:, 0, 0])


def test_vertex_grid_spacing():
    mesh = build_mesh(3)
    xs = np.unique(mesh.vertices[:, 0])
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
        both = np.concatenate([d.boundary_nodes, d.interior_nodes])
        assert np.array_equal(np.sort(both), np.arange(d.n_q2))


def test_boundary_nodes_lie_on_boundary():
    d = build_dofmap(build_mesh(2))
    coords = d.q2_coords[d.boundary_nodes]
    assert np.all(np.max(np.abs(coords), axis=1) == 1.0)
    inner = d.q2_coords[d.interior_nodes]
    assert np.all(np.max(np.abs(inner), axis=1) < 1.0)


@pytest.mark.parametrize("l,n_patches", [(1, 1), (2, 4), (3, 16)])
def test_patch_counts(l, n_patches):
    patches = build_patches(build_mesh(l))
    assert patches.n_patches == n_patches
    assert patches.patch_cells.shape[1] == 4


def test_patches_disjoint_cover():
    mesh = build_mesh(3)
    patches = build_patches(mesh)
    cells = np.sort(patches.patch_cells.ravel())
    assert np.array_equal(cells, np.arange(mesh.n_cells))


def test_patch_measures_and_boxes():
    mesh = build_mesh(3)
    patches = build_patches(mesh)
    assert np.allclose(patches.measures, 4.0 * (0.25) ** 2)  # 0.25 each
    assert np.allclose(patches.box_lengths, 2.0 * mesh.h_q1)


@pytest.mark.parametrize("level", [2, 3])
def test_q2_prolongation_reproduces_quadratics(level):
    fine = build_dofmap(build_mesh(level))
    coarse = build_dofmap(build_mesh(level - 1))

    def field(xy):
        x, y = xy[:, 0], xy[:, 1]
        return 1.0 + 2.0 * x - y + 3.0 * x * x - x * y + 0.5 * y * y \
            + x * x * y * y

    p = q2_prolongation(level)
    assert p.shape == (fine.n_q2, coarse.n_q2)
    err = np.abs(p @ field(coarse.q2_coords) - field(fine.q2_coords)).max()
    assert err <= 1e-13


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
    for order in (3, 4, 5):
        rule = tabulate(order)
        assert rule.weights.sum() == pytest.approx(4.0, abs=1e-14)


def test_quadrature_rejects_low_order():
    with pytest.raises(ValueError):
        tabulate(2)


def test_q1_shapes_at_center():
    rule = tabulate(3)                 # odd order: (0, 0) is a quad point
    center = np.flatnonzero(np.abs(rule.points).max(axis=1) < 1e-14)
    assert center.size == 1
    assert np.allclose(rule.q1_vals[center[0]], 0.25, atol=1e-15)


def test_partition_of_unity_at_quad_points():
    rule = tabulate(5)
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
