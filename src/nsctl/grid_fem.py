"""Uniform quadrilateral meshes of (-1,1)^2 with Q2/Q1 (Taylor-Hood) node maps,
tensor-Gauss quadrature tables, 2x2 macro-patches for local projection
stabilization, and the Q2 prolongation and smoother stars of the multigrid
on the nested meshes.

Conventions: nodes are numbered lexicographically by (y, x); velocity
components are interleaved (dof = 2*node + component); all cells are identical
axis-aligned squares, so one reference-element table serves every cell.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Mesh:
    """Uniform quad mesh of (-1,1)^2 at refinement level l (2^l cells per direction)."""

    level: int
    cells_per_dir: int
    h_q1: float                       # cell edge length, 2^(1-l)
    vertices: np.ndarray              # (n_vert, 2) Q1 vertex coordinates
    cell_vertices: np.ndarray         # (n_cells, 4) vertex ids, local lex by (y, x)

    @property
    def n_cells(self) -> int:
        return self.cell_vertices.shape[0]


@dataclass(frozen=True)
class DofMap:
    """Q2 velocity / Q1 pressure numbering with boundary bookkeeping."""

    n_q2: int                         # Q2 node count, (2^(l+1)+1)^2
    q2_coords: np.ndarray             # (n_q2, 2)
    cell_q2: np.ndarray               # (n_cells, 9) Q2 node ids, local lex by (y, x)
    boundary_nodes: np.ndarray        # sorted Q2 node ids on the boundary
    interior_nodes: np.ndarray        # sorted complement
    n_v_int: int                      # interior velocity dofs, 2 * len(interior_nodes)
    n_p: int                          # pressure dofs, (2^l+1)^2
    cell_q1: np.ndarray               # (n_cells, 4) pressure dof ids
    interior_vdofs: np.ndarray        # full -> kept velocity dof ids

    @property
    def n_v_full(self) -> int:
        return 2 * self.n_q2

    @property
    def boundary_vdofs(self) -> np.ndarray:
        return np.stack([2 * self.boundary_nodes, 2 * self.boundary_nodes + 1], axis=1).ravel()

    @property
    def coupled_dim(self) -> int:
        """Dimension of the coupled KKT system: state+adjoint velocities, two multipliers."""
        return 2 * self.n_v_int + 2 * self.n_p


@dataclass(frozen=True)
class PatchPartition:
    """Disjoint 2x2 macro-patches covering all cells."""

    patch_cells: np.ndarray           # (n_patches, 4) cell ids
    measures: np.ndarray              # (n_patches,)
    box_lengths: np.ndarray           # (n_patches, 2) patch extent per direction

    @property
    def n_patches(self) -> int:
        return self.patch_cells.shape[0]


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on [-1,1]^2 with tabulated Q2/Q1 shapes and reference gradients."""

    order: int                        # points per direction
    points: np.ndarray                # (nq, 2)
    weights: np.ndarray               # (nq,)
    q2_vals: np.ndarray               # (nq, 9)
    q2_grads: np.ndarray              # (nq, 9, 2) d/dxi, d/deta
    q1_vals: np.ndarray               # (nq, 4)
    q1_grads: np.ndarray              # (nq, 4, 2)


def build_mesh(l: int) -> Mesh:
    """Build the level-l uniform mesh: 4^l square cells of edge 2^(1-l)."""
    if not isinstance(l, (int, np.integer)) or l < 1:
        raise ValueError(f"invalid refinement level {l!r}: need integer l >= 1")
    nc = 2 ** l
    h = 2.0 / nc
    coords_1d = np.linspace(-1.0, 1.0, nc + 1)
    xg, yg = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    ci, cj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="xy")
    ci, cj = ci.ravel(), cj.ravel()
    base = cj * (nc + 1) + ci
    cell_vertices = np.column_stack([base, base + 1, base + (nc + 1), base + (nc + 2)])
    return Mesh(level=l, cells_per_dir=nc, h_q1=h, vertices=vertices,
                cell_vertices=cell_vertices.astype(np.int64))


def build_dofmap(mesh: Mesh) -> DofMap:
    """Number Q2 velocity and Q1 pressure dofs and classify boundary nodes."""
    nc = mesh.cells_per_dir
    m = 2 * nc + 1                    # Q2 nodes per direction
    coords_1d = np.linspace(-1.0, 1.0, m)
    xg, yg = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    q2_coords = np.column_stack([xg.ravel(), yg.ravel()])
    n_q2 = m * m

    ci, cj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="xy")
    ci, cj = ci.ravel(), cj.ravel()
    base = (2 * cj) * m + 2 * ci      # lower-left Q2 node of each cell
    offsets = np.array([0, 1, 2, m, m + 1, m + 2, 2 * m, 2 * m + 1, 2 * m + 2])
    cell_q2 = base[:, None] + offsets[None, :]

    ix = np.arange(n_q2) % m
    jy = np.arange(n_q2) // m
    on_boundary = (ix == 0) | (ix == m - 1) | (jy == 0) | (jy == m - 1)
    boundary_nodes = np.flatnonzero(on_boundary)
    interior_nodes = np.flatnonzero(~on_boundary)

    interior_vdofs = np.stack([2 * interior_nodes, 2 * interior_nodes + 1], axis=1).ravel()

    return DofMap(
        n_q2=n_q2,
        q2_coords=q2_coords,
        cell_q2=cell_q2.astype(np.int64),
        boundary_nodes=boundary_nodes,
        interior_nodes=interior_nodes,
        n_v_int=2 * interior_nodes.size,
        n_p=(nc + 1) ** 2,
        cell_q1=mesh.cell_vertices,
        interior_vdofs=interior_vdofs,
    )


def build_patches(mesh: Mesh) -> PatchPartition:
    """Group cells into disjoint 2x2 macro-blocks aligned with the refinement."""
    nc = mesh.cells_per_dir
    npd = nc // 2                     # patches per direction
    pi, pj = np.meshgrid(np.arange(npd), np.arange(npd), indexing="xy")
    pi, pj = pi.ravel(), pj.ravel()
    c00 = (2 * pj) * nc + 2 * pi
    patch_cells = np.column_stack([c00, c00 + 1, c00 + nc, c00 + nc + 1])

    h = mesh.h_q1
    n_patches = patch_cells.shape[0]
    measures = np.full(n_patches, 4.0 * h * h)
    box_lengths = np.full((n_patches, 2), 2.0 * h)
    return PatchPartition(patch_cells=patch_cells.astype(np.int64), measures=measures,
                          box_lengths=box_lengths)


def _gauss_1d(n: int):
    return np.polynomial.legendre.leggauss(n)


def _q1_shapes_1d(x: np.ndarray):
    vals = np.stack([(1.0 - x) / 2.0, (1.0 + x) / 2.0], axis=-1)
    grads = np.stack([np.full_like(x, -0.5), np.full_like(x, 0.5)], axis=-1)
    return vals, grads


def _q2_shapes_1d(x: np.ndarray):
    vals = np.stack([x * (x - 1.0) / 2.0, 1.0 - x * x, x * (x + 1.0) / 2.0], axis=-1)
    grads = np.stack([x - 0.5, -2.0 * x, x + 0.5], axis=-1)
    return vals, grads


def _tensor_tabulate(pts: np.ndarray, shapes_1d):
    """Tensor-product shapes at 2D points; local node order lex by (y, x)."""
    vx, gx = shapes_1d(pts[:, 0])
    vy, gy = shapes_1d(pts[:, 1])
    nb = vx.shape[1]
    vals = np.einsum("qj,qi->qji", vy, vx).reshape(pts.shape[0], nb * nb)
    dxi = np.einsum("qj,qi->qji", vy, gx).reshape(pts.shape[0], nb * nb)
    deta = np.einsum("qj,qi->qji", gy, vx).reshape(pts.shape[0], nb * nb)
    return vals, np.stack([dxi, deta], axis=-1)


def tabulate(rule_order: int) -> QuadratureRule:
    """Tabulate an order x order tensor Gauss rule with Q2/Q1 shape tables."""
    if not isinstance(rule_order, (int, np.integer)) or rule_order < 3:
        raise ValueError(f"unsupported quadrature order {rule_order!r}: need integer >= 3")
    x1, w1 = _gauss_1d(rule_order)
    xg, yg = np.meshgrid(x1, x1, indexing="xy")
    points = np.column_stack([xg.ravel(), yg.ravel()])
    weights = np.outer(w1, w1).ravel()

    q2_vals, q2_grads = _tensor_tabulate(points, _q2_shapes_1d)
    q1_vals, q1_grads = _tensor_tabulate(points, _q1_shapes_1d)
    return QuadratureRule(order=rule_order, points=points, weights=weights,
                          q2_vals=q2_vals, q2_grads=q2_grads,
                          q1_vals=q1_vals, q1_grads=q1_grads)


def q2_prolongation(level: int) -> sp.csr_matrix:
    """Interpolate Q2 nodal values from level-1 onto level (scalar nodes).

    The uniform meshes are nested, so evaluating the coarse Q2 field at the
    fine nodes is exact: the operator reproduces every coarse Q2 field. Fine
    nodes 4c..4c+3 of a direction sit at reference coordinates -1, -1/2, 0,
    1/2 of coarse cell c, whose coarse nodes are 2c..2c+2.
    """
    if not isinstance(level, (int, np.integer)) or level < 2:
        raise ValueError(f"invalid fine level {level!r}: need integer l >= 2")
    nc = 2 ** (level - 1)             # coarse cells per direction
    w, _ = _q2_shapes_1d(np.array([-1.0, -0.5, 0.0, 0.5]))     # (4, 3)
    c = np.arange(nc)[:, None, None]
    rows = np.broadcast_to(4 * c + np.arange(4)[:, None], (nc, 4, 3))
    cols = np.broadcast_to(2 * c + np.arange(3), (nc, 4, 3))
    vals = np.broadcast_to(w, (nc, 4, 3))
    rows = np.append(rows.ravel(), 4 * nc)            # the last node, x = 1
    cols = np.append(cols.ravel(), 2 * nc)
    vals = np.append(vals.ravel(), 1.0)
    p1 = sp.csr_matrix((vals, (rows, cols)), shape=(4 * nc + 1, 2 * nc + 1))
    p1.eliminate_zeros()
    return sp.kron(p1, p1, format="csr")      # node = y index * m + x index


@lru_cache(maxsize=None)
def cell_stars(level: int):
    """Overlapping patches for the multigrid smoother, grouped for a sweep.

    Every cell has a star: the interior Q2 nodes strictly inside the block of
    cells that share a vertex with it (3x3 cells, clipped at the boundary, so
    5, or 3 at the boundary, nodes per direction). Returns a tuple of
    (n_stars, n_dofs) arrays of interleaved interior-velocity dof ids; the
    stars of one array have one shape and one colour (cell indices mod 3),
    so they share no dof. The groups come in colour order and together cover
    every interior dof. The result is cached per level, so its arrays are
    read-only.
    """
    nc = 2 ** level
    mi = 2 * nc - 1                   # interior Q2 nodes per direction
    lo = np.maximum(1, 2 * np.arange(nc) - 1)              # first star node
    size = np.minimum(mi, 2 * np.arange(nc) + 3) - lo + 1
    ci, cj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="xy")
    ci, cj = ci.ravel(), cj.ravel()
    key = np.stack([cj % 3, ci % 3, size[cj], size[ci]], axis=1)
    groups = []
    for k in np.unique(key, axis=0):
        sel = np.flatnonzero((key == k).all(axis=1))
        sy, sx = k[2], k[3]
        ix = lo[ci[sel]][:, None, None] + np.arange(sx)[None, None, :]
        jy = lo[cj[sel]][:, None, None] + np.arange(sy)[None, :, None]
        nodes = ((jy - 1) * mi + (ix - 1)).reshape(sel.size, sx * sy)
        group = (np.stack([2 * nodes, 2 * nodes + 1], axis=-1)
                 .reshape(sel.size, 2 * sx * sy))
        group.flags.writeable = False
        groups.append(group)
    return tuple(groups)


@dataclass(frozen=True)
class Geometry:
    """Everything per-mesh that the assembly layer consumes."""

    mesh: Mesh
    dofmap: DofMap
    patches: PatchPartition
    quad: QuadratureRule


def setup_geometry(level: int) -> Geometry:
    """Build mesh, dof maps, macro patches and the 5 x 5 Gauss rule for one
    level."""
    mesh = build_mesh(level)
    return Geometry(mesh=mesh, dofmap=build_dofmap(mesh),
                    patches=build_patches(mesh), quad=tabulate(5))
