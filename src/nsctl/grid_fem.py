"""Uniform quadrilateral meshes of (-1,1)^2 with Q2/Q1 (Taylor-Hood) node maps,
tensor-Gauss quadrature tables, 2x2 macro-patches for local projection
stabilization, and the interior velocity prolongation and smoother stars of
the multigrid on the nested meshes.

Conventions: nodes are numbered lexicographically by (y, x); velocity
components are interleaved (dof = 2*node + component, see `vector_dofs`);
all cells are identical axis-aligned squares, so one reference-element table
serves every cell.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

QUAD_ORDER = 5                        # Gauss points per direction


def vector_dofs(nodes):
    """Interleaved velocity dof ids of Q2 node ids: the last axis of
    `nodes` doubles, node n giving dofs 2n and 2n+1 in turn."""
    return np.stack([2 * nodes, 2 * nodes + 1], axis=-1) \
        .reshape(nodes.shape[:-1] + (-1,))


def read_only(*arrays):
    """Clear the writeable flag of each array, and of the three arrays of
    each CSR matrix, that a per-level cache shares."""
    for a in arrays:
        for arr in ((a.data, a.indices, a.indptr) if sp.issparse(a) else (a,)):
            arr.flags.writeable = False


@dataclass(frozen=True)
class Mesh:
    """Uniform quad mesh of (-1,1)^2 at refinement level l (2^l cells per direction)."""

    level: int
    cells_per_dir: int
    h_q1: float                       # cell edge length, 2^(1-l)

    @property
    def n_cells(self) -> int:
        return self.cells_per_dir ** 2


@dataclass(frozen=True)
class DofMap:
    """Q2 velocity / Q1 pressure numbering with boundary bookkeeping."""

    n_q2: int                         # Q2 node count, (2^(l+1)+1)^2
    q2_coords: np.ndarray             # (n_q2, 2)
    cell_q2: np.ndarray               # (n_cells, 9) Q2 node ids, local lex by (y, x)
    cell_v: np.ndarray                # (n_cells, 18) interleaved cell_q2
    boundary_nodes: np.ndarray        # sorted Q2 node ids on the boundary
    n_v_int: int                      # interior velocity dofs
    n_p: int                          # pressure dofs, (2^l+1)^2
    cell_q1: np.ndarray               # (n_cells, 4) pressure dof ids, local lex by (y, x)
    interior_vdofs: np.ndarray        # full -> kept velocity dof ids

    @property
    def n_v_full(self) -> int:
        return 2 * self.n_q2

    @property
    def boundary_vdofs(self) -> np.ndarray:
        return vector_dofs(self.boundary_nodes)

    @property
    def coupled_dim(self) -> int:
        """Dimension of the coupled KKT system: state+adjoint velocities, two multipliers."""
        return 2 * self.n_v_int + 2 * self.n_p


@dataclass(frozen=True)
class PatchPartition:
    """Disjoint 2x2 macro-patches covering all cells."""

    patch_cells: np.ndarray           # (n_patches, 4) cell ids
    centroid_nodes: np.ndarray        # (n_patches,) Q2 node at each centre
    size: float                       # patch edge length, 2 h


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on [-1,1]^2 with tabulated Q2/Q1 shapes and reference gradients."""

    weights: np.ndarray               # (nq,)
    q2_vals: np.ndarray               # (nq, 9)
    q2_grads: np.ndarray              # (nq, 9, 2) d/dxi, d/deta
    q1_vals: np.ndarray               # (nq, 4)
    q1_grads: np.ndarray              # (nq, 4, 2)


def check_level(l):
    """Reject a refinement level that is not an integer >= 1; a bool is an
    int to Python, but not a level."""
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l < 1:
        raise ValueError(f"invalid refinement level {l!r}: need integer l >= 1")


def build_mesh(l: int) -> Mesh:
    """Build the level-l uniform mesh: 4^l square cells of edge 2^(1-l)."""
    check_level(l)
    return Mesh(level=l, cells_per_dir=2 ** l, h_q1=2.0 / 2 ** l)


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
    base = cj * (nc + 1) + ci         # lower-left Q1 node of each cell
    cell_q1 = np.column_stack([base, base + 1, base + nc + 1, base + nc + 2])

    ix = np.arange(n_q2) % m
    jy = np.arange(n_q2) // m
    on_boundary = (ix == 0) | (ix == m - 1) | (jy == 0) | (jy == m - 1)
    boundary_nodes = np.flatnonzero(on_boundary)
    interior_nodes = np.flatnonzero(~on_boundary)
    cell_q2 = cell_q2.astype(np.int64)

    return DofMap(
        n_q2=n_q2,
        q2_coords=q2_coords,
        cell_q2=cell_q2,
        cell_v=vector_dofs(cell_q2),
        boundary_nodes=boundary_nodes,
        n_v_int=2 * interior_nodes.size,
        n_p=(nc + 1) ** 2,
        cell_q1=cell_q1.astype(np.int64),
        interior_vdofs=vector_dofs(interior_nodes),
    )


def build_patches(mesh: Mesh) -> PatchPartition:
    """Group cells into disjoint 2x2 macro-blocks aligned with the refinement."""
    nc = mesh.cells_per_dir
    npd = nc // 2                     # patches per direction
    pi, pj = np.meshgrid(np.arange(npd), np.arange(npd), indexing="xy")
    pi, pj = pi.ravel(), pj.ravel()
    c00 = (2 * pj) * nc + 2 * pi
    patch_cells = np.column_stack([c00, c00 + 1, c00 + nc, c00 + nc + 1])
    m = 2 * nc + 1                    # Q2 nodes per direction
    return PatchPartition(patch_cells=patch_cells.astype(np.int64),
                          centroid_nodes=(4 * pj + 2) * m + (4 * pi + 2),
                          size=2.0 * mesh.h_q1)


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


def tabulate() -> QuadratureRule:
    """The QUAD_ORDER x QUAD_ORDER tensor Gauss rule with Q2/Q1 tables."""
    x1, w1 = np.polynomial.legendre.leggauss(QUAD_ORDER)
    xg, yg = np.meshgrid(x1, x1, indexing="xy")
    points = np.column_stack([xg.ravel(), yg.ravel()])
    weights = np.outer(w1, w1).ravel()

    q2_vals, q2_grads = _tensor_tabulate(points, _q2_shapes_1d)
    q1_vals, q1_grads = _tensor_tabulate(points, _q1_shapes_1d)
    return QuadratureRule(weights=weights, q2_vals=q2_vals, q2_grads=q2_grads,
                          q1_vals=q1_vals, q1_grads=q1_grads)


@lru_cache(maxsize=None)
def q2_prolongation(level: int) -> sp.csr_matrix:
    """Interpolate interior interleaved velocity dofs from level-1 onto level.

    The uniform meshes are nested, so evaluating the coarse Q2 field at the
    fine nodes is exact: the operator reproduces every coarse Q2 field that
    vanishes on the boundary, each component on its own. Fine nodes
    4c..4c+3 of a direction sit at reference coordinates -1, -1/2, 0, 1/2
    of coarse cell c, whose coarse nodes are 2c..2c+2. The result is cached
    per level, so its arrays are read-only.
    """
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)) \
            or level < 2:
        raise ValueError(f"invalid fine level {level!r}: need integer l >= 2")
    nc = 2 ** (level - 1)             # coarse cells per direction
    w, _ = _q2_shapes_1d(np.array([-1.0, -0.5, 0.0, 0.5]))     # (4, 3)
    c = np.arange(nc)[:, None, None]
    rows = np.broadcast_to(4 * c + np.arange(4)[:, None], (nc, 4, 3))
    cols = np.broadcast_to(2 * c + np.arange(3), (nc, 4, 3))
    vals = np.broadcast_to(w, (nc, 4, 3))
    # a direction's interior rows and columns; build_dofmap numbers the
    # interior nodes in (y, x) order, the tensor product of the two
    p1 = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                       shape=(4 * nc + 1, 2 * nc + 1))[1:-1, 1:-1]
    p1.eliminate_zeros()
    p = sp.kron(sp.kron(p1, p1, format="csr"), sp.eye(2), format="csr")
    read_only(p)
    return p


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
    m = 2 * nc + 1                    # Q2 nodes per direction
    lo = np.maximum(1, 2 * np.arange(nc) - 1)              # first star node
    size = np.minimum(m - 2, 2 * np.arange(nc) + 3) - lo + 1
    ci, cj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="xy")
    ci, cj = ci.ravel(), cj.ravel()
    key = np.stack([cj % 3, ci % 3, size[cj], size[ci]], axis=1)
    groups = []
    for k in np.unique(key, axis=0):
        sel = np.flatnonzero((key == k).all(axis=1))
        sy, sx = k[2], k[3]
        ix = lo[ci[sel]][:, None, None] + np.arange(sx)[None, None, :]
        jy = lo[cj[sel]][:, None, None] + np.arange(sy)[None, :, None]
        # the id build_dofmap gives interior node (jy, ix)
        group = vector_dofs(((jy - 1) * (m - 2) + ix - 1)
                            .reshape(sel.size, -1))
        read_only(group)
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
    """Build mesh, dof maps, macro patches and the Gauss rule for one
    level."""
    mesh = build_mesh(level)
    return Geometry(mesh=mesh, dofmap=build_dofmap(mesh),
                    patches=build_patches(mesh), quad=tabulate())
