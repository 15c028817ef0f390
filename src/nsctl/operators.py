"""Finite element assembly for the cavity control problem: velocity-space and
pressure-space operators, boundary lifting, the coupled KKT system of one
Newton step, and the nonlinear residual.

Velocity matrices live on the full Q2 space, as the nonlinear residual needs
their boundary columns; `build_kkt` imposes the Dirichlet conditions by
eliminating the boundary dofs (interior restriction) from the summed step
blocks, which makes the coupled dimension match the closed-form dof count.
The wind-free matrices are built once per level (`_level_operators`), the
others once per wind.
"""

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .grid_fem import build_dofmap, build_mesh, tabulate

log = logging.getLogger("nsctl.operators")


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass
class VelocityOperators:
    """Vector Q2 operators on all velocity dofs; M and K are the level's."""

    m_full: sp.csr_matrix             # vector mass
    k_full: sp.csr_matrix             # vector stiffness
    n_full: sp.csr_matrix             # convection at the given wind
    h_full: sp.csr_matrix             # Newton linearization matrix
    w_full: sp.csr_matrix             # local-projection stabilization

    def d_full(self, nu):
        return (nu * self.k_full + self.n_full + self.w_full).tocsr()

    def d_adj_full(self, nu):
        return (nu * self.k_full - self.n_full + self.w_full).tocsr()


@dataclass
class PressureOperators:
    """Q1 pressure-space operators of one wind (pure Neumann space, no
    elimination); Mp and Kp are the level's."""

    np_conv: sp.csr_matrix            # pressure convection at the given wind
    wp: sp.csr_matrix                 # pressure stabilization analogue


@dataclass
class DivergenceOperator:
    """(Negative) divergence matrix; b is interior-restricted, b_full is not."""

    b: sp.csr_matrix                  # n_p x n_v_int
    b_full: sp.csr_matrix             # n_p x n_v_full


@dataclass
class StateIterate:
    """Current iterate: full-space v (boundary values included), zeta, mu, p."""

    v: np.ndarray                     # (n_v_full,), interleaved components
    zeta: np.ndarray                  # (n_v_full,), zero on the boundary
    mu: np.ndarray                    # (n_p,)
    p: np.ndarray                     # (n_p,)
    k: int = 0


@dataclass
class ResidualVector:
    r1: np.ndarray                    # adjoint momentum, (n_v_int,)
    r2: np.ndarray                    # state momentum, (n_v_int,)
    r1_div: np.ndarray                # divergence of v, (n_p,)
    r2_div: np.ndarray                # divergence of zeta, (n_p,)
    norm: float = 0.0

    def stacked(self):
        return np.concatenate([self.r1, self.r2, self.r1_div, self.r2_div])


def _require_positive(name, value):
    """Reject a value that is not finite and positive (NaN fails too)."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class KktParams:
    nu: float
    beta: float
    gamma: float = None               # defaults to 10 / sqrt(beta)
    approach: str = "otd"             # "otd" | "dto"
    lps_on: bool = True
    full_newton: bool = False
    f_const: tuple = (0.0, 0.0)       # constant forcing
    vd_const: tuple = (0.0, 0.0)      # constant desired state

    def __post_init__(self):
        _require_positive("nu", self.nu)
        _require_positive("beta", self.beta)
        if self.gamma is None:
            self.gamma = float(10.0 / np.sqrt(self.beta))
        _require_positive("gamma", self.gamma)
        if self.approach not in ("otd", "dto"):
            raise ValueError(f"unknown approach {self.approach!r}")


@dataclass
class KktSystem:
    """Coupled 4x4 saddle-point system of one Newton step.

    Unknown ordering [dv; dzeta; dmu; dp] with momentum block
    [[a11, a12], [a21, a22]]; a22 = -(1/beta) M. With `pinned` the first
    pressure dof is eliminated from both multiplier blocks so that direct
    solves (and the ideal preconditioner) see a nonsingular matrix.
    `level_ops` is the cached record of the system's level, from which the
    preconditioners take the level, M, Mp, Kp, diag(Mp) and the Chebyshev
    intervals.
    """

    params: KktParams
    a11: sp.csr_matrix
    a12: sp.csr_matrix
    a21: sp.csr_matrix
    a22: sp.csr_matrix
    b: sp.csr_matrix
    rhs1: np.ndarray
    rhs2: np.ndarray
    rhs_div1: np.ndarray
    rhs_div2: np.ndarray
    level_ops: "LevelOperators"       # the operators of the system's level
    augmented: bool = False
    pinned: bool = False
    pres: PressureOperators = None
    _matrix: sp.csr_matrix = field(default=None, repr=False)
    _momentum: sp.csr_matrix = field(default=None, repr=False)

    @property
    def n_v(self):
        return self.a11.shape[0]

    @property
    def n_p(self):
        return self.b.shape[0]

    @property
    def dim(self):
        return 2 * self.n_v + 2 * self.n_p

    def rhs(self):
        return np.concatenate([self.rhs1, self.rhs2, self.rhs_div1, self.rhs_div2])

    def momentum(self):
        """The 2x2 velocity block [[a11, a12], [a21, a22]] as one matrix."""
        if self._momentum is None:
            self._momentum = sp.bmat([[self.a11, self.a12],
                                      [self.a21, self.a22]], format="csr")
        return self._momentum

    def matrix(self):
        """The full coupled matrix [[F, Bblk^T], [Bblk, 0]]."""
        if self._matrix is None:
            bt = self.b.T.tocsr()
            self._matrix = sp.bmat([
                [self.a11, self.a12, bt, None],
                [self.a21, self.a22, None, bt],
                [self.b, None, None, None],
                [None, self.b, None, None],
            ], format="csr")
        return self._matrix

    def split(self, x):
        nv, npp = self.n_v, self.n_p
        return (x[:nv], x[nv:2 * nv],
                x[2 * nv:2 * nv + npp], x[2 * nv + npp:])

    def expand_pressure(self, q):
        """Re-insert the pinned pressure dof (value 0) when pinned."""
        if not self.pinned:
            return q
        out = np.zeros(self.level_ops.mp_diag.size)
        out[1:] = q
        return out


# --------------------------------------------------------------------------
# element tables and scatter helpers
# --------------------------------------------------------------------------

def _phys_tables(mesh, quad):
    """Physical-space quadrature weights and gradients (same on every cell)."""
    jac = mesh.h_q1 / 2.0
    wdet = quad.weights * jac * jac
    return wdet, quad.q2_grads / jac, quad.q1_grads / jac


def _scatter(idx_rows, idx_cols, blocks, shape):
    rows = np.repeat(idx_rows, idx_cols.shape[1], axis=1).ravel()
    cols = np.tile(idx_cols, (1, idx_rows.shape[1])).ravel()
    a = sp.coo_matrix((np.ascontiguousarray(blocks).ravel(), (rows, cols)),
                      shape=shape).tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return a


def _vector_expand(idx_scalar):
    """Scalar node ids -> interleaved vector dof ids (2 per node)."""
    out = np.stack([2 * idx_scalar, 2 * idx_scalar + 1], axis=-1)
    return out.reshape(idx_scalar.shape[0], -1)


def _interleave_scalar(a_s):
    """Expand a scalar-node operator to interleaved vector dofs: kron(A, I2)."""
    a = a_s.tocoo()
    rows = np.concatenate([2 * a.row, 2 * a.row + 1])
    cols = np.concatenate([2 * a.col, 2 * a.col + 1])
    vals = np.concatenate([a.data, a.data])
    n = 2 * a_s.shape[0]
    out = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    out.sort_indices()
    return out


def restrict(a_full, dofmap):
    """Interior-restrict a full vector-dof operator."""
    keep = dofmap.interior_vdofs
    return a_full.tocsr()[keep][:, keep].tocsr()


def _wind_cellwise(wind, dofmap):
    return wind.reshape(-1, 2)[dofmap.cell_q2]      # (n_cells, 9, 2)


# --------------------------------------------------------------------------
# wind-free operators, once per level
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelOperators:
    """The wind-free operators of one level, their element tables and the
    Chebyshev intervals of its two mass matrices."""

    level: int
    wdet: np.ndarray                  # (nq,) physical quadrature weights
    g2: np.ndarray                    # (nq, 9, 2) physical Q2 gradients
    g1: np.ndarray                    # (nq, 4, 2) physical Q1 gradients
    nn_w: np.ndarray                  # (nq, 81) wdet N_i N_j, the table of H
    m_full: sp.csr_matrix             # vector mass
    k_full: sp.csr_matrix             # vector stiffness
    m: sp.csr_matrix                  # interior-restricted vector mass
    div: DivergenceOperator
    mp: sp.csr_matrix                 # pressure mass
    kp: sp.csr_matrix                 # pressure stiffness
    mp_diag: np.ndarray
    m_interval: tuple                 # bounds of spec(diag(M)^-1 M)
    mp_interval: tuple                # bounds of spec(diag(Mp)^-1 Mp)


@lru_cache(maxsize=None)
def _level_operators(level, quad_order):
    """M, K, B, Mp, Kp and diag(Mp) of one level, with their element tables
    and the spectrum bounds of the Jacobi-scaled masses.

    Cached per (level, quadrature order), so every geometry of a level
    shares them; their arrays are read-only.
    """
    mesh = build_mesh(level)
    dofmap = build_dofmap(mesh)
    quad = tabulate(quad_order)
    wdet, g2, g1 = _phys_tables(mesh, quad)
    v2, v1 = quad.q2_vals, quad.q1_vals
    idx_s, idx_p = dofmap.cell_q2, dofmap.cell_q1
    nn, npp = dofmap.n_q2, dofmap.n_p

    def cellwise(e, idx_r, idx_c, shape):
        """Scatter an element matrix that is the same on every cell."""
        return _scatter(idx_r, idx_c,
                        np.broadcast_to(e, (mesh.n_cells,) + e.shape), shape)

    m_full = _interleave_scalar(cellwise(
        np.einsum("q,qi,qj->ij", wdet, v2, v2), idx_s, idx_s, (nn, nn)))
    k_full = _interleave_scalar(cellwise(
        np.einsum("q,qid,qjd->ij", wdet, g2, g2), idx_s, idx_s, (nn, nn)))
    # B[i, (j,a)] = -int psi_i dN_j/dx_a
    b_e = -np.einsum("q,qi,qja->ija", wdet, v1, g2).reshape(4, 18)
    b_full = cellwise(b_e, idx_p, _vector_expand(idx_s),
                      (npp, dofmap.n_v_full))
    mp = cellwise(np.einsum("q,qi,qj->ij", wdet, v1, v1), idx_p, idx_p,
                  (npp, npp))
    kp = cellwise(np.einsum("q,qid,qjd->ij", wdet, g1, g1), idx_p, idx_p,
                  (npp, npp))
    nn_w = (wdet[:, None, None] * v2[:, :, None]
            * v2[:, None, :]).reshape(wdet.size, 81)
    div = DivergenceOperator(b=b_full[:, dofmap.interior_vdofs].tocsr(),
                             b_full=b_full)
    ops = LevelOperators(level=level, wdet=wdet, g2=g2, g1=g1, nn_w=nn_w,
                         m_full=m_full, k_full=k_full,
                         m=restrict(m_full, dofmap), div=div, mp=mp, kp=kp,
                         mp_diag=mp.diagonal().copy(),
                         m_interval=mass_eig_interval(quad, "q2"),
                         mp_interval=mass_eig_interval(quad, "q1"))
    for a in (wdet, g2, g1, nn_w, ops.mp_diag):
        a.flags.writeable = False
    for a in (m_full, k_full, ops.m, div.b, b_full, mp, kp):
        for arr in (a.data, a.indices, a.indptr):
            arr.flags.writeable = False
    return ops


# --------------------------------------------------------------------------
# stabilization
# --------------------------------------------------------------------------

def _lps_delta(patches, wind_nodes, mesh, nu):
    """Per-patch stabilization weight from the patch Peclet number.

    The wind is sampled at the patch centroid (a Q2 node on this mesh). The
    directional patch length falls back to the patch diagonal for a vanishing
    wind, where the weight is zero anyway.
    """
    m = 2 * mesh.cells_per_dir + 1
    npd = mesh.cells_per_dir // 2
    pid = np.arange(patches.n_patches)
    pi, pj = pid % npd, pid // npd
    centroid_node = (4 * pj + 2) * m + (4 * pi + 2)
    wc = wind_nodes[centroid_node]                  # (n_patches, 2)
    speed = np.linalg.norm(wc, axis=1)

    hx, hy = patches.box_lengths[:, 0], patches.box_lengths[:, 1]
    safe = np.where(speed > 0.0, speed, 1.0)
    h_m = np.where(speed > 1e-12,
                   (np.abs(wc[:, 0]) * hx + np.abs(wc[:, 1]) * hy) / safe,
                   np.hypot(hx, hy))
    pe = speed * h_m / (2.0 * nu)
    pe_safe = np.where(pe > 0.0, pe, 1.0)
    delta = np.where(pe > 1.0, h_m / (2.0 * safe) * (1.0 - 1.0 / pe_safe), 0.0)
    delta[speed <= 1e-12] = 0.0
    return delta


def _stab_wind(wind, conv, stab_wind, dofmap, quad, grads):
    """The stabilization wind and its streamline derivatives (`conv` holds
    those of `wind`): `stab_wind` when given, otherwise `wind`."""
    if stab_wind is None:
        return wind, conv
    wind_w = np.asarray(stab_wind, dtype=np.float64).ravel()
    ws_q = np.einsum("cnd,qn->cqd", _wind_cellwise(wind_w, dofmap),
                     quad.q2_vals)
    return wind_w, np.einsum("cqd,qnd->cqn", ws_q, grads)


def _lps_matrix(patches, conv, wdet, delta, cell_nodes, n_dofs):
    """Assemble sum_m delta_m int_Pm kappa(w.grad u) kappa(w.grad v).

    `conv[c, q, n]` holds (w . grad N_n) at quadrature point q of cell c.
    kappa subtracts the patch mean, so each patch contributes the plain
    integral term minus a rank-one mean correction.
    """
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

    # rank-one patch-mean correction: -(delta/|P|) (int w.grad u)(int w.grad v)
    nodes_p = cell_nodes[patches.patch_cells[active]].reshape(active.size, -1)
    a_p = a_cell[patches.patch_cells[active]].reshape(active.size, -1)
    coef = (delta[active] / patches.measures[active])[:, None, None]
    outer = -coef * a_p[:, :, None] * a_p[:, None, :]
    npb = nodes_p.shape[1]
    rows.append(np.repeat(nodes_p, npb, axis=1).ravel())
    cols.append(np.tile(nodes_p, (1, npb)).ravel())
    vals.append(outer.ravel())

    a = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_dofs, n_dofs)).tocsr()
    a.sum_duplicates()
    return a


# --------------------------------------------------------------------------
# assembly operations
# --------------------------------------------------------------------------

def assemble_velocity(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble N(wind), H(wind) and the stabilization matrix W, with the
    level's M and K.

    The stabilization is built from `stab_wind` when given (both the patch
    weights and the streamline derivative), otherwise from `wind`. The
    Newton driver passes the frozen stabilization wind here.
    """
    wind = np.asarray(wind, dtype=np.float64).ravel()
    if wind.size != dofmap.n_v_full:
        raise ValueError(f"wind has dimension {wind.size}, expected {dofmap.n_v_full}")
    if not np.all(np.isfinite(wind)):
        raise ValueError("wind field contains non-finite entries")

    lvl = _level_operators(mesh.level, quad.order)
    wdet, g2 = lvl.wdet, lvl.g2
    nvals = quad.q2_vals
    n_cells = mesh.n_cells
    nn = dofmap.n_q2

    w_cell = _wind_cellwise(wind, dofmap)
    w_q = np.einsum("cnd,qn->cqd", w_cell, nvals)         # wind at quad points
    conv = np.einsum("cqd,qnd->cqn", w_q, g2)             # (w . grad N_n)
    gradw = np.einsum("cnd,qne->cqde", w_cell, g2)        # dw_d / dx_e

    n_e = np.einsum("q,qi,cqj->cij", wdet, nvals, conv)
    # H couples components: H[(i,a),(j,b)] = int N_i N_j dw_a/dx_b, formed
    # as one matmul of the (cell, a, b) rows of dw_a/dx_b against the
    # (q, ij) table wdet N_i N_j (the 4-operand einsum takes ~40x longer)
    nq = wdet.size
    gradw_rows = gradw.reshape(n_cells, nq, 4).transpose(0, 2, 1)
    h_e = gradw_rows.reshape(-1, nq) @ lvl.nn_w
    h_e = h_e.reshape(n_cells, 2, 2, 9, 9).transpose(0, 3, 1, 4, 2)
    h_e = h_e.reshape(n_cells, 18, 18)

    idx_s = dofmap.cell_q2
    idx_v = _vector_expand(idx_s)
    n_full = _interleave_scalar(_scatter(idx_s, idx_s, n_e, (nn, nn)))
    h_full = _scatter(idx_v, idx_v, h_e, (2 * nn, 2 * nn))

    if lps_on:
        wind_w, conv_w = _stab_wind(wind, conv, stab_wind, dofmap, quad, g2)
        delta = _lps_delta(patches, wind_w.reshape(-1, 2), mesh, nu)
        w_full = _interleave_scalar(_lps_matrix(patches, conv_w, wdet, delta,
                                                idx_s, nn))
    else:
        w_full = sp.csr_matrix((2 * nn, 2 * nn))

    return VelocityOperators(m_full=lvl.m_full, k_full=lvl.k_full,
                             n_full=n_full, h_full=h_full, w_full=w_full)


def assemble_pressure(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble Np(wind) and Wp on the Q1 pressure space.

    As in `assemble_velocity`, the stabilization term uses `stab_wind` when
    given and the convection wind otherwise.
    """
    wind = np.asarray(wind, dtype=np.float64).ravel()
    if not np.all(np.isfinite(wind)):
        raise ValueError("wind field contains non-finite entries")

    lvl = _level_operators(mesh.level, quad.order)
    wdet, g1 = lvl.wdet, lvl.g1
    npp = dofmap.n_p

    w_cell = _wind_cellwise(wind, dofmap)
    w_q = np.einsum("cnd,qn->cqd", w_cell, quad.q2_vals)
    conv1 = np.einsum("cqd,qnd->cqn", w_q, g1)
    n_e = np.einsum("q,qi,cqj->cij", wdet, quad.q1_vals, conv1)

    idx = dofmap.cell_q1
    shape = (npp, npp)
    np_conv = _scatter(idx, idx, n_e, shape)

    if lps_on:
        wind_w, conv_w = _stab_wind(wind, conv1, stab_wind, dofmap, quad, g1)
        delta = _lps_delta(patches, wind_w.reshape(-1, 2), mesh, nu)
        wp = _lps_matrix(patches, conv_w, wdet, delta, idx, npp)
    else:
        wp = sp.csr_matrix(shape)

    return PressureOperators(np_conv=np_conv, wp=wp)


def assemble_divergence(mesh, dofmap, quad):
    """B = -int psi_i div(phi_j), the level's."""
    return _level_operators(mesh.level, quad.order).div


def assemble_curvature(mesh, dofmap, quad, zeta):
    """Coupling pair (N(zeta), H(zeta)) on interior dofs.

    These are the blocks the inexact Newton iteration drops; they equal the
    wind-dependent blocks of assemble_velocity with the wind replaced by the
    adjoint velocity.
    """
    ops = assemble_velocity(mesh, dofmap, None, quad, zeta, nu=1.0, lps_on=False)
    return restrict(ops.n_full, dofmap), restrict(ops.h_full, dofmap)


def assemble_curvature_exact(mesh, dofmap, quad, zeta, approach):
    """Curvature correction of the (1,1) momentum block for full Newton.

    The discrete-optimization approach uses the true second derivative of the
    discrete convection term, C + C^T with
    C_ij = int ((phi_j . grad) phi_i) . zeta; the continuous-linearization
    approach discretizes the linearized adjoint terms, which gives
    N(zeta) + H(zeta). The two differ by divergence and boundary terms, so
    only the former matches a finite-difference probe of the residual.
    """
    zeta = np.asarray(zeta, dtype=np.float64).ravel()
    if approach == "dto":
        wdet, g2, _ = _phys_tables(mesh, quad)
        nvals = quad.q2_vals
        n_cells = mesh.n_cells
        z_cell = _wind_cellwise(zeta, dofmap)
        z_q = np.einsum("cnd,qn->cqd", z_cell, nvals)     # zeta at quad points
        # C[(i,a),(j,b)] = int N_j dN_i/dx_b zeta_a
        c_e = np.einsum("q,qj,qib,cqa->ciajb", wdet, nvals, g2, z_q)
        c_e = c_e.reshape(n_cells, 18, 18)
        idx_v = _vector_expand(dofmap.cell_q2)
        nn2 = dofmap.n_v_full
        c_int = restrict(_scatter(idx_v, idx_v, c_e, (nn2, nn2)), dofmap)
        return (c_int + c_int.T).tocsr()
    n_z, h_z = assemble_curvature(mesh, dofmap, quad, zeta)
    return (n_z + h_z).tocsr()


def lift_boundary(dofmap, g=None):
    """Full velocity vector holding the Dirichlet data.

    By default the lid (the open top edge) gets [1, 0] and everything else
    no-slip; in particular the two top corners take the value [0, 0]. A
    callable g(x, y) -> (gx, gy) overrides the data on the whole boundary.
    """
    out = np.zeros(dofmap.n_v_full)
    coords = dofmap.q2_coords[dofmap.boundary_nodes]
    if g is None:
        vals = np.zeros((coords.shape[0], 2))
        on_lid = (coords[:, 1] == 1.0) & (np.abs(coords[:, 0]) < 1.0)
        vals[on_lid, 0] = 1.0
    else:
        vals = np.array([g(x, y) for x, y in coords], dtype=np.float64)
    out[2 * dofmap.boundary_nodes] = vals[:, 0]
    out[2 * dofmap.boundary_nodes + 1] = vals[:, 1]
    return out


# --------------------------------------------------------------------------
# residual and coupled system
# --------------------------------------------------------------------------

def _constant_load(m_full, const):
    """Load vector of a constant vector field: the mass matrix applied to
    its nodal values (exact, the field is in Q2)."""
    if const[0] == 0.0 and const[1] == 0.0:
        return np.zeros(m_full.shape[0])
    return m_full @ np.tile(np.asarray(const, dtype=np.float64),
                            m_full.shape[0] // 2)


def eval_residual(state, mesh, dofmap, patches, quad, params,
                  vel=None, stab_wind=None):
    """Nonlinear residual at the given state.

    The adjoint residual includes the -omega correction with
    omega_i = ((grad v)^T zeta, phi_i), assembled as H(v)^T zeta; the first
    divergence residual carries the boundary lift through the full-space
    product. `vel` is the operator set to evaluate with (`build_kkt` passes
    the one at its linearization wind); without it, the set at `state.v` is
    assembled here, with `stab_wind` as the stabilization wind (see
    `assemble_velocity`).
    """
    if vel is None:
        vel = assemble_velocity(mesh, dofmap, patches, quad, state.v,
                                params.nu, lps_on=params.lps_on,
                                stab_wind=stab_wind)
    div = assemble_divergence(mesh, dofmap, quad)
    keep = dofmap.interior_vdofs
    omega = vel.h_full.T @ state.zeta
    if params.approach == "otd":
        a12_full = vel.d_adj_full(params.nu)
    else:
        a12_full = vel.d_full(params.nu).T
    f_vec = _constant_load(vel.m_full, params.f_const)
    vd_vec = _constant_load(vel.m_full, params.vd_const)

    r1_full = vd_vec - vel.m_full @ state.v - a12_full @ state.zeta \
        - div.b_full.T @ state.mu - omega
    r2_full = f_vec - vel.d_full(params.nu) @ state.v - div.b_full.T @ state.p \
        + (1.0 / params.beta) * (vel.m_full @ state.zeta)
    res = ResidualVector(r1=r1_full[keep], r2=r2_full[keep],
                         r1_div=-(div.b_full @ state.v),
                         r2_div=-(div.b_full @ state.zeta))
    res.norm = float(np.linalg.norm(res.stacked()))
    return res


def augment(system, gamma):
    """Equivalent augmented system.

    Both off-diagonal momentum blocks gain gamma B^T W^-1 B with W the
    level's diag(Mp) (without its first entry when pinned); the momentum
    right-hand sides gain the matching row combination of the constraint
    rows, which pairs each momentum row with the *other* unknown's
    divergence residual.
    """
    if gamma == 0.0:
        return system
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    w_diag = system.level_ops.mp_diag
    if system.pinned:
        w_diag = w_diag[1:]

    c = (gamma * (system.b.T @ (sp.diags(1.0 / w_diag) @ system.b))).tocsr()
    return KktSystem(
        params=system.params,
        a11=system.a11, a12=(system.a12 + c).tocsr(),
        a21=(system.a21 + c).tocsr(), a22=system.a22,
        b=system.b,
        rhs1=system.rhs1 + gamma * (system.b.T @ (system.rhs_div2 / w_diag)),
        rhs2=system.rhs2 + gamma * (system.b.T @ (system.rhs_div1 / w_diag)),
        rhs_div1=system.rhs_div1, rhs_div2=system.rhs_div2,
        level_ops=system.level_ops, augmented=True, pinned=system.pinned,
        pres=system.pres,
    )


def build_kkt(state, mesh, dofmap, patches, quad, params, wind=None,
              do_augment=False, pin=False, stab_wind=None, vel=None):
    """Assemble the Newton-step KKT system at the given state.

    `wind` overrides the linearization wind (the first iteration passes
    zero); the right-hand side is the residual evaluated with the same
    frozen operators, so a zero wind yields the Stokes control problem and
    the step solves it exactly. `stab_wind` fixes the stabilization wind
    independently of the linearization wind (see `assemble_velocity`).
    `vel`, when given, is the operator set already assembled at these two
    winds, and is used instead of assembling one.
    """
    if wind is None:
        wind = state.v
    if vel is None:
        vel = assemble_velocity(mesh, dofmap, patches, quad, wind, params.nu,
                                lps_on=params.lps_on, stab_wind=stab_wind)
    pres = assemble_pressure(mesh, dofmap, patches, quad, wind, params.nu,
                             lps_on=params.lps_on, stab_wind=stab_wind)
    div = assemble_divergence(mesh, dofmap, quad)
    lvl = _level_operators(mesh.level, quad.order)
    mass = lvl.m

    a21 = restrict(vel.d_full(params.nu) + vel.h_full, dofmap)
    if params.approach == "otd":
        a12 = restrict(vel.d_adj_full(params.nu) + vel.h_full.T, dofmap)
    else:
        a12 = a21.T.tocsr()

    a11 = mass
    if params.full_newton:
        curv = assemble_curvature_exact(mesh, dofmap, quad, state.zeta,
                                        params.approach)
        a11 = (a11 + curv).tocsr()
    a22 = (-(1.0 / params.beta) * mass).tocsr()

    res = eval_residual(state, mesh, dofmap, patches, quad, params, vel=vel)

    b = div.b
    rhs_div1, rhs_div2 = res.r1_div, res.r2_div
    if pin:
        b = b[1:, :].tocsr()
        rhs_div1, rhs_div2 = rhs_div1[1:], rhs_div2[1:]

    system = KktSystem(params=params, a11=a11, a12=a12, a21=a21, a22=a22,
                       b=b, rhs1=res.r1, rhs2=res.r2,
                       rhs_div1=rhs_div1, rhs_div2=rhs_div2, level_ops=lvl,
                       pinned=pin, pres=pres)
    if do_augment:
        system = augment(system, params.gamma)
    return system


# --------------------------------------------------------------------------
# small utilities
# --------------------------------------------------------------------------

def export_matrix_market(mat, path):
    """Write a block in Matrix Market coordinate format."""
    mmwrite(str(path), sp.coo_matrix(mat), field="real", symmetry="general")


def mass_eig_interval(quad, space="q2"):
    """Eigenvalue interval of the Jacobi-scaled reference-element mass matrix.

    On a uniform mesh the assembled diagonal is the sum of element diagonals,
    so by a Rayleigh-quotient argument these element-level bounds contain the
    spectrum of diag(M)^-1 M (and of any principal submatrix of it).
    """
    vals = quad.q2_vals if space == "q2" else quad.q1_vals
    m_e = np.einsum("q,qi,qj->ij", quad.weights, vals, vals)
    d = np.sqrt(np.diag(m_e))
    eigs = np.linalg.eigvalsh(m_e / np.outer(d, d))
    return float(eigs[0]), float(eigs[-1])
