"""Finite element assembly for the cavity control problem: velocity-space and
pressure-space operators, boundary lifting, the coupled KKT system of one
Newton step, and the nonlinear residual.

All velocity matrices are assembled on the full Q2 space first; Dirichlet
conditions are imposed by elimination (interior restriction), which is what
makes the coupled dimension match the closed-form dof count. The full-space
variants are kept because the nonlinear residual needs boundary columns.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .grid_fem import DofMap, Mesh, PatchPartition, QuadratureRule

log = logging.getLogger("nsctl.operators")


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass
class VelocityOperators:
    """Vector Q2 operators, interior-restricted; *_full spans all Q2 dofs."""

    m: sp.csr_matrix                  # vector mass
    k: sp.csr_matrix                  # vector stiffness
    n: sp.csr_matrix                  # convection at the given wind
    h: sp.csr_matrix                  # Newton linearization matrix
    w: sp.csr_matrix                  # local-projection stabilization
    m_full: sp.csr_matrix
    k_full: sp.csr_matrix
    n_full: sp.csr_matrix
    h_full: sp.csr_matrix
    w_full: sp.csr_matrix

    def d(self, nu):
        return (nu * self.k + self.n + self.w).tocsr()

    def d_adj(self, nu):
        return (nu * self.k - self.n + self.w).tocsr()

    def d_full(self, nu):
        return (nu * self.k_full + self.n_full + self.w_full).tocsr()

    def d_adj_full(self, nu):
        return (nu * self.k_full - self.n_full + self.w_full).tocsr()


@dataclass
class PressureOperators:
    """Q1 pressure-space operators (pure Neumann space, no elimination)."""

    mp: sp.csr_matrix
    kp: sp.csr_matrix
    np_conv: sp.csr_matrix            # pressure convection at the given wind
    wp: sp.csr_matrix                 # pressure stabilization analogue
    mp_diag: np.ndarray


@dataclass
class DivergenceOperator:
    """(Negative) divergence matrix; b is interior-restricted, b_full is not."""

    b: sp.csr_matrix                  # n_p x n_v_int
    b_full: sp.csr_matrix             # n_p x n_v_full
    lift_contrib: np.ndarray          # b_full applied to the boundary lift


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
        if self.nu <= 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.gamma is None:
            self.gamma = float(10.0 / np.sqrt(self.beta))
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.approach not in ("otd", "dto"):
            raise ValueError(f"unknown approach {self.approach!r}")


@dataclass
class KktSystem:
    """Coupled 4x4 saddle-point system of one Newton step.

    Unknown ordering [dv; dzeta; dmu; dp] with momentum block
    [[a11, a12], [a21, a22]]; a22 = -(1/beta) M. With `pinned` the first
    pressure dof is eliminated from both multiplier blocks so that direct
    solves (and the ideal preconditioner) see a nonsingular matrix.
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
    augmented: bool = False
    pinned: bool = False
    n_p_full: int = 0                 # pressure dof count before pinning
    vel: VelocityOperators = None
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
        out = np.zeros(self.n_p_full)
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
    """Assemble M, K, N(wind), H(wind) and the stabilization matrix W.

    The stabilization is built from `stab_wind` when given (both the patch
    weights and the streamline derivative), otherwise from `wind`. The
    Newton driver passes the frozen stabilization wind here.
    """
    wind = np.asarray(wind, dtype=np.float64).ravel()
    if wind.size != dofmap.n_v_full:
        raise ValueError(f"wind has dimension {wind.size}, expected {dofmap.n_v_full}")
    if not np.all(np.isfinite(wind)):
        raise ValueError("wind field contains non-finite entries")

    wdet, g2, _ = _phys_tables(mesh, quad)
    nvals = quad.q2_vals
    n_cells = mesh.n_cells
    nn = dofmap.n_q2

    # constant-coefficient scalar element matrices, identical on every cell
    m_e = np.einsum("q,qi,qj->ij", wdet, nvals, nvals)
    k_e = np.einsum("q,qid,qjd->ij", wdet, g2, g2)

    w_cell = _wind_cellwise(wind, dofmap)
    w_q = np.einsum("cnd,qn->cqd", w_cell, nvals)         # wind at quad points
    conv = np.einsum("cqd,qnd->cqn", w_q, g2)             # (w . grad N_n)
    gradw = np.einsum("cnd,qne->cqde", w_cell, g2)        # dw_d / dx_e

    n_e = np.einsum("q,qi,cqj->cij", wdet, nvals, conv)
    # H couples components: H[(i,a),(j,b)] = int N_i N_j dw_a/dx_b, formed
    # as one matmul of the (cell, a, b) rows of dw_a/dx_b against the
    # (q, ij) table wdet N_i N_j (the 4-operand einsum takes ~40x longer)
    nq = wdet.size
    nn_w = (wdet[:, None, None] * nvals[:, :, None]
            * nvals[:, None, :]).reshape(nq, 81)
    gradw_rows = gradw.reshape(n_cells, nq, 4).transpose(0, 2, 1)
    h_e = gradw_rows.reshape(-1, nq) @ nn_w
    h_e = h_e.reshape(n_cells, 2, 2, 9, 9).transpose(0, 3, 1, 4, 2)
    h_e = h_e.reshape(n_cells, 18, 18)

    idx_s = dofmap.cell_q2
    idx_v = _vector_expand(idx_s)
    shape_s = (nn, nn)

    m_s = _scatter(idx_s, idx_s, np.broadcast_to(m_e, (n_cells, 9, 9)), shape_s)
    k_s = _scatter(idx_s, idx_s, np.broadcast_to(k_e, (n_cells, 9, 9)), shape_s)
    n_s = _scatter(idx_s, idx_s, n_e, shape_s)

    m_full = _interleave_scalar(m_s)
    k_full = _interleave_scalar(k_s)
    n_full = _interleave_scalar(n_s)
    h_full = _scatter(idx_v, idx_v, h_e, (2 * nn, 2 * nn))

    if lps_on:
        if stab_wind is None:
            wind_w, conv_w = wind, conv
        else:
            wind_w = np.asarray(stab_wind, dtype=np.float64).ravel()
            ws_q = np.einsum("cnd,qn->cqd", _wind_cellwise(wind_w, dofmap),
                             nvals)
            conv_w = np.einsum("cqd,qnd->cqn", ws_q, g2)
        delta = _lps_delta(patches, wind_w.reshape(-1, 2), mesh, nu)
        w_full = _interleave_scalar(_lps_matrix(patches, conv_w, wdet, delta,
                                                idx_s, nn))
    else:
        w_full = sp.csr_matrix((2 * nn, 2 * nn))

    return VelocityOperators(
        m=restrict(m_full, dofmap), k=restrict(k_full, dofmap),
        n=restrict(n_full, dofmap), h=restrict(h_full, dofmap),
        w=restrict(w_full, dofmap),
        m_full=m_full, k_full=k_full, n_full=n_full, h_full=h_full,
        w_full=w_full,
    )


def assemble_pressure(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble Mp, Kp, Np(wind), Wp on the Q1 pressure space.

    As in `assemble_velocity`, the stabilization term uses `stab_wind` when
    given and the convection wind otherwise.
    """
    wind = np.asarray(wind, dtype=np.float64).ravel()
    if not np.all(np.isfinite(wind)):
        raise ValueError("wind field contains non-finite entries")

    wdet, _, g1 = _phys_tables(mesh, quad)
    nvals1 = quad.q1_vals
    n_cells = mesh.n_cells
    npp = dofmap.n_p

    m_e = np.einsum("q,qi,qj->ij", wdet, nvals1, nvals1)
    k_e = np.einsum("q,qid,qjd->ij", wdet, g1, g1)

    w_cell = _wind_cellwise(wind, dofmap)
    w_q = np.einsum("cnd,qn->cqd", w_cell, quad.q2_vals)
    conv1 = np.einsum("cqd,qnd->cqn", w_q, g1)
    n_e = np.einsum("q,qi,cqj->cij", wdet, nvals1, conv1)

    idx = dofmap.cell_q1
    shape = (npp, npp)
    mp = _scatter(idx, idx, np.broadcast_to(m_e, (n_cells, 4, 4)), shape)
    kp = _scatter(idx, idx, np.broadcast_to(k_e, (n_cells, 4, 4)), shape)
    np_conv = _scatter(idx, idx, n_e, shape)

    if lps_on:
        if stab_wind is None:
            wind_w, conv_w = wind, conv1
        else:
            wind_w = np.asarray(stab_wind, dtype=np.float64).ravel()
            ws_q = np.einsum("cnd,qn->cqd", _wind_cellwise(wind_w, dofmap),
                             quad.q2_vals)
            conv_w = np.einsum("cqd,qnd->cqn", ws_q, g1)
        delta = _lps_delta(patches, wind_w.reshape(-1, 2), mesh, nu)
        wp = _lps_matrix(patches, conv_w, wdet, delta, idx, npp)
    else:
        wp = sp.csr_matrix(shape)

    return PressureOperators(mp=mp, kp=kp, np_conv=np_conv, wp=wp,
                             mp_diag=mp.diagonal().copy())


def assemble_divergence(mesh, dofmap, quad, lift=None):
    """Assemble B = -int psi_i div(phi_j) and its boundary-lift image."""
    wdet, g2, _ = _phys_tables(mesh, quad)
    n_cells = mesh.n_cells

    # B[i, (j,a)] = -int psi_i dN_j/dx_a, identical on every cell
    b_e = -np.einsum("q,qi,qja->ija", wdet, quad.q1_vals, g2).reshape(4, 18)

    idx_p = dofmap.cell_q1
    idx_v = _vector_expand(dofmap.cell_q2)
    b_full = _scatter(idx_p, idx_v, np.broadcast_to(b_e, (n_cells, 4, 18)),
                      (dofmap.n_p, dofmap.n_v_full))

    b_int = b_full[:, dofmap.interior_vdofs].tocsr()
    if lift is None:
        lift_contrib = np.zeros(dofmap.n_p)
    else:
        lift_contrib = b_full @ np.asarray(lift, dtype=np.float64).ravel()
    return DivergenceOperator(b=b_int, b_full=b_full, lift_contrib=lift_contrib)


def assemble_curvature(mesh, dofmap, quad, zeta):
    """Coupling pair (N(zeta), H(zeta)) on interior dofs.

    These are the blocks the inexact Newton iteration drops; they equal the
    wind-dependent blocks of assemble_velocity with the wind replaced by the
    adjoint velocity.
    """
    ops = assemble_velocity(mesh, dofmap, None, quad, zeta, nu=1.0, lps_on=False)
    return ops.n, ops.h


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

def _constant_load(mesh, dofmap, quad, const):
    """Load vector of a constant vector field (exact: the field is in Q2)."""
    if const[0] == 0.0 and const[1] == 0.0:
        return np.zeros(dofmap.n_v_full)
    wdet, _, _ = _phys_tables(mesh, quad)
    m_e = np.einsum("q,qi,qj->ij", wdet, quad.q2_vals, quad.q2_vals)
    row_sum = m_e.sum(axis=1)
    out = np.zeros(dofmap.n_v_full)
    np.add.at(out, 2 * dofmap.cell_q2, const[0] * row_sum)
    np.add.at(out, 2 * dofmap.cell_q2 + 1, const[1] * row_sum)
    return out


def _residual_from_ops(state, vel, div, mesh, dofmap, quad, params):
    """Residual blocks with frozen operators (assembled at any wind)."""
    keep = dofmap.interior_vdofs
    omega = vel.h_full.T @ state.zeta
    if params.approach == "otd":
        a12_full = vel.d_adj_full(params.nu)
    else:
        a12_full = vel.d_full(params.nu).T
    f_vec = _constant_load(mesh, dofmap, quad, params.f_const)
    vd_vec = _constant_load(mesh, dofmap, quad, params.vd_const)

    r1_full = vd_vec - vel.m_full @ state.v - a12_full @ state.zeta \
        - div.b_full.T @ state.mu - omega
    r2_full = f_vec - vel.d_full(params.nu) @ state.v - div.b_full.T @ state.p \
        + (1.0 / params.beta) * (vel.m_full @ state.zeta)
    res = ResidualVector(r1=r1_full[keep], r2=r2_full[keep],
                         r1_div=-(div.b_full @ state.v),
                         r2_div=-(div.b_full @ state.zeta))
    res.norm = float(np.linalg.norm(res.stacked()))
    return res


def eval_residual(state, mesh, dofmap, patches, quad, params,
                  vel=None, div=None, stab_wind=None):
    """Nonlinear residual at the given state.

    The adjoint residual includes the -omega correction with
    omega_i = ((grad v)^T zeta, phi_i), assembled as H(v)^T zeta; the first
    divergence residual carries the boundary lift through the full-space
    product. `stab_wind` fixes the stabilization wind (see
    `assemble_velocity`).
    """
    if vel is None:
        vel = assemble_velocity(mesh, dofmap, patches, quad, state.v,
                                params.nu, lps_on=params.lps_on,
                                stab_wind=stab_wind)
    if div is None:
        div = assemble_divergence(mesh, dofmap, quad)
    return _residual_from_ops(state, vel, div, mesh, dofmap, quad, params)


def augment(system, gamma, w_diag=None):
    """Equivalent augmented system.

    Both off-diagonal momentum blocks gain gamma B^T W^-1 B; the momentum
    right-hand sides gain the matching row combination of the constraint
    rows, which pairs each momentum row with the *other* unknown's
    divergence residual.
    """
    if gamma == 0.0:
        return system
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if w_diag is None:
        w_diag = system.pres.mp_diag
        if system.pinned:
            w_diag = w_diag[1:]
    w_diag = np.asarray(w_diag, dtype=np.float64).ravel()
    if w_diag.size != system.n_p or np.any(w_diag <= 0.0):
        raise ValueError("augmentation weight must be positive and match "
                         "the pressure dimension")

    c = (gamma * (system.b.T @ (sp.diags(1.0 / w_diag) @ system.b))).tocsr()
    return KktSystem(
        params=system.params,
        a11=system.a11, a12=(system.a12 + c).tocsr(),
        a21=(system.a21 + c).tocsr(), a22=system.a22,
        b=system.b,
        rhs1=system.rhs1 + gamma * (system.b.T @ (system.rhs_div2 / w_diag)),
        rhs2=system.rhs2 + gamma * (system.b.T @ (system.rhs_div1 / w_diag)),
        rhs_div1=system.rhs_div1, rhs_div2=system.rhs_div2,
        augmented=True, pinned=system.pinned, n_p_full=system.n_p_full,
        vel=system.vel, pres=system.pres,
    )


def build_kkt(state, mesh, dofmap, patches, quad, params, wind=None,
              do_augment=False, pin=False, stab_wind=None):
    """Assemble the Newton-step KKT system at the given state.

    `wind` overrides the linearization wind (the first iteration passes
    zero); the right-hand side is the residual evaluated with the same
    frozen operators, so a zero wind yields the Stokes control problem and
    the step solves it exactly. `stab_wind` fixes the stabilization wind
    independently of the linearization wind (see `assemble_velocity`).
    """
    if wind is None:
        wind = state.v
    vel = assemble_velocity(mesh, dofmap, patches, quad, wind, params.nu,
                            lps_on=params.lps_on, stab_wind=stab_wind)
    pres = assemble_pressure(mesh, dofmap, patches, quad, wind, params.nu,
                             lps_on=params.lps_on, stab_wind=stab_wind)
    lift = np.zeros(dofmap.n_v_full)
    lift[dofmap.boundary_vdofs] = state.v[dofmap.boundary_vdofs]
    div = assemble_divergence(mesh, dofmap, quad, lift=lift)

    d_int = vel.d(params.nu)
    if params.approach == "otd":
        a12 = (vel.d_adj(params.nu) + vel.h.T).tocsr()
    else:
        a12 = (d_int + vel.h).T.tocsr()
    a21 = (d_int + vel.h).tocsr()

    a11 = vel.m
    if params.full_newton:
        curv = assemble_curvature_exact(mesh, dofmap, quad, state.zeta,
                                        params.approach)
        a11 = (a11 + curv).tocsr()
    a22 = (-(1.0 / params.beta) * vel.m).tocsr()

    res = _residual_from_ops(state, vel, div, mesh, dofmap, quad, params)

    b = div.b
    rhs_div1, rhs_div2 = res.r1_div, res.r2_div
    if pin:
        b = b[1:, :].tocsr()
        rhs_div1, rhs_div2 = rhs_div1[1:], rhs_div2[1:]

    system = KktSystem(params=params, a11=a11, a12=a12, a21=a21, a22=a22,
                       b=b, rhs1=res.r1, rhs2=res.r2,
                       rhs_div1=rhs_div1, rhs_div2=rhs_div2,
                       pinned=pin, n_p_full=dofmap.n_p, vel=vel, pres=pres)
    if do_augment and params.gamma > 0.0:
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
