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

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .grid_fem import build_dofmap, build_mesh, tabulate
from .krylov import ChebyshevMassSolver, factorize

CHEB_STEPS = 20                       # Chebyshev steps per mass solve


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
class StateIterate:
    """Current iterate: full-space v (boundary values included), zeta, mu, p."""

    v: np.ndarray                     # (n_v_full,), interleaved components
    zeta: np.ndarray                  # (n_v_full,), zero on the boundary
    mu: np.ndarray                    # (n_p,)
    p: np.ndarray                     # (n_p,)
    k: int = 0


@dataclass
class ResidualVector:
    """The nonlinear residual by blocks, its norm, and the velocity operator
    set it was evaluated with."""

    r1: np.ndarray                    # adjoint momentum, (n_v_int,)
    r2: np.ndarray                    # state momentum, (n_v_int,)
    r1_div: np.ndarray                # divergence of v, (n_p,)
    r2_div: np.ndarray                # divergence of zeta, (n_p,)
    norm: float = 0.0
    vel: VelocityOperators = field(default=None, repr=False)

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
    mass solvers. `pres()` assembles the pressure-space operators at the
    step's winds, which only the bpcd preconditioner reads.

    The blocks are the system's one representation: `matvec` and
    `momentum_matvec` apply it block by block, and `matrix()` and
    `momentum()` assemble a new copy for the callers that need one matrix
    (direct-solve references, the ideal stack's momentum LU).
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
    pres: callable                    # () -> PressureOperators
    pinned: bool = False

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

    def momentum_matvec(self, x):
        """[[a11, a12], [a21, a22]] x, applied block by block."""
        x1, x2 = x[:self.n_v], x[self.n_v:]
        return np.concatenate([self.a11 @ x1 + self.a12 @ x2,
                               self.a21 @ x1 + self.a22 @ x2])

    def matvec(self, x):
        """The coupled operator [[F, Bblk^T], [Bblk, 0]] applied to x block
        by block."""
        x1, x2, x3, x4 = self.split(x)
        bt = self.b.T
        return np.concatenate([self.a11 @ x1 + self.a12 @ x2 + bt @ x3,
                               self.a21 @ x1 + self.a22 @ x2 + bt @ x4,
                               self.b @ x1, self.b @ x2])

    def momentum(self):
        """The 2x2 velocity block [[a11, a12], [a21, a22]] as one matrix."""
        return sp.bmat([[self.a11, self.a12], [self.a21, self.a22]],
                       format="csr")

    def matrix(self):
        """The full coupled matrix [[F, Bblk^T], [Bblk, 0]]."""
        bt = self.b.T.tocsr()
        return sp.bmat([[self.a11, self.a12, bt, None],
                        [self.a21, self.a22, None, bt],
                        [self.b, None, None, None],
                        [None, self.b, None, None]], format="csr")

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

def _scatter(idx_rows, idx_cols, blocks, shape):
    rows = np.repeat(idx_rows, idx_cols.shape[1], axis=1).ravel()
    cols = np.tile(idx_cols, (1, idx_rows.shape[1])).ravel()
    return sp.coo_matrix((np.ascontiguousarray(blocks).ravel(), (rows, cols)),
                         shape=shape).tocsr()


def _vector_expand(idx_scalar):
    """Scalar node ids -> interleaved vector dof ids (2 per node)."""
    out = np.stack([2 * idx_scalar, 2 * idx_scalar + 1], axis=-1)
    return out.reshape(idx_scalar.shape[0], -1)


def restrict(a_full, dofmap):
    """Interior-restrict a full vector-dof operator."""
    keep = dofmap.interior_vdofs
    return a_full.tocsr()[keep][:, keep].tocsr()


def _wind_cellwise(wind, dofmap):
    return wind.reshape(-1, 2)[dofmap.cell_q2]      # (n_cells, 9, 2)


def _checked_wind(wind, dofmap, name="wind"):
    """A velocity field given by its Q2 nodal values, as a flat array;
    rejects one of the wrong size or with non-finite entries."""
    wind = np.asarray(wind, dtype=np.float64).ravel()
    if wind.size != dofmap.n_v_full:
        raise ValueError(f"{name} has dimension {wind.size}, "
                         f"expected {dofmap.n_v_full}")
    if not np.all(np.isfinite(wind)):
        raise ValueError(f"{name} contains non-finite entries")
    return wind


# --------------------------------------------------------------------------
# wind-free operators, once per level
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelOperators:
    """The wind-free operators of one level, their element tables and the
    Chebyshev solvers of its two mass matrices. The properties are what
    the preconditioner stacks derive from them, each built on first read.
    """

    level: int
    wdet: np.ndarray                  # (nq,) physical quadrature weights
    g2: np.ndarray                    # (nq, 9, 2) physical Q2 gradients
    g1: np.ndarray                    # (nq, 4, 2) physical Q1 gradients
    nn_w: np.ndarray                  # (nq, 81) wdet N_i N_j, the table of H
    m_full: sp.csr_matrix             # vector mass
    k_full: sp.csr_matrix             # vector stiffness
    m: sp.csr_matrix                  # interior-restricted vector mass
    b: sp.csr_matrix                  # -div, n_p x n_v_int (interior columns)
    b_full: sp.csr_matrix             # -div, n_p x n_v_full
    mp: sp.csr_matrix                 # pressure mass
    kp: sp.csr_matrix                 # pressure stiffness
    mp_diag: np.ndarray
    m_cheb: ChebyshevMassSolver       # M^-1 by CHEB_STEPS Chebyshev steps
    mp_cheb: ChebyshevMassSolver      # Mp^-1 likewise

    @cached_property
    def bt_winv_b(self):
        """B^T W^-1 B with W = diag(Mp), the AL term per unit gamma."""
        c = (self.b.T @ (sp.diags(1.0 / self.mp_diag) @ self.b)).tocsr()
        for arr in (c.data, c.indices, c.indptr):
            arr.flags.writeable = False
        return c

    @cached_property
    def kp_pinned_lu(self):
        """LU of Kp with row and column 0 replaced by the unit vector, which
        makes the Neumann operator invertible and leaves the remaining
        equations untouched; the outer Schur solves use it."""
        n = self.kp.shape[0]
        d = sp.diags(np.r_[0.0, np.ones(n - 1)])
        e00 = sp.coo_matrix(([1.0], ([0], [0])), shape=(n, n))
        return factorize((d @ self.kp @ d + e00).tocsr())

    @cached_property
    def m_lu(self):                   # the exact velocity mass solve
        return factorize(self.m)

    @cached_property
    def mp_lu(self):                  # the exact bpcd pressure mass solve
        return factorize(self.mp)


@lru_cache(maxsize=None)
def _level_operators(level, quad_order):
    """M, K, B, Mp, Kp and diag(Mp) of one level, with their element tables
    and the Chebyshev solvers of the two masses on the spectrum bounds of
    the Jacobi-scaled element masses.

    Cached per (level, quadrature order), so every geometry of a level
    shares them and what the record derives from them; their arrays are
    read-only.
    """
    mesh = build_mesh(level)
    dofmap = build_dofmap(mesh)
    quad = tabulate(quad_order)
    # physical-space weights and gradients, the same on every cell
    jac = mesh.h_q1 / 2.0
    wdet = quad.weights * jac * jac
    g2, g1 = quad.q2_grads / jac, quad.q1_grads / jac
    v2, v1 = quad.q2_vals, quad.q1_vals
    idx_s, idx_p = dofmap.cell_q2, dofmap.cell_q1
    nn, npp = dofmap.n_q2, dofmap.n_p

    def cellwise(e, idx_r, idx_c, shape):
        """Scatter an element matrix that is the same on every cell."""
        return _scatter(idx_r, idx_c,
                        np.broadcast_to(e, (mesh.n_cells,) + e.shape), shape)

    # vector operators on interleaved dofs: kron(A, I2) of the scalar ones
    m_full = sp.kron(cellwise(np.einsum("q,qi,qj->ij", wdet, v2, v2),
                              idx_s, idx_s, (nn, nn)), sp.eye(2), format="csr")
    k_full = sp.kron(cellwise(np.einsum("q,qid,qjd->ij", wdet, g2, g2),
                              idx_s, idx_s, (nn, nn)), sp.eye(2), format="csr")
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
    m = restrict(m_full, dofmap)
    ops = LevelOperators(level=level, wdet=wdet, g2=g2, g1=g1, nn_w=nn_w,
                         m_full=m_full, k_full=k_full, m=m,
                         b=b_full[:, dofmap.interior_vdofs].tocsr(),
                         b_full=b_full, mp=mp, kp=kp,
                         mp_diag=mp.diagonal().copy(),
                         m_cheb=ChebyshevMassSolver(
                             matrix=m, interval=mass_eig_interval(quad, "q2"),
                             steps=CHEB_STEPS),
                         mp_cheb=ChebyshevMassSolver(
                             matrix=mp, interval=mass_eig_interval(quad, "q1"),
                             steps=CHEB_STEPS))
    for a in (wdet, g2, g1, nn_w, ops.mp_diag, ops.m_cheb.diag,
              ops.mp_cheb.diag):
        a.flags.writeable = False
    for a in (m_full, k_full, m, ops.b, b_full, mp, kp):
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

    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_dofs, n_dofs)).tocsr()


# --------------------------------------------------------------------------
# assembly operations
# --------------------------------------------------------------------------

def _streamline(wind, dofmap, quad, grads):
    """(w . grad phi_n) at each quadrature point, as [cell, point, n], for
    the shape functions phi_n whose gradients `grads` holds."""
    w_q = np.einsum("cnd,qn->cqd", _wind_cellwise(wind, dofmap), quad.q2_vals)
    return np.einsum("cqd,qnd->cqn", w_q, grads)


def _wind_terms(mesh, dofmap, patches, quad, wind, nu, lps_on, stab_wind,
                vals, grads, cell_nodes, n):
    """The scalar convection N(wind) and the stabilization W on one space,
    given by its shape values and gradients at the quadrature points, its
    cell-to-node map and its dimension `n`.

    W is built from `stab_wind` when given (both the patch weights and the
    streamline derivative), otherwise from `wind`; without `lps_on` it is
    empty. Both winds are checked here.
    """
    wind = _checked_wind(wind, dofmap)
    if stab_wind is not None:
        stab_wind = _checked_wind(stab_wind, dofmap, "stab_wind")
    wdet = _level_operators(mesh.level, quad.order).wdet
    conv = _streamline(wind, dofmap, quad, grads)
    n_e = np.einsum("q,qi,cqj->cij", wdet, vals, conv)
    conv_mat = _scatter(cell_nodes, cell_nodes, n_e, (n, n))
    if not lps_on:
        return conv_mat, sp.csr_matrix((n, n))
    if stab_wind is not None:
        wind, conv = stab_wind, _streamline(stab_wind, dofmap, quad, grads)
    delta = _lps_delta(patches, wind.reshape(-1, 2), mesh, nu)
    return conv_mat, _lps_matrix(patches, conv, wdet, delta, cell_nodes, n)


def assemble_velocity(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble N(wind), H(wind) and the stabilization matrix W, with the
    level's M and K.

    The stabilization is built from `stab_wind` when given, otherwise from
    `wind` (see `_wind_terms`). The Newton driver passes the frozen
    stabilization wind here.
    """
    lvl = _level_operators(mesh.level, quad.order)
    nn = dofmap.n_q2
    n_s, w_s = _wind_terms(mesh, dofmap, patches, quad, wind, nu, lps_on,
                           stab_wind, quad.q2_vals, lvl.g2, dofmap.cell_q2, nn)

    # H couples components: H[(i,a),(j,b)] = int N_i N_j dw_a/dx_b, formed
    # as one matmul of the (cell, a, b) rows of dw_a/dx_b against the
    # (q, ij) table wdet N_i N_j (the 4-operand einsum takes ~40x longer);
    # `_wind_terms` has checked the wind
    w_cell = _wind_cellwise(np.asarray(wind, dtype=np.float64), dofmap)
    gradw = np.einsum("cnd,qne->cqde", w_cell, lvl.g2)    # dw_d / dx_e
    n_cells, nq = mesh.n_cells, lvl.wdet.size
    gradw_rows = gradw.reshape(n_cells, nq, 4).transpose(0, 2, 1)
    h_e = gradw_rows.reshape(-1, nq) @ lvl.nn_w
    h_e = h_e.reshape(n_cells, 2, 2, 9, 9).transpose(0, 3, 1, 4, 2)
    h_e = h_e.reshape(n_cells, 18, 18)
    idx_v = _vector_expand(dofmap.cell_q2)
    h_full = _scatter(idx_v, idx_v, h_e, (2 * nn, 2 * nn))

    return VelocityOperators(m_full=lvl.m_full, k_full=lvl.k_full,
                             n_full=sp.kron(n_s, sp.eye(2), format="csr"),
                             h_full=h_full,
                             w_full=sp.kron(w_s, sp.eye(2), format="csr"))


def assemble_pressure(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble Np(wind) and Wp on the Q1 pressure space, as
    `assemble_velocity` assembles N and W on the velocity space."""
    lvl = _level_operators(mesh.level, quad.order)
    np_conv, wp = _wind_terms(mesh, dofmap, patches, quad, wind, nu, lps_on,
                              stab_wind, quad.q1_vals, lvl.g1, dofmap.cell_q1,
                              dofmap.n_p)
    return PressureOperators(np_conv=np_conv, wp=wp)


def assemble_divergence(mesh, dofmap, quad):
    """The level's record, holding B = -int psi_i div(phi_j) as b and b_full."""
    return _level_operators(mesh.level, quad.order)


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
        lvl = _level_operators(mesh.level, quad.order)
        wdet, g2 = lvl.wdet, lvl.g2
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


def lift_boundary(dofmap):
    """Full velocity vector holding the Dirichlet data: the lid (the open
    top edge) gets [1, 0] and everything else no-slip; in particular the two
    top corners take the value [0, 0]."""
    out = np.zeros(dofmap.n_v_full)
    coords = dofmap.q2_coords[dofmap.boundary_nodes]
    on_lid = (coords[:, 1] == 1.0) & (np.abs(coords[:, 0]) < 1.0)
    out[2 * dofmap.boundary_nodes[on_lid]] = 1.0
    return out


# --------------------------------------------------------------------------
# residual and coupled system
# --------------------------------------------------------------------------

def eval_residual(state, mesh, dofmap, patches, quad, params,
                  vel=None, stab_wind=None):
    """Nonlinear residual at the given state.

    The adjoint residual includes the -omega correction with
    omega_i = ((grad v)^T zeta, phi_i), assembled as H(v)^T zeta; the first
    divergence residual carries the boundary lift through the full-space
    product. `vel` is the operator set to evaluate with (`build_kkt` passes
    the one at its linearization wind); without it, the set at `state.v` is
    assembled here, with `stab_wind` as the stabilization wind (see
    `assemble_velocity`). The result keeps the set it was evaluated with.
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
    # zero forcing and zero desired state
    r1_full = -(vel.m_full @ state.v) - a12_full @ state.zeta \
        - div.b_full.T @ state.mu - omega
    r2_full = -(vel.d_full(params.nu) @ state.v) - div.b_full.T @ state.p \
        + (1.0 / params.beta) * (vel.m_full @ state.zeta)
    res = ResidualVector(r1=r1_full[keep], r2=r2_full[keep],
                         r1_div=-(div.b_full @ state.v),
                         r2_div=-(div.b_full @ state.zeta), vel=vel)
    res.norm = float(np.linalg.norm(res.stacked()))
    return res


def augment(system, gamma):
    """Equivalent augmented system of the plain step system.

    Both off-diagonal momentum blocks gain gamma B^T W^-1 B with W the
    level's diag(Mp), B^T W^-1 B taken from the level record; the momentum
    right-hand sides gain the matching row combination of the constraint
    rows, which pairs each momentum row with the *other* unknown's
    divergence residual. A pinned system is refused.
    """
    if system.pinned:
        raise ValueError("augment takes the unpinned step system")
    lvl = system.level_ops
    c = gamma * lvl.bt_winv_b
    w_diag = lvl.mp_diag
    return dataclasses.replace(
        system, a12=(system.a12 + c).tocsr(), a21=(system.a21 + c).tocsr(),
        rhs1=system.rhs1 + gamma * (system.b.T @ (system.rhs_div2 / w_diag)),
        rhs2=system.rhs2 + gamma * (system.b.T @ (system.rhs_div1 / w_diag)))


def pin_pressure(system):
    """The system with the first pressure dof eliminated from both
    multiplier blocks (rows of B and of the divergence right-hand sides)."""
    return dataclasses.replace(
        system, b=system.b[1:, :].tocsr(), rhs_div1=system.rhs_div1[1:],
        rhs_div2=system.rhs_div2[1:], pinned=True)


def build_kkt(state, mesh, dofmap, patches, quad, params, wind=None,
              pin=False, stab_wind=None, res=None):
    """Assemble the plain (unaugmented) Newton-step KKT system at the given
    state; with `pin`, the pinned one (see `pin_pressure`).

    `wind` overrides the linearization wind (the first iteration passes
    zero); the right-hand side is the residual evaluated with the same
    frozen operators, so a zero wind yields the Stokes control problem and
    the step solves it exactly. `stab_wind` fixes the stabilization wind
    independently of the linearization wind (see `assemble_velocity`).
    `res`, when given, is that residual, already evaluated at `state` with
    the operator set at these two winds; the system is built from its set
    instead of assembling one and evaluating the residual again.
    """
    if wind is None:
        wind = state.v
    if res is None:
        vel = assemble_velocity(mesh, dofmap, patches, quad, wind, params.nu,
                                lps_on=params.lps_on, stab_wind=stab_wind)
        res = eval_residual(state, mesh, dofmap, patches, quad, params, vel=vel)
    vel = res.vel
    pres = partial(assemble_pressure, mesh, dofmap, patches, quad, wind,
                   params.nu, lps_on=params.lps_on, stab_wind=stab_wind)
    lvl = _level_operators(mesh.level, quad.order)

    a21 = restrict(vel.d_full(params.nu) + vel.h_full, dofmap)
    if params.approach == "otd":
        a12 = restrict(vel.d_adj_full(params.nu) + vel.h_full.T, dofmap)
    else:
        a12 = a21.T.tocsr()

    a11 = lvl.m
    if params.full_newton:
        curv = assemble_curvature_exact(mesh, dofmap, quad, state.zeta,
                                        params.approach)
        a11 = (a11 + curv).tocsr()
    a22 = (-(1.0 / params.beta) * lvl.m).tocsr()

    system = KktSystem(params=params, a11=a11, a12=a12, a21=a21, a22=a22,
                       b=lvl.b, rhs1=res.r1, rhs2=res.r2,
                       rhs_div1=res.r1_div, rhs_div2=res.r2_div,
                       level_ops=lvl, pres=pres)
    return pin_pressure(system) if pin else system


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
