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
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sp

from .grid_fem import read_only, setup_geometry, vector_dofs
from .krylov import ChebyshevMassSolver, factorize


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass
class VelocityOperators:
    """Vector Q2 operators on all velocity dofs at one wind: the state
    operator D and its adjoint D_adj, each formed once, with the parts the
    residual and the curvature read; M is the level's."""

    m_full: sp.csr_matrix             # vector mass
    n_full: sp.csr_matrix             # convection at the given wind
    h_full: sp.csr_matrix             # Newton linearization matrix
    d_full: sp.csr_matrix             # nu K + N + W
    d_adj_full: sp.csr_matrix         # nu K - N + W


@dataclass
class PressureOperators:
    """The pressure-space analogues of D and D_adj at one wind, with the
    Newton matrices omitted (pure Neumann space, no elimination)."""

    dp: sp.csr_matrix                 # nu Kp + Np + Wp
    dp_adj: sp.csr_matrix             # nu Kp - Np + Wp


@dataclass
class StateIterate:
    """Current iterate: full-space v (boundary values included), zeta, mu, p."""

    v: np.ndarray                     # (n_v_full,), interleaved components
    zeta: np.ndarray                  # (n_v_full,), zero on the boundary
    mu: np.ndarray                    # (n_p,)
    p: np.ndarray                     # (n_p,)
    k: int = 0


def _require_positive(name, value):
    """Reject a value that is not finite and positive (NaN fails too)."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


PRECONDS = ("al", "bpcd", "ideal")   # the preconditioner stacks
APPROACHES = ("otd", "dto")           # optimize-then-discretize, or reverse


@dataclass
class KktParams:
    """All parameters of one case; construction checks every one."""

    nu: float
    beta: float
    gamma: float = None               # al only; defaults to 10 / sqrt(beta)
    approach: str = "otd"             # one of APPROACHES
    lps_on: bool = True
    full_newton: bool = False
    precond: str = "al"               # one of PRECONDS
    exact_blocks: bool = False        # LU for the al and bpcd inner solves
    tol_newton: float = 1e-5          # relative nonlinear residual reduction
    tol_linear: float = 1e-6          # relative residual of each FGMRES solve

    def __post_init__(self):
        _require_positive("nu", self.nu)
        _require_positive("beta", self.beta)
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.precond not in PRECONDS:
            raise ValueError(f"unknown preconditioner kind {self.precond!r}")
        for name in ("lps_on", "full_newton", "exact_blocks"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, "
                                 f"got {getattr(self, name)!r}")
        # the zero vector meets any tolerance >= 1; NaN fails the test too
        for name, x in (("tol_newton", self.tol_newton),
                        ("tol_linear", self.tol_linear)):
            if not 0.0 < x < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {x}")
        if self.exact_blocks and self.precond == "ideal":
            raise ValueError("the ideal stack takes no exact_blocks")
        if self.precond == "al" and self.gamma is None:
            self.gamma = float(10.0 / np.sqrt(self.beta))
        elif self.precond != "al" and self.gamma is not None:
            raise ValueError(f"the {self.precond} stack reads no gamma")
        if self.gamma is not None:
            _require_positive("gamma", self.gamma)


@dataclass
class KktSystem:
    """Coupled 4x4 saddle-point system of one Newton step.

    Unknown ordering [dv; dzeta; dmu; dp] with momentum block
    [[a11, a12], [a21, a22]]; a22 = -(1/beta) M. With `pinned` the first
    pressure dof is eliminated from both multiplier blocks so that direct
    solves (the ideal stack's too) see a nonsingular matrix.
    `level_ops` is the cached record of the system's level, from which the
    preconditioners take the level, M, Mp, Kp, diag(Mp) and the Chebyshev
    mass solvers. `pres()` assembles the pressure-space pair at the step's
    winds, which only the bpcd preconditioner reads.

    The blocks are the system's one representation: `matvec` and
    `momentum_matvec` apply it block by block, and `matrix()`, `momentum()`
    and `b_blk()` assemble a new copy for the callers that need one matrix
    (direct-solve references, the ideal stack's LU and Schur complement).
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

    @property
    def norm(self):
        """Norm of the right-hand side: of the plain system, the nonlinear
        residual at the iterate it is linearized at."""
        return float(np.linalg.norm(self.rhs()))

    def momentum_matvec(self, x):
        """[[a11, a12], [a21, a22]] x, applied block by block."""
        x1, x2 = x[:self.n_v], x[self.n_v:]
        return np.concatenate([self.a11 @ x1 + self.a12 @ x2,
                               self.a21 @ x1 + self.a22 @ x2])

    def matvec(self, x):
        """The coupled operator [[F, Bblk^T], [Bblk, 0]] applied to x: F by
        `momentum_matvec`, then Bblk^T and Bblk by their two B blocks."""
        x1, x2, x3, x4 = self.split(x)
        bt = self.b.T
        y = self.momentum_matvec(x[:2 * self.n_v])
        y += np.concatenate([bt @ x3, bt @ x4])
        return np.concatenate([y, self.b @ x1, self.b @ x2])

    def momentum(self):
        """The 2x2 velocity block [[a11, a12], [a21, a22]] as one matrix."""
        return sp.bmat([[self.a11, self.a12], [self.a21, self.a22]],
                       format="csr")

    def b_blk(self):
        """The constraint block Bblk = diag(B, B) as one matrix."""
        return sp.bmat([[self.b, None], [None, self.b]], format="csr")

    def matrix(self):
        """The full coupled matrix [[F, Bblk^T], [Bblk, 0]]."""
        b_blk = self.b_blk()
        return sp.bmat([[self.momentum(), b_blk.T], [b_blk, None]],
                       format="csr")

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

def _scatter(shape, *parts):
    """Sum element blocks into one CSR matrix. Each part is a triplet
    (idx_rows, idx_cols, blocks) whose blocks[e] lands at rows idx_rows[e]
    and columns idx_cols[e]; the parts are concatenated in order and
    converted once, which sums the duplicates."""
    rows, cols, vals = zip(*((np.repeat(r, c.shape[1], axis=1).ravel(),
                              np.tile(c, (1, r.shape[1])).ravel(),
                              np.ascontiguousarray(b).ravel())
                             for r, c, b in parts))
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsr()


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
    m_cheb: ChebyshevMassSolver       # M^-1 by CHEB_STEPS Chebyshev steps
    mp_cheb: ChebyshevMassSolver      # Mp^-1 likewise

    @property
    def mp_diag(self):                # diag(Mp), the one its solver holds
        return self.mp_cheb.diag

    @cached_property
    def bt_winv_b(self):
        """B^T W^-1 B with W = diag(Mp), the AL term per unit gamma."""
        c = (self.b.T @ (sp.diags(1.0 / self.mp_diag) @ self.b)).tocsr()
        read_only(c)
        return c

    @cached_property
    def kp_pinned_lu(self):
        """LU of Kp with row and column 0 replaced by the unit vector, which
        makes the Neumann operator invertible and leaves the remaining
        equations untouched; `kp_solve` applies it."""
        n = self.kp.shape[0]
        d = sp.diags(np.r_[0.0, np.ones(n - 1)])
        e00 = sp.coo_matrix(([1.0], ([0], [0])), shape=(n, n))
        return factorize((d @ self.kp @ d + e00).tocsr())

    def kp_solve(self, r):
        """Kp^-1 r on the mean-free space: the pinned LU, with the mean
        taken out of r (then its pinned entry zeroed) and of the result."""
        rt = np.asarray(r, dtype=np.float64)
        rt = rt - rt.mean()
        rt[0] = 0.0
        z = self.kp_pinned_lu.solve(rt)
        return z - z.mean()

    @cached_property
    def m_lu(self):                   # the exact velocity mass solve
        return factorize(self.m)

    @cached_property
    def mp_lu(self):                  # the exact bpcd pressure mass solve
        return factorize(self.mp)


@lru_cache(maxsize=None)
def _level_operators(level):
    """M, K, B, Mp, Kp and diag(Mp) of one level, with their element tables
    and the Chebyshev solvers of the two masses on the spectrum bounds of
    the Jacobi-scaled element masses.

    Cached per level, so every geometry of a level shares them and what the
    record derives from them; their arrays are read-only.
    """
    geom = setup_geometry(level)
    mesh, dofmap, quad = geom.mesh, geom.dofmap, geom.quad
    # physical-space weights and gradients, the same on every cell
    jac = mesh.h_q1 / 2.0
    wdet = quad.weights * jac * jac
    g2, g1 = quad.q2_grads / jac, quad.q1_grads / jac
    v2, v1 = quad.q2_vals, quad.q1_vals
    idx_s, idx_p = dofmap.cell_q2, dofmap.cell_q1
    nn, npp = dofmap.n_q2, dofmap.n_p

    def cellwise(e, idx_r, idx_c, shape):
        """Scatter an element matrix that is the same on every cell. The
        cross-cell sums that cancel exactly on this uniform mesh come out as
        roundoff; an entry of at most 64 eps max|e| is one, and is dropped."""
        a = _scatter(shape, (idx_r, idx_c,
                             np.broadcast_to(e, (mesh.n_cells,) + e.shape)))
        tol = 64 * np.finfo(float).eps * np.abs(e).max()
        a.data[np.abs(a.data) <= tol] = 0.0
        a.eliminate_zeros()
        return a

    # vector operators on interleaved dofs: kron(A, I2) of the scalar ones
    m_full = sp.kron(cellwise(np.einsum("q,qi,qj->ij", wdet, v2, v2),
                              idx_s, idx_s, (nn, nn)), sp.eye(2), format="csr")
    k_full = sp.kron(cellwise(np.einsum("q,qid,qjd->ij", wdet, g2, g2),
                              idx_s, idx_s, (nn, nn)), sp.eye(2), format="csr")
    # B[i, (j,a)] = -int psi_i dN_j/dx_a
    b_e = -np.einsum("q,qi,qja->ija", wdet, v1, g2).reshape(4, 18)
    b_full = cellwise(b_e, idx_p, dofmap.cell_v, (npp, dofmap.n_v_full))
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
                         m_cheb=ChebyshevMassSolver(
                             matrix=m,
                             interval=mass_eig_interval(quad, quad.q2_vals)),
                         mp_cheb=ChebyshevMassSolver(
                             matrix=mp,
                             interval=mass_eig_interval(quad, quad.q1_vals)))
    read_only(wdet, g2, g1, nn_w, ops.m_cheb.diag, ops.mp_cheb.diag,
              m_full, k_full, m, ops.b, b_full, mp, kp)
    return ops


# --------------------------------------------------------------------------
# stabilization
# --------------------------------------------------------------------------

def _lps_delta(patches, wind_nodes, nu):
    """Per-patch stabilization weight from the patch Peclet number.

    The wind is sampled at the patch centroid (a Q2 node on this mesh). The
    directional patch length falls back to the patch diagonal for a vanishing
    wind, where the weight is zero anyway.
    """
    wc = wind_nodes[patches.centroid_nodes]         # (n_patches, 2)
    speed = np.linalg.norm(wc, axis=1)

    hx = hy = patches.size
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

    `conv(cells)[c, q, n]` holds (w . grad N_n) at quadrature point q of
    cell `cells[c]`; it is formed on the active patches' cells only.
    kappa subtracts the patch mean, so each patch contributes the plain
    integral term minus a rank-one mean correction.
    """
    active = np.flatnonzero(delta != 0.0)
    if active.size == 0:
        return sp.csr_matrix((n_dofs, n_dofs))

    cells_act = patches.patch_cells[active].ravel()
    conv_act = conv(cells_act)
    t_cell = np.einsum("cqm,cqn,q->cmn", conv_act, conv_act, wdet)
    a_cell = np.einsum("cqn,q->cn", conv_act, wdet)
    w_act = np.repeat(delta[active], 4)
    idx = cell_nodes[cells_act]

    # rank-one patch-mean correction: -(delta/|P|) (int w.grad u)(int w.grad v)
    nodes_p = idx.reshape(active.size, -1)
    a_p = a_cell.reshape(active.size, -1)
    coef = (delta[active] / patches.size ** 2)[:, None, None]
    outer = -coef * a_p[:, :, None] * a_p[:, None, :]
    return _scatter((n_dofs, n_dofs),
                    (idx, idx, t_cell * w_act[:, None, None]),
                    (nodes_p, nodes_p, outer))


# --------------------------------------------------------------------------
# assembly operations
# --------------------------------------------------------------------------

def _streamline(wind, dofmap, quad, grads, cells=slice(None)):
    """(w . grad phi_n) at each quadrature point, as [cell, point, n], for
    the shape functions phi_n whose gradients `grads` holds, on `cells`."""
    w_q = np.einsum("cnd,qn->cqd", _wind_cellwise(wind, dofmap)[cells],
                    quad.q2_vals)
    return np.einsum("cqd,qnd->cqn", w_q, grads)


def _wind_terms(mesh, dofmap, patches, quad, wind, nu, lps_on, stab_wind,
                vals, grads, cell_nodes, n):
    """The scalar convection N(wind) and the stabilization W on one space,
    given by its shape values and gradients at the quadrature points, its
    cell-to-node map and its dimension `n`.

    W is built from `stab_wind` alone (both the patch weights and the
    streamline derivative); it is empty without `lps_on` or without a
    `stab_wind`. Both winds are checked here.
    """
    wind = _checked_wind(wind, dofmap)
    if stab_wind is not None:
        stab_wind = _checked_wind(stab_wind, dofmap, "stab_wind")
    wdet = _level_operators(mesh.level).wdet
    n_e = np.einsum("q,qi,cqj->cij", wdet, vals,
                    _streamline(wind, dofmap, quad, grads))
    conv_mat = _scatter((n, n), (cell_nodes, cell_nodes, n_e))
    if not lps_on or stab_wind is None:
        return conv_mat, sp.csr_matrix((n, n))
    conv = partial(_streamline, stab_wind, dofmap, quad, grads)
    delta = _lps_delta(patches, stab_wind.reshape(-1, 2), nu)
    return conv_mat, _lps_matrix(patches, conv, wdet, delta, cell_nodes, n)


def assemble_velocity(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble N(wind), H(wind) and the stabilization matrix W, and form
    D = nu K + N + W and D_adj = nu K - N + W with the level's K.

    The stabilization is built from `stab_wind` alone, and is empty when
    none is given (see `_wind_terms`). The Newton driver passes the frozen
    stabilization wind here, and zero before it is frozen.
    """
    lvl = _level_operators(mesh.level)
    nn = dofmap.n_q2
    n_s, w_s = _wind_terms(mesh, dofmap, patches, quad, wind, nu, lps_on,
                           stab_wind, quad.q2_vals, lvl.g2, dofmap.cell_q2, nn)
    n_full = sp.kron(n_s, sp.eye(2), format="csr")
    w_full = sp.kron(w_s, sp.eye(2), format="csr")

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
    h_full = _scatter((2 * nn, 2 * nn), (dofmap.cell_v, dofmap.cell_v, h_e))

    return VelocityOperators(
        m_full=lvl.m_full, n_full=n_full, h_full=h_full,
        d_full=(nu * lvl.k_full + n_full + w_full).tocsr(),
        d_adj_full=(nu * lvl.k_full - n_full + w_full).tocsr())


def assemble_pressure(mesh, dofmap, patches, quad, wind, nu, lps_on=True,
                      stab_wind=None):
    """Assemble Np(wind) and Wp on the Q1 pressure space, as
    `assemble_velocity` assembles N and W on the velocity space, and form
    the pair nu Kp + Np + Wp and nu Kp - Np + Wp with the level's Kp."""
    lvl = _level_operators(mesh.level)
    np_conv, wp = _wind_terms(mesh, dofmap, patches, quad, wind, nu, lps_on,
                              stab_wind, quad.q1_vals, lvl.g1, dofmap.cell_q1,
                              dofmap.n_p)
    base = (nu * lvl.kp + wp).tocsr()
    return PressureOperators(dp=(base + np_conv).tocsr(),
                             dp_adj=(base - np_conv).tocsr())


def assemble_divergence(mesh):
    """The level's record, holding B = -int psi_i div(phi_j) as b and b_full."""
    return _level_operators(mesh.level)


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
        lvl = _level_operators(mesh.level)
        wdet, g2 = lvl.wdet, lvl.g2
        nvals = quad.q2_vals
        n_cells = mesh.n_cells
        z_cell = _wind_cellwise(zeta, dofmap)
        z_q = np.einsum("cnd,qn->cqd", z_cell, nvals)     # zeta at quad points
        # C[(i,a),(j,b)] = int N_j dN_i/dx_b zeta_a
        c_e = np.einsum("q,qj,qib,cqa->ciajb", wdet, nvals, g2, z_q)
        c_e = c_e.reshape(n_cells, 18, 18)
        nn2, idx_v = dofmap.n_v_full, dofmap.cell_v
        c_int = restrict(_scatter((nn2, nn2), (idx_v, idx_v, c_e)), dofmap)
        return (c_int + c_int.T).tocsr()
    # N(zeta) and H(zeta) are the wind blocks of the velocity operators at
    # the wind zeta
    ops = assemble_velocity(mesh, dofmap, None, quad, zeta, nu=1.0,
                            lps_on=False)
    return (restrict(ops.n_full, dofmap)
            + restrict(ops.h_full, dofmap)).tocsr()


def lift_boundary(dofmap):
    """Full velocity vector holding the Dirichlet data: the lid (the open
    top edge) gets [1, 0] and everything else no-slip; in particular the two
    top corners take the value [0, 0]."""
    out = np.zeros(dofmap.n_v_full)
    coords = dofmap.q2_coords[dofmap.boundary_nodes]
    on_lid = (coords[:, 1] == 1.0) & (np.abs(coords[:, 0]) < 1.0)
    out[vector_dofs(dofmap.boundary_nodes[on_lid])[::2]] = 1.0   # x-velocity
    return out


# --------------------------------------------------------------------------
# residual and coupled system
# --------------------------------------------------------------------------

def eval_residual(state, mesh, dofmap, patches, quad, params,
                  stab_wind=None):
    """Nonlinear residual at the given state: the plain step system
    linearized there, whose right-hand side is the residual and `norm` its
    norm (see `build_kkt`). The Newton driver solves it as the next step."""
    return build_kkt(state, mesh, dofmap, patches, quad, params,
                     stab_wind=stab_wind)


def augment(system):
    """Equivalent augmented system of the plain step system.

    Both off-diagonal momentum blocks gain gamma B^T W^-1 B with gamma the
    system's `params.gamma`, W the level's diag(Mp) and B^T W^-1 B taken
    from the level record; the momentum right-hand sides gain the matching
    row combination of the constraint rows, which pairs each momentum row
    with the *other* unknown's divergence residual.
    """
    lvl, gamma = system.level_ops, system.params.gamma
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
              pin=False, stab_wind=None):
    """Assemble the plain (unaugmented) Newton-step KKT system at the given
    state; with `pin`, the pinned one (see `pin_pressure`).

    The right-hand side is the nonlinear residual at `state`, evaluated with
    the step's own operator set. The adjoint residual includes the -omega
    correction with omega_i = ((grad v)^T zeta, phi_i), assembled as
    H(v)^T zeta; the first divergence residual carries the boundary lift
    through the full-space product. `wind` overrides the linearization
    wind `state.v` (the first iteration passes zero), so a zero wind yields
    the Stokes control problem and the step solves it exactly. `stab_wind`
    is the stabilization wind, independent of the linearization wind;
    without it the system has no stabilization (see `assemble_velocity`).
    """
    if wind is None:
        wind = state.v
    vel = assemble_velocity(mesh, dofmap, patches, quad, wind, params.nu,
                            lps_on=params.lps_on, stab_wind=stab_wind)
    lvl = assemble_divergence(mesh)
    keep = dofmap.interior_vdofs
    omega = vel.h_full.T @ state.zeta
    a12_full = vel.d_adj_full if params.approach == "otd" else vel.d_full.T
    # zero forcing and zero desired state
    r1_full = -(vel.m_full @ state.v) - a12_full @ state.zeta \
        - lvl.b_full.T @ state.mu - omega
    r2_full = -(vel.d_full @ state.v) - lvl.b_full.T @ state.p \
        + (1.0 / params.beta) * (vel.m_full @ state.zeta)
    pres = partial(assemble_pressure, mesh, dofmap, patches, quad, wind,
                   params.nu, lps_on=params.lps_on, stab_wind=stab_wind)

    a21 = restrict(vel.d_full + vel.h_full, dofmap)
    if params.approach == "otd":
        a12 = restrict(vel.d_adj_full + vel.h_full.T, dofmap)
    else:
        a12 = a21.T.tocsr()

    a11 = lvl.m
    if params.full_newton:
        curv = assemble_curvature_exact(mesh, dofmap, quad, state.zeta,
                                        params.approach)
        a11 = (a11 + curv).tocsr()
    a22 = (-(1.0 / params.beta) * lvl.m).tocsr()

    system = KktSystem(params=params, a11=a11, a12=a12, a21=a21, a22=a22,
                       b=lvl.b, rhs1=r1_full[keep], rhs2=r2_full[keep],
                       rhs_div1=-(lvl.b_full @ state.v),
                       rhs_div2=-(lvl.b_full @ state.zeta),
                       level_ops=lvl, pres=pres)
    return pin_pressure(system) if pin else system


# --------------------------------------------------------------------------
# small utilities
# --------------------------------------------------------------------------

def mass_eig_interval(quad, vals):
    """Eigenvalue interval of the Jacobi-scaled reference-element mass matrix
    of the space whose shape values at the quadrature points are `vals`
    (`quad.q2_vals` or `quad.q1_vals`).

    On a uniform mesh the assembled diagonal is the sum of element diagonals,
    so by a Rayleigh-quotient argument these element-level bounds contain the
    spectrum of diag(M)^-1 M (and of any principal submatrix of it).
    """
    m_e = np.einsum("q,qi,qj->ij", quad.weights, vals, vals)
    d = np.sqrt(np.diag(m_e))
    eigs = np.linalg.eigvalsh(m_e / np.outer(d, d))
    return float(eigs[0]), float(eigs[-1])
