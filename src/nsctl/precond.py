"""Nested block preconditioners for the coupled Newton-step system.

The outer preconditioner is upper block-triangular: an approximate Schur
complement on the two pressure blocks (augmented-Lagrangian or block pressure
convection-diffusion), followed by a momentum correction solved by a fixed
number of GMRES iterations. The momentum solve itself is preconditioned by a
lower block-triangular operator built from a Chebyshev mass solve and the
matching-strategy Schur approximation, whose two factors are applied by
geometric multigrid (or LU with `exact_blocks`). Ideal (exact-block)
preconditioners are provided for verification at desk scale.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grid_fem import build_dofmap, build_mesh, cell_stars, q2_prolongation
from .krylov import (ChebyshevMassSolver, Factorization, KrylovConfig,
                     chebyshev_solve, factorize, gmres)
from .operators import KktSystem, augment

__all__ = [
    "MatchingSchur", "AlOuterSchur", "BpcdOuterSchur", "PrecondStack",
    "IdealPrecond", "Multigrid", "augment", "build_matching",
    "build_multigrid", "build_precond",
    "matching_apply", "matching_forward", "inner_p1_apply",
    "al_outer_schur_apply", "bpcd_outer_schur_apply", "outer_p2_apply",
]

log = logging.getLogger("nsctl.precond")

_IDEAL_GUARD = 20000


def _demean(x):
    return x - x.mean()


def _pin_matrix(a):
    """Replace row/column 0 by the unit vector, making a Neumann operator
    invertible while leaving the remaining equations untouched."""
    n = a.shape[0]
    mask = np.ones(n)
    mask[0] = 0.0
    d = sp.diags(mask)
    e00 = sp.coo_matrix(([1.0], ([0], [0])), shape=(n, n))
    return (d @ a @ d + e00).tocsr()


def _pinned_solve(fact, r):
    """Solve a pinned Neumann operator with zero-mean projection on both sides."""
    rt = _demean(np.asarray(r, dtype=np.float64))
    rt[0] = 0.0
    return _demean(fact.solve(rt))


def _mass_solve(matrix, interval, exact):
    """Action of a mass matrix's inverse: its LU solve with `exact`,
    otherwise CHEB_STEPS Chebyshev steps on the Jacobi-scaled spectrum
    bounds `interval`."""
    if exact:
        return factorize(matrix).solve
    cheb = ChebyshevMassSolver(matrix=matrix, interval=interval,
                               steps=CHEB_STEPS)
    return lambda b: chebyshev_solve(cheb, b)


# --------------------------------------------------------------------------
# geometric multigrid for the matching factors
# --------------------------------------------------------------------------

MG_COARSEST = 1                       # level whose Galerkin operator is LU-factorized
MG_SWEEPS = 2                         # pre-smoothing sweeps per level
INNER_ITERS = 5                       # inner GMRES steps per outer apply
CHEB_STEPS = 20                       # Chebyshev steps per mass solve


@lru_cache(maxsize=None)
def _velocity_prolongation(level):
    """Q2 interpolation of interior interleaved velocity dofs, level-1 -> level.

    Cached per level, so its arrays are read-only.
    """
    p = sp.kron(q2_prolongation(level), sp.eye(2), format="csr")
    fine = build_dofmap(build_mesh(level)).interior_vdofs
    coarse = build_dofmap(build_mesh(level - 1)).interior_vdofs
    p = p[fine][:, coarse].tocsr()
    for a in (p.data, p.indices, p.indptr):
        a.flags.writeable = False
    return p


@dataclass
class StarSmoother:
    """Exact local solves of one operator on one group of disjoint stars."""

    dofs: np.ndarray                  # (n_stars, k) star dof ids
    rows: sp.csr_matrix               # the operator's rows at dofs.ravel()
    inv: np.ndarray                   # (n_stars, k, k) inverse star blocks

    def update(self, b, x):
        """x += sum_i R_i^T A_i^-1 R_i (b - A x), in place; the stars of a
        group are disjoint, so their corrections do not interfere."""
        r = b[self.dofs] - (self.rows @ x).reshape(self.dofs.shape)
        x[self.dofs] += (self.inv @ r[:, :, None])[:, :, 0]


def _star_smoothers(a, level):
    out = []
    for d in cell_stars(level):
        k = d.shape[1]
        blocks = a[np.repeat(d, k, axis=1).ravel(), np.tile(d, (1, k)).ravel()]
        out.append(StarSmoother(
            dofs=d, rows=a[d.ravel()],
            inv=np.linalg.inv(np.asarray(blocks).reshape(-1, k, k))))
    return out


@dataclass
class Multigrid:
    """One V(2,0)-cycle for a matching factor on the nested uniform meshes.

    ops[k] is the operator on level `level - k`: the factor itself, then
    Galerkin products P^T A P with the Q2 prolongations P; the last one is
    LU-factorized. On every other level the cycle runs MG_SWEEPS sweeps over
    the star groups (multiplicative across groups), then adds the coarse
    correction; there is no post-smoothing. The cycle is a fixed linear
    operator, so the inner GMRES that applies it is GMRES on a fixed
    preconditioned matrix.
    """

    ops: list
    prolongations: list
    smoothers: list
    coarse: Factorization

    def solve(self, b):
        return self._cycle(0, np.asarray(b, dtype=np.float64))

    def _cycle(self, k, b):
        if k == len(self.prolongations):
            return self.coarse.solve(b)
        x = np.zeros_like(b)
        for _ in range(MG_SWEEPS):
            for s in self.smoothers[k]:
                s.update(b, x)
        p = self.prolongations[k]
        return x + p @ self._cycle(k + 1, p.T @ (b - self.ops[k] @ x))


def build_multigrid(a, level) -> Multigrid:
    """Galerkin hierarchy for the level-`level` interior velocity operator `a`."""
    ops, prolongations, smoothers = [a.tocsr()], [], []
    for l in range(level, MG_COARSEST, -1):
        p = _velocity_prolongation(l)
        smoothers.append(_star_smoothers(ops[-1], l))
        prolongations.append(p)
        ops.append((p.T @ ops[-1] @ p).tocsr())
    return Multigrid(ops=ops, prolongations=prolongations, smoothers=smoothers,
                     coarse=factorize(ops[-1]))


# --------------------------------------------------------------------------
# matching strategy (inner Schur approximation)
# --------------------------------------------------------------------------

@dataclass
class MatchingSchur:
    """Schur approximation S~ = (Psi2 + L) Phi^-1 (Psi1 + L)^T with L = M/sqrt(beta).

    Psi2 is the (2,1) momentum block and Psi1^T the (1,2) block of the
    (augmented, if applicable) system; the choice of L makes
    L Phi^-1 L^T match the (1/beta) M term of the exact Schur complement.
    `inv_21` and `inv_12` apply the inverses of the two factors: LU
    factorizations, or multigrid V-cycles in the production stack.
    """

    mass: sp.csr_matrix
    mat_21: sp.csr_matrix             # Psi2 + L
    mat_12: sp.csr_matrix             # (Psi1 + L)^T
    inv_21: object                    # Factorization | Multigrid
    inv_12: object
    _mass_fact: Factorization = field(default=None, repr=False)


def build_matching(system: KktSystem, exact=True) -> MatchingSchur:
    """Matching factors, LU-factorized (`exact`) or applied by multigrid.

    The two inverses are independent, so `inv_12` is built in a worker
    thread while this thread builds `inv_21`; SuperLU and the numpy/scipy
    kernels release the GIL, so the builds overlap. The worker is joined
    before this returns, and an error from either build is raised here. On
    a level's first use both builds may fill the per-level geometry caches;
    the two results are equal, so either may stay.
    """
    m = system.level_ops.m
    lam = (m / np.sqrt(system.params.beta)).tocsr()
    mat_21 = (system.a21 + lam).tocsr()
    mat_12 = (system.a12 + lam).tocsr()
    if exact:
        build = factorize
    else:
        level = system.level_ops.level
        build = lambda a: build_multigrid(a, level)  # noqa: E731
    with ThreadPoolExecutor(max_workers=1) as pool:
        future_12 = pool.submit(build, mat_12)
        inv_21 = build(mat_21)
        inv_12 = future_12.result()
    return MatchingSchur(mass=m, mat_21=mat_21, mat_12=mat_12,
                         inv_21=inv_21, inv_12=inv_12)


def matching_apply(ms: MatchingSchur, rhs):
    """S~^-1 rhs = (Psi1 + L)^-T M (Psi2 + L)^-1 rhs (two solves, one multiply)."""
    return ms.inv_12.solve(ms.mass @ ms.inv_21.solve(rhs))


def matching_forward(ms: MatchingSchur, x):
    """S~ x, the explicitly applied approximation (used for round-trip checks)."""
    if ms._mass_fact is None:
        ms._mass_fact = factorize(ms.mass)
    return ms.mat_21 @ ms._mass_fact.solve(ms.mat_12 @ x)


# --------------------------------------------------------------------------
# outer Schur approximations
# --------------------------------------------------------------------------

@dataclass
class AlOuterSchur:
    """Blockwise outer Schur inverse for the augmented system:
    [y1; y2] = [Kp^-1 r1 + g W^-1 r2; g W^-1 r1 - (1/beta) Kp^-1 r2]."""

    kp_fact: Factorization            # pinned pressure Laplacian
    w_diag: np.ndarray                # W = diag(Mp), the level's (read-only)
    gamma: float
    beta: float


def build_al_outer(system: KktSystem) -> AlOuterSchur:
    lvl = system.level_ops
    return AlOuterSchur(kp_fact=factorize(_pin_matrix(lvl.kp)),
                        w_diag=lvl.mp_diag,
                        gamma=system.params.gamma, beta=system.params.beta)


def al_outer_schur_apply(s: AlOuterSchur, r1, r2):
    k1 = _pinned_solve(s.kp_fact, r1)
    k2 = _pinned_solve(s.kp_fact, r2)
    y1 = k1 + s.gamma * (r2 / s.w_diag)
    y2 = s.gamma * (r1 / s.w_diag) - k2 / s.beta
    return y1, y2


@dataclass
class BpcdOuterSchur:
    """Commutator-based outer Schur inverse Mp_blk^-1 . D_p . Kp_blk^-1.

    D_p carries the pressure-space analogues of the momentum operators with
    the Newton matrices omitted; it is applied by multiplication.
    """

    kp_fact: Factorization            # pinned pressure Laplacian
    mp: sp.csr_matrix
    dp_od: sp.csr_matrix              # nu Kp - Np + Wp (the (1,2) entry)
    dp_do: sp.csr_matrix              # nu Kp + Np + Wp (the (2,1) entry)
    beta: float
    mp_solve: callable                # action of Mp^-1 (Chebyshev or direct)


def build_bpcd_outer(system: KktSystem, exact_blocks=False) -> BpcdOuterSchur:
    lvl, pres = system.level_ops, system.pres
    base = (system.params.nu * lvl.kp + pres.wp).tocsr()
    mp_solve = _mass_solve(lvl.mp, lvl.mp_interval, exact_blocks)
    return BpcdOuterSchur(kp_fact=factorize(_pin_matrix(lvl.kp)),
                          mp=lvl.mp,
                          dp_od=(base - pres.np_conv).tocsr(),
                          dp_do=(base + pres.np_conv).tocsr(),
                          beta=system.params.beta, mp_solve=mp_solve)


def bpcd_outer_schur_apply(s: BpcdOuterSchur, r1, r2):
    u1 = _pinned_solve(s.kp_fact, r1)
    u2 = _pinned_solve(s.kp_fact, r2)
    t1 = s.mp @ u1 + s.dp_od @ u2
    t2 = s.dp_do @ u1 - (s.mp @ u2) / s.beta
    return s.mp_solve(t1), s.mp_solve(t2)


# --------------------------------------------------------------------------
# ideal preconditioners (verification only)
# --------------------------------------------------------------------------

class IdealPrecond:
    """Exact block-triangular preconditioner with direct momentum and dense
    Schur solves; desk-scale verification only."""

    def __init__(self, system: KktSystem):
        if system.dim > _IDEAL_GUARD:
            raise ValueError(f"ideal preconditioner refused: dimension "
                             f"{system.dim} exceeds {_IDEAL_GUARD}")
        if not system.pinned:
            raise ValueError("ideal preconditioner needs a pinned system")
        self.system = system
        self._f_mat = system.momentum().tocsr()
        self.f_fact = factorize(self._f_mat)
        b = system.b
        self.b_blk = sp.bmat([[b, None], [None, b]], format="csr")
        x = self.f_fact.solve(self.b_blk.T.toarray())
        self._sd = self.b_blk @ x
        self._schur_lu = sla.lu_factor(self._sd)

    def f_solve(self, r, refine=2):
        """Momentum solve, polished by iterative refinement so the defective
        unit eigenvalue of the preconditioned matrix survives in floating
        point (its perturbation enters under a square root)."""
        z = self.f_fact.solve(r)
        for _ in range(refine):
            z = z + self.f_fact.solve(r - self._f_mat @ z)
        return z

    def schur_solve(self, r, refine=2):
        z = sla.lu_solve(self._schur_lu, r)
        for _ in range(refine):
            z = z + sla.lu_solve(self._schur_lu, r - self._sd @ z)
        return z

    def apply(self, rhs, side="p2"):
        side = side.lower()
        if side not in ("p1", "p2"):
            raise ValueError(f"side must be P1 or P2, got {side!r}")
        nm = 2 * self.system.n_v
        r_m, r_p = rhs[:nm], rhs[nm:]
        if side == "p1":
            z_m = self.f_solve(r_m)
            z_p = -self.schur_solve(r_p - self.b_blk @ z_m)
        else:
            z_p = -self.schur_solve(r_p)
            z_m = self.f_solve(r_m - self.b_blk.T @ z_p)
        return np.concatenate([z_m, z_p])


# --------------------------------------------------------------------------
# the configured stack
# --------------------------------------------------------------------------

@dataclass
class PrecondStack:
    """Configured nested preconditioner: outer Schur approximation + fixed
    inner GMRES on the momentum block, which is preconditioned by the
    Chebyshev mass solve and the matching-strategy Schur approximation."""

    kind: str                         # "al" | "bpcd" | "ideal"
    system: KktSystem
    momentum: sp.csr_matrix
    matching: MatchingSchur = None
    outer: object = None              # AlOuterSchur | BpcdOuterSchur | IdealPrecond
    mass_solve: callable = None       # action of M^-1 on one velocity block


def build_precond(system: KktSystem, kind="al",
                  exact_blocks=False) -> PrecondStack:
    """Assemble factorizations and solvers for the requested preconditioner;
    the level, its mass matrices and their Chebyshev intervals come from
    `system.level_ops`. `exact_blocks` replaces the Chebyshev and multigrid
    solves by LU."""
    kind = kind.lower()
    if kind == "ideal":
        return PrecondStack(kind=kind, system=system,
                            momentum=system.momentum(),
                            outer=IdealPrecond(system))
    if kind not in ("al", "bpcd"):
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if system.pinned:
        raise ValueError("al/bpcd stacks operate on the unpinned system")
    if kind == "al" and not system.augmented:
        raise ValueError("the al preconditioner expects an augmented system")
    if kind == "bpcd" and system.augmented:
        raise ValueError("the bpcd preconditioner expects an unaugmented system")

    lvl = system.level_ops
    mass_solve = _mass_solve(lvl.m, lvl.m_interval, exact_blocks)
    if kind == "al":
        outer = build_al_outer(system)
    else:
        outer = build_bpcd_outer(system, exact_blocks=exact_blocks)

    return PrecondStack(kind=kind, system=system, momentum=system.momentum(),
                        matching=build_matching(system, exact=exact_blocks),
                        outer=outer, mass_solve=mass_solve)


def inner_p1_apply(stack: PrecondStack, rhs):
    """Lower block-triangular momentum preconditioner: mass solve on the first
    block, then the (negative) matching Schur solve on the corrected second."""
    nv = stack.system.n_v
    s1, s2 = rhs[:nv], rhs[nv:]
    z1 = stack.mass_solve(s1)
    z2 = -matching_apply(stack.matching, s2 - stack.system.a21 @ z1)
    return np.concatenate([z1, z2])


def outer_p2_apply(stack: PrecondStack, rhs):
    """Upper block-triangular outer preconditioner: (negative) Schur solve on
    the pressure blocks, momentum correction, then the fixed inner GMRES.

    The inner Krylov solve makes this operator vary between calls, so the
    outer iteration must be flexible.
    """
    if stack.kind == "ideal":
        return stack.outer.apply(rhs, side="p2")

    system = stack.system
    nm = 2 * system.n_v
    npp = system.n_p
    r_m = rhs[:nm]
    r_mu, r_p = rhs[nm:nm + npp], rhs[nm + npp:]

    if stack.kind == "al":
        y1, y2 = al_outer_schur_apply(stack.outer, r_mu, r_p)
    else:
        y1, y2 = bpcd_outer_schur_apply(stack.outer, r_mu, r_p)
    z_mu, z_p = -y1, -y2

    bt = system.b.T
    t_m = r_m - np.concatenate([bt @ z_mu, bt @ z_p])
    cfg = KrylovConfig(fixed_iters=INNER_ITERS)
    z_m, _ = gmres(lambda x: stack.momentum @ x,
                   lambda x: inner_p1_apply(stack, x), t_m, cfg)
    return np.concatenate([z_m, z_mu, z_p])
