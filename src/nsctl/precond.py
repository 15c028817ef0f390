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

import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import operators
from .grid_fem import build_dofmap, build_mesh, cell_stars, q2_prolongation
from .krylov import (Factorization, KrylovConfig, chebyshev_solve, factorize,
                     gmres)
from .operators import KktSystem

_IDEAL_GUARD = 20000


def _demean(x):
    return x - x.mean()


def _pinned_solve(fact, r):
    """Solve a pinned Neumann operator with zero-mean projection on both sides."""
    rt = _demean(np.asarray(r, dtype=np.float64))
    rt[0] = 0.0
    return _demean(fact.solve(rt))


# --------------------------------------------------------------------------
# geometric multigrid for the matching factors
# --------------------------------------------------------------------------

MG_COARSEST = 1                       # level whose Galerkin operator is LU-factorized
MG_SWEEPS = 2                         # pre-smoothing sweeps per level
INNER_ITERS = 5                       # inner GMRES steps per outer apply
REFINE_STEPS = 2                      # refinement steps per ideal block solve


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
    `mass` is the level record's M. `inv_21` and `inv_12` apply the
    inverses of the two factors: LU factorizations, or multigrid V-cycles
    in the production stack; `inv_12` is a weak proxy to the one its build
    thread holds. The factors themselves are not kept.
    """

    mass: sp.csr_matrix
    inv_21: object                    # Factorization | Multigrid of Psi2 + L
    inv_12: object                    # the same, of (Psi1 + L)^T


def _build_and_hold(held, build, a):
    """`build(a)` as a weak proxy; the only strong reference goes to `held`."""
    held.append(build(a))
    return weakref.proxy(held[0])


def build_matching(system: KktSystem, exact=True) -> MatchingSchur:
    """Matching factors, LU-factorized (`exact`) or applied by multigrid.

    The two inverses are independent, so `inv_12` is built in a worker
    thread while this thread builds `inv_21`; SuperLU and the numpy/scipy
    kernels release the GIL, so the builds overlap. An error from either
    build is raised here. On a level's first use both builds may fill the
    per-level geometry caches; the two results are equal, so either may
    stay. scipy's SuperLU wrapper frees memory only on the thread that
    allocated it, so the worker's inverse is dropped on the worker, when
    the result's finalizer shuts the worker down; the result holds it
    through a weak proxy.
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
    held, pool = [], ThreadPoolExecutor(max_workers=1)
    future_12 = pool.submit(_build_and_hold, held, build, mat_12)

    def stop():
        pool.submit(held.clear)      # drop the inverse on the worker thread
        pool.shutdown()

    try:
        inv_21 = build(mat_21)
        inv_12 = future_12.result()
    except BaseException:
        stop()
        raise
    ms = MatchingSchur(mass=m, inv_21=inv_21, inv_12=inv_12)
    # at interpreter exit the pool is already shut down: leave it be
    weakref.finalize(ms, stop).atexit = False
    return ms


def matching_apply(ms: MatchingSchur, rhs):
    """S~^-1 rhs = (Psi1 + L)^-T M (Psi2 + L)^-1 rhs (two solves, one multiply)."""
    return ms.inv_12.solve(ms.mass @ ms.inv_21.solve(rhs))


# --------------------------------------------------------------------------
# outer Schur approximations
# --------------------------------------------------------------------------

def al_outer_schur_apply(system: KktSystem, r1, r2):
    """Blockwise outer Schur inverse for the augmented system:
    [y1; y2] = [Kp^-1 r1 + g W^-1 r2; g W^-1 r1 - (1/beta) Kp^-1 r2], with
    the level's pinned-Kp LU and W = diag(Mp); it needs no set-up."""
    lvl, gamma = system.level_ops, system.params.gamma
    k1 = _pinned_solve(lvl.kp_pinned_lu, r1)
    k2 = _pinned_solve(lvl.kp_pinned_lu, r2)
    y1 = k1 + gamma * (r2 / lvl.mp_diag)
    y2 = gamma * (r1 / lvl.mp_diag) - k2 / system.params.beta
    return y1, y2


def bpcd_outer_schur_apply(stack: "PrecondStack", r1, r2):
    """Blockwise bpcd outer Schur inverse Mp_blk^-1 . D_p . Kp_blk^-1, with
    the level's pinned-Kp LU and Mp, the stack's Mp solve and D_p the
    step's pressure-space pair (`stack.outer`), applied by multiplication."""
    system, outer = stack.system, stack.outer
    lvl = system.level_ops
    u1 = _pinned_solve(lvl.kp_pinned_lu, r1)
    u2 = _pinned_solve(lvl.kp_pinned_lu, r2)
    t1 = lvl.mp @ u1 + outer.dp_adj @ u2
    t2 = outer.dp @ u1 - (lvl.mp @ u2) / system.params.beta
    return stack.mp_solve(t1), stack.mp_solve(t2)


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
        self._f_mat = system.momentum()
        self.f_fact = factorize(self._f_mat)
        b = system.b
        self.b_blk = sp.bmat([[b, None], [None, b]], format="csr")
        x = self.f_fact.solve(self.b_blk.T.toarray())
        self._sd = self.b_blk @ x
        self._schur_lu = sla.lu_factor(self._sd)

    def f_solve(self, r):
        """Momentum solve, polished by iterative refinement so the defective
        unit eigenvalue of the preconditioned matrix survives in floating
        point (its perturbation enters under a square root)."""
        z = self.f_fact.solve(r)
        for _ in range(REFINE_STEPS):
            z = z + self.f_fact.solve(r - self._f_mat @ z)
        return z

    def schur_solve(self, r):
        z = sla.lu_solve(self._schur_lu, r)
        for _ in range(REFINE_STEPS):
            z = z + sla.lu_solve(self._schur_lu, r - self._sd @ z)
        return z

    def apply(self, rhs, side="p2"):
        if side not in ("p1", "p2"):
            raise ValueError(f"side must be p1 or p2, got {side!r}")
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
    Chebyshev mass solve and the matching-strategy Schur approximation.
    `system` is the form of the step system the stack solves."""

    kind: str                         # "al" | "bpcd" | "ideal"
    system: KktSystem
    matching: MatchingSchur = None
    outer: object = None              # PressureOperators | IdealPrecond; None for "al"
    mass_solve: callable = None       # action of M^-1 on one velocity block
    mp_solve: callable = None         # action of Mp^-1 ("bpcd" only)


def build_precond(system: KktSystem, kind="al",
                  exact_blocks=False) -> PrecondStack:
    """Assemble factorizations and solvers for the requested preconditioner.

    `system` is the plain step system (`build_kkt` without `pin`); the stack
    derives the form it solves from it: "al" augments it, "ideal" pins it,
    "bpcd" solves it as it is and assembles its pressure-space pair.
    Everything that depends on the level alone comes from `system.level_ops`:
    M, Mp, Kp, their Chebyshev solvers, and the LUs of the pinned Kp and of
    the exact mass solves. The stack holds only what the step builds.
    `exact_blocks` replaces the Chebyshev and multigrid solves by LU."""
    if kind not in ("al", "bpcd", "ideal"):
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if system.pinned:
        raise ValueError("build_precond takes the unpinned step system")
    if kind == "ideal":
        system = operators.pin_pressure(system)
        return PrecondStack(kind=kind, system=system,
                            outer=IdealPrecond(system))
    if kind == "al":
        # looked up on the module, so that a wrapper installed there sees it
        system = operators.augment(system, system.params.gamma)

    lvl = system.level_ops
    stack = PrecondStack(kind=kind, system=system, mass_solve=(
        lvl.m_lu.solve if exact_blocks
        else lambda b: chebyshev_solve(lvl.m_cheb, b)))
    if kind == "bpcd":
        stack.outer = system.pres()
        stack.mp_solve = (lvl.mp_lu.solve if exact_blocks
                          else lambda b: chebyshev_solve(lvl.mp_cheb, b))
    stack.matching = build_matching(system, exact=exact_blocks)
    return stack


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
        y1, y2 = al_outer_schur_apply(system, r_mu, r_p)
    else:
        y1, y2 = bpcd_outer_schur_apply(stack, r_mu, r_p)
    z_mu, z_p = -y1, -y2

    bt = system.b.T
    t_m = r_m - np.concatenate([bt @ z_mu, bt @ z_p])
    cfg = KrylovConfig(fixed_iters=INNER_ITERS)
    z_m, _ = gmres(system.momentum_matvec,
                   lambda x: inner_p1_apply(stack, x), t_m, cfg)
    return np.concatenate([z_m, z_mu, z_p])
