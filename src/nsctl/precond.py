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
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import operators
from .grid_fem import cell_stars, q2_prolongation
from .krylov import Factorization, chebyshev_solve, factorize, gmres
from .operators import KktSystem

_IDEAL_GUARD = 20000


# --------------------------------------------------------------------------
# geometric multigrid for the matching factors
# --------------------------------------------------------------------------

MG_COARSEST = 1                       # level whose Galerkin operator is LU-factorized
MG_SWEEPS = 2                         # pre-smoothing sweeps per level
INNER_ITERS = 5                       # inner GMRES steps per outer apply
REFINE_STEPS = 2                      # refinement steps per ideal block solve


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
        p = q2_prolongation(l)
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


def build_matching(system: KktSystem) -> MatchingSchur:
    """Matching factors, LU-factorized with `exact_blocks`, else multigrid.

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
    build = (factorize if system.params.exact_blocks
             else partial(build_multigrid, level=system.level_ops.level))
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
    the level's Kp solve and W = diag(Mp); it needs no set-up."""
    lvl, gamma = system.level_ops, system.params.gamma
    k1, k2 = lvl.kp_solve(r1), lvl.kp_solve(r2)
    y1 = k1 + gamma * (r2 / lvl.mp_diag)
    y2 = gamma * (r1 / lvl.mp_diag) - k2 / system.params.beta
    return y1, y2


def bpcd_outer_schur_apply(system: KktSystem, pres, mp_solve, r1, r2):
    """Blockwise bpcd outer Schur inverse Mp_blk^-1 . D_p . Kp_blk^-1, with
    the level's Kp solve and Mp, the Mp solve `mp_solve` and D_p the
    step's pressure-space pair `pres`, applied by multiplication."""
    lvl = system.level_ops
    u1, u2 = lvl.kp_solve(r1), lvl.kp_solve(r2)
    t1 = lvl.mp @ u1 + pres.dp_adj @ u2
    t2 = pres.dp @ u1 - (lvl.mp @ u2) / system.params.beta
    return mp_solve(t1), mp_solve(t2)


# --------------------------------------------------------------------------
# ideal preconditioners (verification only)
# --------------------------------------------------------------------------

def _refined(solve, a, r):
    """`solve(r)` polished by REFINE_STEPS steps of iterative refinement
    against the matrix `a` that `solve` inverts."""
    z = solve(r)
    for _ in range(REFINE_STEPS):
        z = z + solve(r - a @ z)
    return z


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
        f_mat = system.momentum()
        f_fact = factorize(f_mat)
        b = system.b
        self.b_blk = sp.bmat([[b, None], [None, b]], format="csr")
        sd = self.b_blk @ f_fact.solve(self.b_blk.T.toarray())
        # both solves are refined, so that the defective unit eigenvalue of
        # the preconditioned matrix survives in floating point (its
        # perturbation enters under a square root)
        self.f_solve = partial(_refined, f_fact.solve, f_mat)
        self.schur_solve = partial(
            _refined, partial(sla.lu_solve, sla.lu_factor(sd)), sd)

    def apply(self, rhs, side="p2"):
        if side not in ("p1", "p2"):
            raise ValueError(f"side must be p1 or p2, got {side!r}")
        r_v, r_z, r_mu, r_p = self.system.split(rhs)
        r_m, r_p = np.concatenate([r_v, r_z]), np.concatenate([r_mu, r_p])
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

    system: KktSystem
    outer_schur: callable             # (r1, r2) -> (y1, y2), the outer Schur inverse
    mass_solve: callable              # action of M^-1 on one velocity block
    matching: MatchingSchur


def build_precond(system: KktSystem) -> PrecondStack | IdealPrecond:
    """Assemble factorizations and solvers for the stack `params.precond`.

    `system` is the plain step system (`build_kkt` without `pin`); the stack
    derives the form it solves from it: "al" augments it, "bpcd" solves it as
    it is and assembles its pressure-space pair, "ideal" is the
    `IdealPrecond` of the pinned system.
    Everything that depends on the level alone comes from `system.level_ops`:
    M, Mp, Kp, their Chebyshev solvers, and the LUs of the pinned Kp and of
    the exact mass solves. The stack holds only what the step builds.
    `params.exact_blocks` replaces the Chebyshev and multigrid solves by LU."""
    if system.pinned:
        raise ValueError("build_precond takes the unpinned step system")
    lvl, params = system.level_ops, system.params
    if params.precond == "ideal":
        return IdealPrecond(operators.pin_pressure(system))

    # looked up at each build, so that a wrapper installed on a module sees it
    if params.precond == "al":
        system = operators.augment(system)
        outer_schur = partial(al_outer_schur_apply, system)
    else:
        mp_solve = (lvl.mp_lu.solve if params.exact_blocks
                    else lambda b: chebyshev_solve(lvl.mp_cheb, b))
        outer_schur = partial(bpcd_outer_schur_apply, system, system.pres(),
                              mp_solve)
    return PrecondStack(
        system=system, outer_schur=outer_schur,
        mass_solve=(lvl.m_lu.solve if params.exact_blocks
                    else lambda b: chebyshev_solve(lvl.m_cheb, b)),
        matching=build_matching(system))


def inner_p1_apply(stack: PrecondStack, rhs):
    """Lower block-triangular momentum preconditioner: mass solve on the first
    block, then the (negative) matching Schur solve on the corrected second."""
    nv = stack.system.n_v
    s1, s2 = rhs[:nv], rhs[nv:]
    z1 = stack.mass_solve(s1)
    z2 = -matching_apply(stack.matching, s2 - stack.system.a21 @ z1)
    return np.concatenate([z1, z2])


def outer_p2_apply(stack: PrecondStack | IdealPrecond, rhs):
    """Upper block-triangular outer preconditioner: (negative) Schur solve on
    the pressure blocks, momentum correction, then the fixed inner GMRES;
    an ideal stack applies its exact upper triangle instead.

    The inner Krylov solve makes this operator vary between calls, so the
    outer iteration must be flexible.
    """
    if isinstance(stack, IdealPrecond):
        return stack.apply(rhs, side="p2")

    system = stack.system
    r_v, r_z, r_mu, r_p = system.split(rhs)
    y1, y2 = stack.outer_schur(r_mu, r_p)
    z_mu, z_p = -y1, -y2

    bt = system.b.T
    t_m = np.concatenate([r_v - bt @ z_mu, r_z - bt @ z_p])
    z_m, _ = gmres(system.momentum_matvec,
                   lambda x: inner_p1_apply(stack, x), t_m,
                   fixed_iters=INNER_ITERS)
    return np.concatenate([z_m, z_mu, z_p])
