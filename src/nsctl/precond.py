"""Nested block preconditioners for the coupled Newton-step system.

The outer preconditioner is upper block-triangular: an approximate Schur
complement on the two pressure blocks (augmented-Lagrangian or block pressure
convection-diffusion), followed by a momentum correction solved by a fixed
number of GMRES iterations. The momentum solve itself is preconditioned by a
lower block-triangular operator built from a Chebyshev mass solve and the
matching-strategy Schur approximation, whose two factors are applied by
geometric multigrid (or LU with `exact_blocks`). Every stack is one
`PrecondStack` of its system, outer Schur inverse and momentum solve; the
ideal one, for verification at desk scale, solves both blocks exactly.
"""

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
# the raw kernel behind scipy's CSR mat-vec: y += A x, without the dispatch
from scipy.sparse._sparsetools import csr_matvec

from . import operators
from .grid_fem import cell_stars, q2_prolongation, read_only
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
    rows: sp.csr_matrix               # [-A[D, not D] | I_D] of each star D
    inv: np.ndarray                   # (n_stars, k, k) inverses of A[D, D]

    def update(self, w):
        """x[D] = A[D, D]^-1 (b[D] - A[D, not D] x) for every star D, in
        place on the work vector w = [x; b]; the stars of a group are
        disjoint, so they do not interfere. Each row's b[D] entry comes
        last and rounding is sign-symmetric, so the kernel's sum into zeros
        is b[D] - A[D, not D] x bit for bit."""
        r, rows = np.zeros(self.dofs.size), self.rows
        csr_matvec(r.size, w.size, rows.indptr, rows.indices, rows.data, w, r)
        w[self.dofs] = (self.inv @ r.reshape(self.dofs.shape + (1,)))[:, :, 0]


def _plan_stars(a, level):
    """Per star group of the level: its dofs, the positions in `a.data` and
    the int32 column indices and row pointers of its rows
    [-A[D, not D] | I_D] over [x; b], position -1 standing for each row's
    closing identity entry, and the positions of its (n_stars, k, k)
    blocks, -1 where `a` has no entry."""
    plan = []
    for d in cell_stars(level):
        k, rows = d.shape[1], d.ravel()
        start, length = a.indptr[rows], np.diff(a.indptr)[rows]
        pos = np.arange(length.sum()) + np.repeat(
            start - np.cumsum(length) + length, length)
        row = np.repeat(np.arange(d.size), length)
        slot = np.full(a.shape[0], -1)
        slot[rows] = np.arange(d.size)
        place = slot[a.indices[pos]]             # star * k + place in it
        own = place // k == row // k
        block = np.full(d.size * k, -1, dtype=np.int32)
        block[row[own] * k + place[own] % k] = pos[own]
        off = pos[~own].astype(np.int32)
        ends = np.cumsum(np.bincount(row[~own], minlength=d.size))
        indptr = np.zeros(d.size + 1, dtype=np.int32)
        indptr[1:] = ends + np.arange(1, d.size + 1)
        group = (np.insert(off, ends, -1),
                 np.insert(a.indices[off].astype(np.int32), ends,
                           a.shape[0] + rows),
                 indptr, block.reshape(d.shape + (k,)))
        read_only(*group)
        plan.append((d,) + group)
    return plan


_star_plans, _star_plans_lock = {}, threading.Lock()  # level: pattern, plan


def _star_plan(a, level):
    """The level's one star plan, made again when the pattern of `a` is not
    its own (the Stokes step's, another case's); under the lock, a plan
    that both factor builds ask for is made once."""
    with _star_plans_lock:
        indptr, indices, plan = _star_plans.pop(level, (None, None, None))
        if not (np.array_equal(indptr, a.indptr)
                and np.array_equal(indices, a.indices)):
            del plan                  # free the stale plan before planning
            indptr, indices = a.indptr.copy(), a.indices.copy()
            plan = _plan_stars(a, level)
        _star_plans[level] = indptr, indices, plan
    return plan


def _star_smoothers(a, level):
    data = np.append(a.data, 0.0)    # [-1] stands for an absent entry
    rows = np.append(-a.data, 1.0)   # [-1] stands for the b[D] entry
    return [StarSmoother(dofs=d, inv=np.linalg.inv(data[block]),
                         rows=sp.csr_matrix((rows[pos], indices, indptr),
                                            shape=(d.size, 2 * a.shape[1])))
            for d, pos, indices, indptr, block in _star_plan(a, level)]


@dataclass
class Multigrid:
    """One V(2,0)-cycle for a matching factor on the nested uniform meshes.

    ops[k] is the operator on level `level - k`: the factor itself, then
    Galerkin products P^T A P with the Q2 prolongations P, whose CSR
    transposes are the restrictions; the last one is LU-factorized. On
    every other level the cycle runs MG_SWEEPS sweeps over the star groups
    (multiplicative across groups) on the work vector [x; b], then adds the
    coarse correction; there is no post-smoothing. The cycle is a fixed
    linear operator, so the inner GMRES that applies it is GMRES on a fixed
    preconditioned matrix.
    """

    ops: list
    prolongations: list
    restrictions: list
    smoothers: list
    coarse: Factorization

    def solve(self, b):
        if b.shape != (self.ops[0].shape[0],):  # the kernel reads w unchecked
            raise ValueError(f"right-hand side of shape {b.shape}, expected "
                             f"({self.ops[0].shape[0]},)")
        return self._cycle(0, b)

    def _cycle(self, k, b):
        if k == len(self.prolongations):
            return self.coarse.solve(b)
        w = np.concatenate([np.zeros_like(b), b])
        for _ in range(MG_SWEEPS):
            for s in self.smoothers[k]:
                s.update(w)
        x = w[:b.size]
        r = self.restrictions[k] @ (b - self.ops[k] @ x)
        return x + self.prolongations[k] @ self._cycle(k + 1, r)


def build_multigrid(a, level) -> Multigrid:
    """Galerkin hierarchy for the level-`level` interior velocity operator
    `a`, a CSR matrix in canonical format (sorted, no duplicate entries):
    the star plans gather its entries by position."""
    ops, prolongations, smoothers = [a], [], []
    for l in range(level, MG_COARSEST, -1):
        p = q2_prolongation(l)
        smoothers.append(_star_smoothers(ops[-1], l))
        prolongations.append(p)
        ops.append((p.T @ ops[-1] @ p).tocsr())
    return Multigrid(ops=ops, prolongations=prolongations,
                     restrictions=[p.T.tocsr() for p in prolongations],
                     smoothers=smoothers, coarse=factorize(ops[-1]))


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


def build_matching(system: KktSystem) -> MatchingSchur:
    """Matching factors, LU-factorized with `exact_blocks`, else multigrid.

    The two inverses are independent, so `inv_12` is built in a worker
    thread while this thread builds `inv_21`; SuperLU and scipy's CSR
    mat-vec kernel release the GIL, the Python between them does not, so
    the builds overlap in part. An error from either build is raised here.
    On a level's first use both builds may fill the per-level geometry
    caches; the two results are equal, so either may stay; the star plans
    are made once. scipy's SuperLU wrapper frees memory only on the thread
    that allocated it, so the worker's inverse is dropped on the worker,
    when the result's finalizer shuts the worker down; the result holds it
    through a weak proxy.
    """
    m = system.level_ops.m
    lam = (m / np.sqrt(system.params.beta)).tocsr()
    mat_21 = (system.a21 + lam).tocsr()
    mat_12 = (system.a12 + lam).tocsr()
    build = (factorize if system.params.exact_blocks
             else partial(build_multigrid, level=system.level_ops.level))
    if not system.params.exact_blocks:
        # plan the finest level here: planned on the worker, it raised peak RSS
        _star_plan(mat_21, system.level_ops.level)
    held, pool = [], ThreadPoolExecutor(max_workers=1)
    future_12 = pool.submit(lambda: held.append(build(mat_12)))

    def stop():
        pool.submit(held.clear)      # drop the inverse on the worker thread
        pool.shutdown()

    try:
        inv_21 = build(mat_21)
        future_12.result()
    except BaseException:
        stop()
        raise
    ms = MatchingSchur(mass=m, inv_21=inv_21, inv_12=weakref.proxy(held[0]))
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
# the stacks
# --------------------------------------------------------------------------

@dataclass
class PrecondStack:
    """Upper block-triangular preconditioner of one step system: the outer
    Schur inverse on the two pressure blocks, then the momentum block's
    inverse on the corrected momentum blocks (see `outer_p2_apply`).
    `system` is the form of the step system the stack solves."""

    system: KktSystem
    outer_schur: callable             # (r1, r2) -> (y1, y2), the outer Schur inverse
    momentum_solve: callable          # t -> the momentum block's inverse on t


def _refined(solve, a, r):
    """`solve(r)` polished by REFINE_STEPS steps of iterative refinement
    against the matrix `a` that `solve` inverts."""
    z = solve(r)
    for _ in range(REFINE_STEPS):
        z = z + solve(r - a @ z)
    return z


def _split_solve(solve, r1, r2):
    """`solve` of the stacked pair (r1, r2), split into its two blocks."""
    y = solve(np.concatenate([r1, r2]))
    return y[:r1.size], y[r1.size:]


def _ideal_stack(system: KktSystem) -> PrecondStack:
    """Exact stack of the pinned `system`, for verification at desk scale:
    the refined LU of the momentum block F and the refined dense LU of the
    Schur complement Bblk F^-1 Bblk^T on the two pressure blocks."""
    if system.dim > _IDEAL_GUARD:
        raise ValueError(f"ideal preconditioner refused: dimension "
                         f"{system.dim} exceeds {_IDEAL_GUARD}")
    f_mat = system.momentum()
    f_fact = factorize(f_mat)
    b_blk = sp.bmat([[system.b, None], [None, system.b]], format="csr")
    sd = b_blk @ f_fact.solve(b_blk.T.toarray())
    # both solves are refined, so that the defective unit eigenvalue of the
    # preconditioned matrix survives in floating point (its perturbation
    # enters under a square root)
    schur_solve = partial(_refined, partial(sla.lu_solve, sla.lu_factor(sd)),
                          sd)
    return PrecondStack(system=system,
                        outer_schur=partial(_split_solve, schur_solve),
                        momentum_solve=partial(_refined, f_fact.solve, f_mat))


def build_precond(system: KktSystem) -> PrecondStack:
    """Assemble factorizations and solvers for the stack `params.precond`.

    `system` is the plain step system (`build_kkt` without `pin`); the stack
    derives the form it solves from it: "al" augments it, "bpcd" solves it as
    it is and assembles its pressure-space pair, "ideal" pins it and solves
    both blocks exactly (`_ideal_stack`).
    Everything that depends on the level alone comes from `system.level_ops`:
    M, Mp, Kp, their Chebyshev solvers, and the LUs of the pinned Kp and of
    the exact mass solves. The stack holds only what the step builds.
    `params.exact_blocks` replaces the Chebyshev and multigrid solves by LU."""
    if system.pinned:
        raise ValueError("build_precond takes the unpinned step system")
    lvl, params = system.level_ops, system.params
    if params.precond == "ideal":
        return _ideal_stack(operators.pin_pressure(system))

    # looked up at each build, so that a wrapper installed on a module sees it
    if params.precond == "al":
        system = operators.augment(system)
        outer_schur = partial(al_outer_schur_apply, system)
    else:
        mp_solve = (lvl.mp_lu.solve if params.exact_blocks
                    else lambda b: chebyshev_solve(lvl.mp_cheb, b))
        outer_schur = partial(bpcd_outer_schur_apply, system, system.pres(),
                              mp_solve)
    mass_solve = (lvl.m_lu.solve if params.exact_blocks
                  else lambda b: chebyshev_solve(lvl.m_cheb, b))
    return PrecondStack(
        system=system, outer_schur=outer_schur,
        momentum_solve=partial(inner_momentum_solve, system, mass_solve,
                               build_matching(system)))


def inner_p1_apply(system: KktSystem, mass_solve, matching: MatchingSchur,
                   rhs):
    """Lower block-triangular momentum preconditioner: `mass_solve` on the
    first block, then the (negative) matching Schur solve on the corrected
    second."""
    nv = system.n_v
    s1, s2 = rhs[:nv], rhs[nv:]
    z1 = mass_solve(s1)
    z2 = -matching_apply(matching, s2 - system.a21 @ z1)
    return np.concatenate([z1, z2])


def inner_momentum_solve(system: KktSystem, mass_solve,
                         matching: MatchingSchur, t):
    """Approximate momentum inverse of the AL and bpcd stacks: INNER_ITERS
    fixed GMRES iterations on the momentum block, preconditioned by
    `inner_p1_apply`. The Krylov solve makes it vary with `t`, so the outer
    iteration must be flexible."""
    z, _ = gmres(system.momentum_matvec,
                 partial(inner_p1_apply, system, mass_solve, matching), t,
                 fixed_iters=INNER_ITERS)
    return z


def outer_p2_apply(stack: PrecondStack, rhs):
    """Upper block-triangular outer preconditioner: (negative) Schur solve on
    the pressure blocks, momentum correction, then the momentum solve."""
    system = stack.system
    r_v, r_z, r_mu, r_p = system.split(rhs)
    y1, y2 = stack.outer_schur(r_mu, r_p)
    z_mu, z_p = -y1, -y2

    bt = system.b.T
    t_m = np.concatenate([r_v - bt @ z_mu, r_z - bt @ z_p])
    return np.concatenate([stack.momentum_solve(t_m), z_mu, z_p])
