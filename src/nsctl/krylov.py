"""Sparse kernels: CSR construction, direct LU solves, Chebyshev semi-iteration
for mass matrices, and restarted GMRES with right preconditioning.

GMRES is hand-rolled because the benchmark reports iteration counts: we need a
fixed-iteration mode (an exact number of inner steps, no tolerance exit),
explicit restart semantics and true-residual reporting. It always runs in the
flexible form (Saad 1993): it keeps the preconditioned basis Z and forms the
update from it, so each step applies the preconditioner once and a
preconditioner that varies between steps is admitted.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

log = logging.getLogger("nsctl.krylov")

_REORTH_TOL = 1e-8


class SingularMatrixError(Exception):
    """Raised when LU factorization meets a structurally or numerically singular matrix."""


def from_triplets(rows, cols, vals, shape) -> sp.csr_matrix:
    """Assemble a CSR matrix from COO triplets; duplicates are summed."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                      or cols.min() < 0 or cols.max() >= shape[1]):
        raise ValueError("triplet index out of bounds for shape %r" % (shape,))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


class Factorization:
    """Sparse LU (SuperLU, minimum-degree ordering on A^T + A) behind a solve() facade."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def factorize(a: sp.spmatrix) -> Factorization:
    """LU-factorize a square sparse matrix; singularity raises SingularMatrixError.

    The columns are ordered by minimum degree on the pattern of A^T + A
    (Amestoy, Davis & Duff 1996). The blocks factorized here have a nearly
    symmetric pattern, on which this ordering gives less fill and faster
    factor and solve than SuperLU's default COLAMD.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    try:
        lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc
    # SuperLU happily factorizes singular matrices, leaving zero (or
    # roundoff-sized) pivots behind instead of raising; reject those too.
    # The relative threshold separates rank deficiency (pivot ratio at
    # machine-epsilon level, e.g. a pure-Neumann stiffness matrix) from the
    # merely ill-conditioned blocks this solver legitimately factorizes.
    u_diag = np.abs(lu.U.diagonal())
    bad = np.flatnonzero(u_diag <= 1e-12 * u_diag.max(initial=0.0))
    if bad.size:
        raise SingularMatrixError(f"singular matrix: zero pivot at {bad[0]}")
    return Factorization(lu)


@dataclass
class ChebyshevMassSolver:
    """Fixed-step Chebyshev semi-iteration for an SPD mass matrix with Jacobi splitting.

    The eigenvalue interval brackets spec(D^-1 M); on a uniform grid the
    Jacobi-scaled reference-element eigenvalues bound the global spectrum.
    """

    matrix: sp.csr_matrix
    interval: tuple
    steps: int
    diag: np.ndarray = field(init=False)

    def __post_init__(self):
        lmin, lmax = self.interval
        if lmin <= 0.0:
            raise ValueError(f"Chebyshev interval must be positive, got [{lmin}, {lmax}]")
        if lmax < lmin:
            raise ValueError(f"empty Chebyshev interval [{lmin}, {lmax}]")
        self.diag = self.matrix.diagonal().copy()
        if np.any(self.diag <= 0.0):
            raise ValueError("mass matrix diagonal must be positive")


def chebyshev_solve(solver: ChebyshevMassSolver, b: np.ndarray) -> np.ndarray:
    """Run the fixed number of Chebyshev steps on M x = b (inner-product free)."""
    lmin, lmax = solver.interval
    theta = 0.5 * (lmax + lmin)
    delta = 0.5 * (lmax - lmin)
    m, dinv = solver.matrix, 1.0 / solver.diag

    x = np.zeros_like(b, dtype=np.float64)
    r = dinv * b                       # preconditioned residual at x = 0
    if delta == 0.0:                   # exact Jacobi case, e.g. M = I
        return r / theta
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    d = r / theta
    for _ in range(solver.steps):
        x = x + d
        r = r - dinv * (m @ d)
        rho_next = 1.0 / (2.0 * sigma1 - rho)
        d = rho_next * rho * d + (2.0 * rho_next / delta) * r
        rho = rho_next
    return x


@dataclass
class KrylovConfig:
    restart: int = 10
    rtol: float = 1e-6
    maxiter: int = 200
    fixed_iters: int = None            # exactly this many steps, no tolerance exit

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if not np.isfinite(self.rtol):
            raise ValueError(f"rtol must be finite, got {self.rtol}")
        if self.rtol <= 0.0 and self.fixed_iters is None:
            raise ValueError("rtol must be positive")


@dataclass
class SolveStats:
    iters: int = 0
    residuals: list = field(default_factory=list)
    converged: bool = False
    true_residual: float = 0.0


def _gmres_cycle(apply_a, apply_p, r0, x0, steps, target, collect):
    """One Arnoldi cycle of right-preconditioned flexible GMRES from x0,
    whose residual b - A x0 is r0; returns (x, met, breakdown)."""
    n = r0.shape[0]
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        return x0, True, False

    v = np.zeros((steps + 1, n))
    z = np.zeros((steps, n))
    h = np.zeros((steps + 1, steps))
    cs = np.zeros(steps)
    sn = np.zeros(steps)
    g = np.zeros(steps + 1)
    v[0] = r0 / beta
    g[0] = beta

    j_done = 0
    breakdown = False
    met = False
    for j in range(steps):
        zj = apply_p(v[j])
        # copy: orthogonalization below edits w in place, and an operator is
        # allowed to return its argument (e.g. an identity preconditioner)
        w = np.array(apply_a(zj), dtype=np.float64)
        z[j] = zj

        norm_before = np.linalg.norm(w)
        for i in range(j + 1):
            h[i, j] = v[i] @ w
            w -= h[i, j] * v[i]
        # one reorthogonalization pass when MGS left visible coupling behind
        if norm_before > 0.0:
            loss = np.abs(v[:j + 1] @ w).max(initial=0.0)
            if loss > _REORTH_TOL * norm_before:
                for i in range(j + 1):
                    corr = v[i] @ w
                    h[i, j] += corr
                    w -= corr * v[i]
        hj1 = np.linalg.norm(w)
        h[j + 1, j] = hj1
        happy = hj1 <= 1e-14 * max(norm_before, 1e-300)
        if not happy:
            v[j + 1] = w / hj1

        for i in range(j):
            t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
            h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
            h[i, j] = t
        denom = np.hypot(h[j, j], h[j + 1, j])
        if denom == 0.0:                 # column gives no progress; drop it
            breakdown = True
            break
        cs[j], sn[j] = h[j, j] / denom, h[j + 1, j] / denom
        h[j, j] = denom
        h[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        j_done = j + 1
        collect(abs(g[j + 1]))

        if happy:
            breakdown = True
            met = target is None or abs(g[j + 1]) <= target
            break
        if target is not None and abs(g[j + 1]) <= target:
            met = True
            break

    if j_done == 0:
        return x0, False, breakdown
    y = np.zeros(j_done)
    for i in range(j_done - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1:j_done] @ y[i + 1:j_done]) / h[i, i]
    return x0 + z[:j_done].T @ y, met, breakdown


def gmres(apply_a, apply_p, b, cfg: KrylovConfig):
    """Right-preconditioned restarted GMRES, one preconditioner apply per step.

    With cfg.fixed_iters set, runs exactly that many Arnoldi steps (no
    tolerance exit) -- the mode used for the inner momentum solver. That mode
    does not compute `true_residual`, which stays 0. `apply_p` None means
    no preconditioner.
    """
    if apply_p is None:
        apply_p = lambda x: x  # noqa: E731
    b = np.asarray(b, dtype=np.float64)
    stats = SolveStats()

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        stats.converged = True
        return np.zeros_like(b), stats

    def collect(res):
        stats.residuals.append(res)
        stats.iters += 1

    fixed = cfg.fixed_iters
    if fixed is not None:
        x, _, _ = _gmres_cycle(apply_a, apply_p, b, np.zeros_like(b), fixed,
                               None, collect)
        stats.converged = True
        return x, stats

    target = cfg.rtol * norm_b
    x, r = np.zeros_like(b), b
    while stats.iters < cfg.maxiter:
        steps = min(cfg.restart, cfg.maxiter - stats.iters)
        before = len(stats.residuals)
        x, met, breakdown = _gmres_cycle(apply_a, apply_p, r, x, steps, target,
                                         collect)
        r = b - apply_a(x)
        if met or np.linalg.norm(r) <= target:
            stats.converged = True
            break
        if breakdown:
            break
        if len(stats.residuals) == before:   # no progress possible
            break
    stats.true_residual = np.linalg.norm(r)
    if stats.true_residual <= target:
        stats.converged = True
    return x, stats


def fgmres(apply_a, apply_p_varying, b, cfg: KrylovConfig):
    """Flexible GMRES: the preconditioner may change between iterations.

    This is `gmres` itself, which already builds the update from the stored
    preconditioned basis; the name marks call sites whose preconditioner
    varies.
    """
    return gmres(apply_a, apply_p_varying, b, cfg)
