"""Sparse kernels: direct LU solves, Chebyshev semi-iteration for mass
matrices, and GMRES with right preconditioning.

GMRES is hand-rolled because the benchmark reports iteration counts. The
outer solve `fgmres` restarts until a tolerance; the inner `gmres` runs
exactly INNER_ITERS steps. Both run one Arnoldi cycle in the flexible form
(Saad 1993): it keeps the preconditioned basis Z and forms the update from
it, so each step applies the preconditioner once and a preconditioner that
varies between steps is admitted.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_REORTH_TOL = 1e-8
_PROBE_RTOL = 1e-8                    # relative residual of the singularity probe
RESTART = 10                          # Arnoldi steps per cycle of a tolerance solve
MAXITER = 200                         # Arnoldi steps in all, over every cycle
INNER_ITERS = 5                       # Arnoldi steps of each inner solve
CHEB_STEPS = 20                       # Chebyshev steps per mass solve


class SingularMatrixError(Exception):
    """Raised when LU factorization meets a structurally or numerically singular matrix."""


class Factorization:
    """Sparse LU (SuperLU, minimum-degree ordering on A^T + A, threshold
    pivoting) behind a solve() facade."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def factorize(a: sp.spmatrix) -> Factorization:
    """LU-factorize a square sparse matrix; singularity raises SingularMatrixError.

    The columns are ordered by minimum degree on the pattern of A^T + A
    (Amestoy, Davis & Duff 1996). The blocks factorized here have a nearly
    symmetric pattern, on which this ordering gives less fill and faster
    factor and solve than SuperLU's default COLAMD. Pivoting is by threshold
    (Duff, Erisman & Reid 1986): in symmetric mode the diagonal entry stays
    the pivot unless it is below 0.1 of its column's largest, so the rows
    keep the ordering's elimination order; strict partial pivoting, which
    takes each column's largest entry, can fill these blocks several-fold.
    A singular matrix that SuperLU factorizes anyway is caught by one probe
    solve, whose relative residual must be at most _PROBE_RTOL.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    try:
        lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc
    # SuperLU factorizes a numerically singular matrix without complaint,
    # leaving a roundoff-sized pivot behind. Solving for one fixed probe
    # with a nonzero mean and no structure exposes it by its residual
    # (Higham 2002, ch. 7): the probe lies outside the range of a rank-
    # deficient matrix, e.g. the mean-free range of a pure-Neumann stiffness
    # matrix, and leaves a residual of order one, where the ill-conditioned
    # blocks this solver factorizes leave roundoff. A NaN residual fails.
    # The check reads neither L nor U: scipy's SuperLU object builds copies
    # of both on the first read of either and keeps them as long as itself.
    probe = np.random.default_rng(0).uniform(0.5, 1.5, a.shape[0])
    res = np.linalg.norm(a @ lu.solve(probe) - probe)
    if not res <= _PROBE_RTOL * np.linalg.norm(probe):
        raise SingularMatrixError(f"singular matrix: probe residual {res:.2e}")
    return Factorization(lu)


@dataclass
class ChebyshevMassSolver:
    """Fixed-step Chebyshev semi-iteration for an SPD mass matrix with Jacobi splitting.

    The eigenvalue interval brackets spec(D^-1 M); on a uniform grid the
    Jacobi-scaled reference-element eigenvalues bound the global spectrum.
    """

    matrix: sp.csr_matrix
    interval: tuple
    diag: np.ndarray = field(init=False)

    def __post_init__(self):
        lmin, lmax = self.interval
        if lmin <= 0.0:
            raise ValueError(f"Chebyshev interval must be positive, got [{lmin}, {lmax}]")
        if lmax <= lmin:
            raise ValueError(f"Chebyshev interval [{lmin}, {lmax}] needs lmin < lmax")
        self.diag = self.matrix.diagonal().copy()
        if np.any(self.diag <= 0.0):
            raise ValueError("mass matrix diagonal must be positive")


def chebyshev_solve(solver: ChebyshevMassSolver, b: np.ndarray) -> np.ndarray:
    """Run CHEB_STEPS Chebyshev steps on M x = b (inner-product free)."""
    lmin, lmax = solver.interval
    theta = 0.5 * (lmax + lmin)
    delta = 0.5 * (lmax - lmin)
    m, dinv = solver.matrix, 1.0 / solver.diag

    x = np.zeros_like(b, dtype=np.float64)
    r = dinv * b                       # preconditioned residual at x = 0
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    d = r / theta
    for _ in range(CHEB_STEPS):
        x = x + d
        r = r - dinv * (m @ d)
        rho_next = 1.0 / (2.0 * sigma1 - rho)
        d = rho_next * rho * d + (2.0 * rho_next / delta) * r
        rho = rho_next
    return x


@dataclass
class SolveStats:
    residuals: list = field(default_factory=list)    # one per Arnoldi step
    converged: bool = False
    true_residual: float = 0.0

    @property
    def iters(self):
        return len(self.residuals)


def _gmres_cycle(apply_a, apply_p, r0, x0, steps, target):
    """One Arnoldi cycle of right-preconditioned flexible GMRES from x0,
    whose residual b - A x0 is r0, with no tolerance exit for `target`
    None; returns (x, residuals, met, breakdown). r0 is nonzero: both
    solves return at once for b = 0, and `fgmres` restarts only while
    ||r|| > rtol ||b|| > 0."""
    n = r0.shape[0]
    beta = np.linalg.norm(r0)
    v = np.zeros((steps + 1, n))
    z = np.zeros((steps, n))
    h = np.zeros((steps + 1, steps))
    cs = np.zeros(steps)
    sn = np.zeros(steps)
    g = np.zeros(steps + 1)
    v[0] = r0 / beta
    g[0] = beta

    residuals = []
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

        residuals.append(abs(g[j + 1]))
        met = target is not None and residuals[-1] <= target
        if happy or met:
            breakdown = happy
            break

    j_done = len(residuals)
    y = np.zeros(j_done)
    for i in range(j_done - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1:j_done] @ y[i + 1:j_done]) / h[i, i]
    return x0 + z[:j_done].T @ y, residuals, met, breakdown


def fgmres(apply_a, apply_p, b, rtol):
    """Restarted right-preconditioned flexible GMRES, the outer solve: cycles
    of RESTART steps run until ||b - A x|| <= rtol ||b||, for at most MAXITER
    steps in all. Returns (x, SolveStats)."""
    b = np.asarray(b, dtype=np.float64)
    stats = SolveStats()

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        stats.converged = True
        return np.zeros_like(b), stats

    target = rtol * norm_b
    x, r = np.zeros_like(b), b
    while stats.iters < MAXITER:
        steps = min(RESTART, MAXITER - stats.iters)
        x, residuals, met, breakdown = _gmres_cycle(apply_a, apply_p, r, x,
                                                    steps, target)
        stats.residuals += residuals
        r = b - apply_a(x)
        stats.true_residual = np.linalg.norm(r)
        if met or stats.true_residual <= target:
            stats.converged = True
            break
        if breakdown:
            break
    return x, stats


def gmres(apply_a, apply_p, b):
    """INNER_ITERS steps of flexible GMRES from x = 0, the inner solve: no
    tolerance exit, only a happy breakdown ends it early. Returns x."""
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b)
    return _gmres_cycle(apply_a, apply_p, b, np.zeros_like(b), INNER_ITERS,
                        None)[0]
