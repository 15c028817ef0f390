"""The benchmark's workloads and the process settings every part of it shares.

Every workload is a fixed list of lid-driven-cavity cases; nothing in a case
is random. The seed only permutes the order in which a round runs the cases,
and no per-case count depends on that order.
"""

import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = 2
BETAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class Case:
    """One Newton solve of the cavity control problem."""

    level: int
    nu: float
    beta: float
    exact_blocks: bool

    @property
    def id(self):
        stack = "lu" if self.exact_blocks else "mg"
        return f"l{self.level}-nu{self.nu:g}-beta{self.beta:g}-{stack}"

    def spec(self):
        """This case as an `nsctl.bench.CaseSpec`, other fields at defaults."""
        from nsctl.bench import CaseSpec
        return CaseSpec(level=self.level, nu=self.nu, beta=self.beta,
                        exact_blocks=self.exact_blocks)


WORKLOADS = {
    # many short production-stack cases: per-case set-up (assembly, the
    # multigrid hierarchy build) is a large share of each solve
    "al-mg-l3-grid": tuple(Case(3, nu, beta, False)
                           for nu in (1 / 100, 1 / 250, 1 / 500)
                           for beta in BETAS),
    # fewer, larger production-stack cases: multigrid application dominates
    "al-mg-l4": tuple(Case(4, nu, beta, False)
                      for nu in (1 / 100, 1 / 500)
                      for beta in (1e-1, 1e-3, 1e-5)),
    # the exact-LU stack: SuperLU factorization dominates, no multigrid
    "lu-l5": (Case(5, 1 / 250, 1e-3, True),),
}


def case_order(workload, seed):
    """The workload's cases in the order the seed gives."""
    cases = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cases)
    return cases


def checkout_root():
    return Path(__file__).resolve().parent.parent


def limit_blas_threads():
    """Give the BLAS pool of this process and its children at most
    BLAS_THREADS threads; call before numpy is imported."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def import_nsctl():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    src = checkout_root() / "src"
    if not (src / "nsctl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nsctl sources under {src}")
    sys.path.insert(0, str(src))
    import nsctl
    if Path(nsctl.__file__).resolve().parent != src / "nsctl":
        raise SystemExit(f"perfbench: imported nsctl from {nsctl.__file__}, "
                         f"not from {src}")
    return nsctl
