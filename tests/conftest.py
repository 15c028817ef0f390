import threading

import numpy as np
import pytest

from nsctl.grid_fem import setup_geometry


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves behind a thread it started: worker threads
    (the matching-factor builds) must be joined before their caller returns."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"test left threads running: {leaked}")


@pytest.fixture(scope="session")
def geom2():
    return setup_geometry(2)


@pytest.fixture(scope="session")
def geom3():
    return setup_geometry(3)


def _matching_factors(system):
    """Psi2 + L and (Psi1 + L)^T with L = M / sqrt(beta), formed as
    `build_matching` forms the two matrices it inverts."""
    lam = (system.level_ops.m / np.sqrt(system.params.beta)).tocsr()
    return (system.a21 + lam).tocsr(), (system.a12 + lam).tocsr()


@pytest.fixture
def matching_factors():
    return _matching_factors


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
