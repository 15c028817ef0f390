import threading

import numpy as np
import pytest

from nsctl.grid_fem import setup_geometry

pytest_plugins = ["pytester"]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Mark on the test item whether its call phase failed, for
    `no_leaked_threads` to read at teardown."""
    report = (yield).get_result()
    if report.when == "call":
        item.call_failed = report.failed


@pytest.fixture(autouse=True)
def no_leaked_threads(request):
    """Fail a test that leaves behind a thread it started: worker threads
    (the matching-factor builds) must be joined before their caller returns.

    A test that failed is not checked: its traceback keeps alive what it
    built, a matching stack's worker thread included, so the check would
    only add a second error to the failure."""
    before = set(threading.enumerate())
    yield
    if getattr(request.node, "call_failed", True):
        return
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
