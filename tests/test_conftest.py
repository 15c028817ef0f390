"""The suite's own fixtures and settings, checked in a separate pytest
process."""

import json
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFTEST = Path(__file__).with_name("conftest.py")
SRC = ROOT / "src"


def test_leaked_thread_check(pytester, monkeypatch):
    """A failing test that built a matching stack gives one failure and no
    teardown error, though its traceback keeps the stack's worker thread
    alive; a passing test that leaves a thread running still errors."""
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(test_inner="""
        import threading

        from nsctl.newton import initial_state
        from nsctl.operators import KktParams, build_kkt
        from nsctl.precond import build_precond

        def test_fails_after_building_a_stack(geom2):
            system = build_kkt(initial_state(geom2.dofmap), geom2.mesh,
                               geom2.dofmap, geom2.patches, geom2.quad,
                               KktParams(nu=0.01, beta=1e-2))
            stack = build_precond(system)
            assert stack is None

        def test_passes_leaving_a_thread():
            threading.Thread(target=threading.Event().wait,
                             daemon=True).start()
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1, errors=1)
    result.stdout.fnmatch_lines(
        ["*ERROR at teardown of test_passes_leaving_a_thread*"])
    result.stdout.no_fnmatch_line("*ERROR at teardown of test_fails_*")


def test_failing_hypothesis_test_fails_alone(pytester):
    """Under the suite's warning filters, a failing Hypothesis test is one
    failure: reporting its example imports modules that emit deprecation
    warnings, and those must not abort the session before the other tests
    run."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"][
            "filterwarnings"]
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    pytester.makepyfile(test_inner="""
        from hypothesis import given
        from hypothesis import strategies as st

        @given(st.integers(0, 10))
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1)
    assert result.ret == 1
