"""Pinned Newton histories of small cases.

A change that claims to leave the numerics as they were must leave these
bit for bit: the FGMRES count and the linear-solve flag of every step, and
every nonlinear residual as `float.hex`. The cases cover each stack (AL and
bpcd with multigrid and with LU, the ideal one), the dto full-Newton blocks
and a run without stabilization. The values were recorded with
scipy-openblas 0.3.31 on an x86-64 CPU and are the same with one and two
BLAS threads; a different BLAS build may round differently, in which case
record them again at a commit whose numerics are known to be right.
"""

import pytest

from nsctl.bench import CaseSpec, run_case

# case id: (CaseSpec fields, FGMRES per step, linear_converged per step,
# residuals as float.hex)
HISTORIES = {
    "al-mg-l2": (
        dict(level=2, nu=1 / 100, beta=1e-2),
        [2, 3, 3], [True, True, True],
        ["0x1.c6c5c819f2e02p-4",
         "0x1.0b27032b23706p-2",
         "0x1.4dafed0b5ce3dp-11",
         "0x1.9c23ae60c1ee8p-21"]),
    "al-mg-l3": (
        dict(level=3, nu=1 / 100, beta=1e-5),
        [2, 2, 3], [True, True, True],
        ["0x1.32a7f9378a942p-4",
         "0x1.cbab889ebfc22p-4",
         "0x1.22bdf152ddd66p-13",
         "0x1.443248a7783b5p-37"]),
    "al-mg-l3-hard": (
        dict(level=3, nu=1 / 500, beta=1e-1),
        [3, 4, 4, 4, 5], [True, True, True, True, True],
        ["0x1.b04edcf738fbap-5",
         "0x1.61115db62db3bp-3",
         "0x1.f6880b8388116p-10",
         "0x1.a0d336d5e64a9p-15",
         "0x1.2c7aed1fbeba6p-18",
         "0x1.fe1dbc1819d67p-22"]),
    "al-lu-l3": (
        dict(level=3, nu=1 / 250, beta=1e-3, exact_blocks=True),
        [2, 3, 3], [True, True, True],
        ["0x1.cadae59fe3bdcp-5",
         "0x1.1271ab9bc74b2p-3",
         "0x1.9adac1701f827p-13",
         "0x1.a909ed503a05fp-25"]),
    "bpcd-mg-l3": (
        dict(level=3, nu=1 / 250, beta=1e-3, precond="bpcd"),
        [8, 19, 19], [True, True, True],
        ["0x1.cadae59fe3bdcp-5",
         "0x1.13b92c2a83d9bp-3",
         "0x1.9bcc2fdec6511p-13",
         "0x1.a3775de0e8223p-25"]),
    "bpcd-lu-l2": (
        dict(level=2, nu=1 / 100, beta=1e-2, precond="bpcd",
             exact_blocks=True),
        [8, 15, 16], [True, True, True],
        ["0x1.c6c5c819f2e02p-4",
         "0x1.0d075785993adp-2",
         "0x1.4d4bc96cc990fp-11",
         "0x1.9cbdbbb446f9cp-21"]),
    "bpcd-lu-l3": (
        dict(level=3, nu=1 / 250, beta=1e-3, precond="bpcd",
             exact_blocks=True),
        [8, 19, 19], [True, True, True],
        ["0x1.cadae59fe3bdcp-5",
         "0x1.13b92c2a75673p-3",
         "0x1.9bcc2fdd95b65p-13",
         "0x1.a3775dcb0080cp-25"]),
    "ideal-l2": (
        dict(level=2, nu=1 / 100, beta=1e-2, precond="ideal"),
        [2, 2, 2], [True, True, True],
        ["0x1.c6c5c819f2e02p-4",
         "0x1.0d0753d4496f0p-2",
         "0x1.4d4a6c3756d46p-11",
         "0x1.9ca4b3ff8d61ep-21"]),
    "dto-full-lu-l3": (
        dict(level=3, nu=1 / 100, beta=1e-2, approach="dto",
             full_newton=True, exact_blocks=True),
        [2, 9, 8], [True, True, True],
        ["0x1.32a7f9378a942p-4",
         "0x1.4105345376328p-3",
         "0x1.724731ad3ae43p-11",
         "0x1.3bc92dccf06c0p-23"]),
    "lps-off-lu-l3": (
        dict(level=3, nu=1 / 100, beta=1e-2, lps_on=False, gamma=50.0,
             exact_blocks=True),
        [3, 3, 4, 4], [True, True, True, True],
        ["0x1.32a7f9378a942p-4",
         "0x1.abbd97fd9b132p-6",
         "0x1.0978f78e1fb17p-13",
         "0x1.53d0bd90017efp-18",
         "0x1.d1bec72c1c4f9p-23"]),
}


@pytest.mark.parametrize("case", sorted(HISTORIES))
def test_newton_history_pinned(case):
    fields, fgmres, converged, residuals = HISTORIES[case]
    res = run_case(CaseSpec(**fields))
    assert res.error is None
    assert res.fgmres_per_step == fgmres
    assert res.linear_converged == converged
    assert [r.hex() for r in res.residuals] == residuals
