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
         "0x1.0b27032b2370ap-2",
         "0x1.4dafed0b23361p-11",
         "0x1.9c23ae60d5d49p-21"]),
    "al-mg-l3": (
        dict(level=3, nu=1 / 100, beta=1e-5),
        [2, 2, 3], [True, True, True],
        ["0x1.32a7f9378a942p-4",
         "0x1.cbab889e3dbaap-4",
         "0x1.22c77ac616c80p-13",
         "0x1.4459823a6f8ddp-37"]),
    "al-mg-l3-hard": (
        dict(level=3, nu=1 / 500, beta=1e-1),
        [3, 4, 4, 4, 5], [True, True, True, True, True],
        ["0x1.b04edcf738fbap-5",
         "0x1.61115db62a243p-3",
         "0x1.f6880b8388f94p-10",
         "0x1.a0d336d5e7dfcp-15",
         "0x1.2c7aed1fc1f07p-18",
         "0x1.fe1dbc183358fp-22"]),
    "al-lu-l3": (
        dict(level=3, nu=1 / 250, beta=1e-3, exact_blocks=True),
        [2, 3, 3], [True, True, True],
        ["0x1.cadae59fe3bdcp-5",
         "0x1.1271ab9bc6c06p-3",
         "0x1.9adac167baa07p-13",
         "0x1.a909ed4fe7025p-25"]),
    "bpcd-mg-l3": (
        dict(level=3, nu=1 / 250, beta=1e-3, precond="bpcd"),
        [8, 19, 19], [True, True, True],
        ["0x1.cadae59fe3bdcp-5",
         "0x1.13b92c2a83d99p-3",
         "0x1.9bcc2fdec6333p-13",
         "0x1.a3775de0c8ba9p-25"]),
    "bpcd-lu-l2": (
        dict(level=2, nu=1 / 100, beta=1e-2, precond="bpcd",
             exact_blocks=True),
        [8, 15, 16], [True, True, True],
        ["0x1.c6c5c819f2e02p-4",
         "0x1.0d075785993abp-2",
         "0x1.4d4bc96cc9851p-11",
         "0x1.9cbdbbb440c8cp-21"]),
    "bpcd-lu-l3": (
        dict(level=3, nu=1 / 250, beta=1e-3, precond="bpcd",
             exact_blocks=True),
        [8, 19, 19], [True, True, True],
        ["0x1.cadae59fe3bdcp-5",
         "0x1.13b92c2a75674p-3",
         "0x1.9bcc2fdd959f3p-13",
         "0x1.a3775dcb0331ap-25"]),
    "ideal-l2": (
        dict(level=2, nu=1 / 100, beta=1e-2, precond="ideal"),
        [2, 2, 2], [True, True, True],
        ["0x1.c6c5c819f2e02p-4",
         "0x1.0d0753d4496efp-2",
         "0x1.4d4a6c3756ad3p-11",
         "0x1.9ca4b3ff8d3d9p-21"]),
    "dto-full-lu-l3": (
        dict(level=3, nu=1 / 100, beta=1e-2, approach="dto",
             full_newton=True, exact_blocks=True),
        [2, 9, 8], [True, True, True],
        ["0x1.32a7f9378a942p-4",
         "0x1.41053453752d3p-3",
         "0x1.724731ad3a8f0p-11",
         "0x1.3bc92dcca9e4bp-23"]),
    "lps-off-lu-l3": (
        dict(level=3, nu=1 / 100, beta=1e-2, lps_on=False, gamma=50.0,
             exact_blocks=True),
        [3, 3, 4, 4], [True, True, True, True],
        ["0x1.32a7f9378a942p-4",
         "0x1.abbd97fd989c2p-6",
         "0x1.0978f78cc6d49p-13",
         "0x1.53d0bd8fe8a98p-18",
         "0x1.d1bec72c15ed9p-23"]),
}


@pytest.mark.parametrize("case", sorted(HISTORIES))
def test_newton_history_pinned(case):
    fields, fgmres, converged, residuals = HISTORIES[case]
    res = run_case(CaseSpec(**fields))
    assert res.error is None
    assert res.fgmres_per_step == fgmres
    assert res.linear_converged == converged
    assert [r.hex() for r in res.residuals] == residuals
