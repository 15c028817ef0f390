"""CLI parsing, sweep execution and emit formats."""

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

import nsctl.bench as bench_mod
from nsctl.bench import (CSV_COLUMNS, CaseResult, CaseSpec, _csv_text, emit,
                         load_results, main, parse_config, pivot_tables,
                         run_case, run_sweep)
from nsctl.newton import NewtonTrace
from nsctl.operators import KktParams


def _result(level=2, nu=0.01, beta=1e-2, precond="al", newton=3, avg=7,
            converged=True, error=None):
    spec = CaseSpec(level=level, nu=nu, beta=beta, precond=precond)
    return CaseResult(spec=spec, dof=100 * level,
                      fgmres_per_step=[avg] * newton,
                      residuals=[1.0] + [0.1 ** k for k in range(1, newton + 1)],
                      step_seconds=[0.1] * newton,
                      linear_converged=[True] * newton,
                      converged=converged, runtime_s=0.5, error=error)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_parse_defaults():
    specs, opts = parse_config(["--level", "3", "--beta", "1e-3"])
    assert len(specs) == 1
    s = specs[0]
    assert (s.level, s.nu, s.beta) == (3, 0.01, 1e-3)
    assert s.gamma == pytest.approx(316.22776601683796, rel=1e-12)
    # every other case setting takes the KktParams default of its name
    for f in dataclasses.fields(KktParams):
        if f.name not in ("nu", "beta", "gamma"):
            assert getattr(s, f.name) == f.default, f.name
    assert opts.format == "csv" and opts.out is None and opts.jobs == 1


def test_spec_is_params_with_a_level():
    """A case is one record: KktParams' fields plus the level, which
    newton_solve takes as it is."""
    assert [f.name for f in dataclasses.fields(CaseSpec)] \
        == [f.name for f in dataclasses.fields(KktParams)] + ["level"]
    spec = CaseSpec(level=2, nu=0.01, beta=1e-2)
    assert isinstance(spec, KktParams) and not hasattr(spec, "params")


def test_result_is_a_trace_with_its_spec():
    """A result is one record: NewtonTrace's fields plus the spec, dof,
    runtime and error; a case that raised has an empty trace."""
    spec = CaseSpec(level=2, nu=0.01, beta=1e-2)
    res = CaseResult(spec=spec, error="RuntimeError: x")
    assert isinstance(res, NewtonTrace)
    assert [f.name for f in dataclasses.fields(CaseResult)] \
        == [f.name for f in dataclasses.fields(NewtonTrace)] \
        + ["spec", "dof", "runtime_s", "error"]
    assert (res.newton_iters, res.avg_fgmres, res.converged) == (0, 0, False)


@pytest.mark.parametrize("count", ["newton_iters", "avg_fgmres"])
def test_result_counts_come_from_the_trace(count):
    """The two table counts derive from the per-step list: neither can be
    set, so no result disagrees with its own trace."""
    spec = CaseSpec(level=2, nu=0.01, beta=1e-2)
    with pytest.raises(TypeError):
        CaseResult(spec=spec, **{count: 3})
    res = CaseResult(spec=spec, fgmres_per_step=[4, 5])
    assert (res.newton_iters, res.avg_fgmres) == (2, 5)


def test_parse_sweep_cross_product():
    specs, _ = parse_config(["--level", "2,3", "--nu", "1/100,1/250",
                             "--beta", "1e-1,1e-2"])
    combos = [(s.level, s.nu, s.beta) for s in specs]
    assert combos == [(l, nu, b) for l in (2, 3) for nu in (0.01, 0.004)
                      for b in (0.1, 0.01)]


def test_parse_fraction_and_flags():
    specs, opts = parse_config(["--level", "4", "--nu", "1/250", "--lps",
                                "off", "--full-newton", "--exact-blocks",
                                "--precond", "bpcd", "--approach", "dto",
                                "--format", "md", "--jobs", "2"])
    s = specs[0]
    assert s.nu == pytest.approx(1.0 / 250.0, rel=1e-15)
    assert not s.lps and s.full_newton and s.exact_blocks
    assert s.precond == "bpcd" and s.approach == "dto"
    assert opts.format == "md" and opts.jobs == 2


def test_parse_explicit_gamma():
    specs, _ = parse_config(["--level", "2", "--gamma", "50"])
    assert specs[0].gamma == 50.0


@pytest.mark.parametrize("argv", [
    [],                                          # missing --level
    ["--level", "x"],                            # malformed int
    ["--level", "3", "--beta", "abc"],           # malformed float
    ["--level", "3", "--nu", ","],               # empty sweep
    ["--level", "3", "--jobs", "0"],             # bad job count
    ["--level", "0"],                            # CaseSpec validation
    ["--level", "3", "--nu", "0"],               # KktParams validation
    ["--level", "3", "--beta", "0"],
    ["--level", "3", "--gamma", "0"],
    ["--level", "2", "--nu", "1/0"],             # zero denominator
    ["--level", "2", "--nu", "nan"],             # non-finite parameters
    ["--level", "2", "--gamma", "nan"],
    ["--level", "2", "--tol-linear", "nan"],
    ["--level", "2", "--tol-linear", "1"],       # met by the zero vector
    ["--level", "2", "--precond", "bpcd", "--gamma", "7"],   # gamma is al's
    ["--level", "2", "--precond", "ideal", "--gamma", "7"],
    ["--level", "2", "--precond", "ideal", "--exact-blocks"],  # no blocks
    ["--level", "2", "--precond", "xyz"],        # unknown choices
    ["--level", "2", "--approach", "xyz"],
    ["--level", "2", "--lps", "maybe"],
])
def test_parse_rejections(argv):
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [("--tol-linear", "1"),
                                         ("--tol-newton", "0")])
def test_parse_rejection_names_the_setting(capsys, flag, value):
    """A rejected tolerance is reported under the name of its setting."""
    with pytest.raises(SystemExit):
        parse_config(["--level", "2", flag, value])
    name = flag[2:].replace("-", "_")
    assert f"{name} must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [0, -3, 2.5, "3", True, False])
def test_spec_level_rule(bad):
    """A case takes the mesh's level rule: an integer >= 1, not a bool."""
    with pytest.raises(ValueError, match="invalid refinement level"):
        CaseSpec(level=bad, nu=0.01, beta=1e-2)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def test_run_case_small():
    res = run_case(CaseSpec(level=3, nu=0.01, beta=1e-5))
    assert res.error is None
    assert res.dof == 1062
    assert res.converged
    assert res.newton_iters == 3
    assert len(res.residuals) == res.newton_iters + 1
    assert len(res.fgmres_per_step) == res.newton_iters
    mean = np.mean(res.fgmres_per_step)
    assert res.avg_fgmres == int(np.floor(mean + 0.5))
    assert res.runtime_s > 0.0


def test_run_case_solves_with_the_spec_parameters(monkeypatch):
    """run_case solves with the spec itself, its KktParams checks run."""
    seen = []

    def fake_solve(params, geom, on_system=None):
        seen.append(params)
        return None, NewtonTrace(residuals=[1.0])

    monkeypatch.setattr(bench_mod, "newton_solve", fake_solve)
    spec = CaseSpec(level=2, nu=0.004, beta=1e-3, precond="bpcd",
                    approach="dto", lps_on=False, exact_blocks=True,
                    tol_linear=1e-8, tol_newton=1e-6)
    run_case(spec)
    assert len(seen) == 1 and seen[0] is spec
    assert spec.gamma is None          # only the al stack reads gamma
    assert (spec.precond, spec.tol_newton, spec.tol_linear,
            spec.exact_blocks) == ("bpcd", 1e-6, 1e-8, True)
    assert (spec.approach, spec.lps_on) == ("dto", False)


def test_run_case_deterministic():
    spec = CaseSpec(level=2, nu=0.01, beta=1e-2)
    r1 = run_case(spec)
    r2 = run_case(spec)
    assert r1.fgmres_per_step == r2.fgmres_per_step
    assert r1.residuals == r2.residuals
    rows1 = [line.rsplit(",", 1)[0] for line in _csv_text([r1]).splitlines()]
    rows2 = [line.rsplit(",", 1)[0] for line in _csv_text([r2]).splitlines()]
    assert rows1 == rows2          # identical up to the wall-clock column


def test_run_sweep_empty_rejected():
    with pytest.raises(ValueError):
        run_sweep([])


def test_run_sweep_guards_failures(monkeypatch):
    import nsctl.bench as bench_mod

    def boom(spec, export_dir=None):
        raise RuntimeError("broken case")

    monkeypatch.setattr(bench_mod, "run_case", boom)
    results = run_sweep([CaseSpec(level=2, nu=0.01, beta=1e-2)])
    assert len(results) == 1
    assert results[0].error == "RuntimeError: broken case"
    assert "| 2 | failed |" in pivot_tables(results).splitlines()


@pytest.mark.parametrize("jobs,n_cases,workers", [(8, 1, 1), (8, 3, 3),
                                                    (2, 3, 2)])
def test_run_sweep_pool_no_larger_than_the_sweep(monkeypatch, jobs, n_cases,
                                                 workers):
    """The pool forks all its workers at start, so it gets no more than
    there are cases; checked with an in-process stand-in for the pool."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(bench_mod, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(bench_mod, "run_case", lambda spec, export_dir=None:
                        _result(level=spec.level, beta=spec.beta))
    specs = [CaseSpec(level=2, nu=0.01, beta=10.0 ** -k)
             for k in range(1, n_cases + 1)]
    results = run_sweep(specs, jobs=jobs)
    assert sizes == [workers]
    assert [r.spec.beta for r in results] == [s.beta for s in specs]


# --------------------------------------------------------------------------
# pivots and emits
# --------------------------------------------------------------------------

def test_pivot_tables_layout():
    results = [
        _result(level=2, beta=1e-1, avg=5),
        _result(level=2, beta=1e-3, avg=4),
        _result(level=3, beta=1e-1, avg=9, converged=False),
        _result(level=3, beta=1e-3, avg=6, error="RuntimeError: x"),
    ]
    lines = pivot_tables(results).splitlines()
    titles = [i for i, l in enumerate(lines) if l.startswith("### ")]
    assert len(titles) == 2                     # one per metric, one group
    avg_table = lines[titles[0]:titles[1]]
    assert avg_table[2] == "| l \\ beta | 1e-01 | 1e-03 |"
    assert avg_table[4] == "| 2 | 5 | 4 |"
    assert avg_table[5] == "| 3 | 9† | failed |"


def test_pivot_groups_by_nu_descending():
    results = [_result(nu=0.004), _result(nu=0.01)]
    titles = [l for l in pivot_tables(results).splitlines()
              if l.startswith("### ")]
    assert len(titles) == 4
    assert "nu=0.01" in titles[0]
    assert "nu=0.004" in titles[1]


def test_csv_emit_shape():
    text = emit([_result()], "csv", path=None)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[0] == "2" and cells[4] == "100.0"   # gamma = 10/sqrt(1e-2)
    assert cells[9] == "true"


def test_csv_emit_leaves_unread_gamma_empty():
    """A bpcd row has no gamma: its CSV cell is empty, its JSON value null."""
    result = _result(precond="bpcd")
    cells = emit([result], "csv", path=None).splitlines()[1].split(",")
    assert cells[4] == "" and cells[5] == "bpcd"
    spec = json.loads(emit([result], "json", path=None))["results"][0]["spec"]
    assert spec["gamma"] is None


def test_md_emit_shape():
    text = emit([_result()], "md", path=None)
    lines = text.splitlines()
    assert lines[0] == "# Cavity control benchmark"
    header = next(l for l in lines if l.startswith("| l \\ beta"))
    assert header.count("|") == 3               # two columns: label + 1 beta
    assert any(l.startswith("### avg_fgmres") for l in lines)
    assert any(l.startswith("### newton_iters") for l in lines)


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit([_result()], "xml")


def test_json_roundtrip(tmp_path):
    out = tmp_path / "run.json"
    emit([_result()], "json", path=str(out))
    back = load_results(str(out))
    assert len(back) == 1
    assert back[0].spec == _result().spec
    assert back[0].avg_fgmres == _result().avg_fgmres


def test_json_names_lps_on_lps(tmp_path):
    """A written spec carries `lps`, as files always have, and a
    hand-made file with `lps` loads into the spec's `lps_on`."""
    spec = json.loads(emit([_result()], "json"))["results"][0]["spec"]
    assert spec["lps"] is True and "lps_on" not in spec
    spec["lps"] = False
    row = {"spec": spec, "dof": 200, "converged": True}
    out = tmp_path / "hand.json"
    out.write_text(json.dumps({"schema": "nsctl-bench/1", "results": [row]}))
    back = load_results(str(out))[0]
    assert back.spec == CaseSpec(level=2, nu=0.01, beta=1e-2, lps_on=False)
    assert (back.dof, back.converged) == (200, True)


def test_load_results_ignores_legacy_seed(tmp_path):
    """Files written while cases still carried a `seed` load, without it."""
    out = tmp_path / "old.json"
    emit([_result()], "json", path=str(out))
    payload = json.loads(out.read_text())
    payload["results"][0]["spec"]["seed"] = 7
    out.write_text(json.dumps(payload))
    back = load_results(str(out))
    assert back[0].spec == _result().spec
    assert not hasattr(back[0].spec, "seed")


def test_load_results_drops_legacy_unread_gamma(tmp_path):
    """Files written while bpcd and ideal cases still echoed a gamma load,
    without it; an al case keeps its gamma."""
    out = tmp_path / "old.json"
    results = [_result(precond="bpcd"), _result(precond="ideal"), _result()]
    emit(results, "json", path=str(out))
    payload = json.loads(out.read_text())
    for row in payload["results"][:2]:
        row["spec"]["gamma"] = 100.0
    out.write_text(json.dumps(payload))
    back = load_results(str(out))
    assert [r.spec for r in back] == [r.spec for r in results]
    assert [r.spec.gamma for r in back] == [None, None, 100.0]


def test_json_rows_reemit_with_the_derived_counts(tmp_path):
    """A row of the format as it has always been written, the trace's two
    counts beside its per-step list, loads and re-emits as the same
    text."""
    row = {"avg_fgmres": 4, "converged": True, "dof": 246, "error": None,
           "fgmres_per_step": [3, 4, 4], "linear_converged": [True] * 3,
           "newton_iters": 3, "residuals": [0.5, 0.25, 1e-3, 1e-7],
           "runtime_s": 0.25, "step_seconds": [0.1, 0.05, 0.05],
           "spec": {"approach": "otd", "beta": 0.1, "exact_blocks": False,
                    "full_newton": False, "gamma": 31.622776601683793,
                    "level": 2, "lps": True, "nu": 0.01, "precond": "al",
                    "tol_linear": 1e-06, "tol_newton": 1e-05}}
    text = json.dumps({"results": [row], "schema": "nsctl-bench/1"},
                      indent=2, sort_keys=True) + "\n"
    path = tmp_path / "parent.json"
    path.write_text(text)
    back = load_results(str(path))
    assert (back[0].newton_iters, back[0].avg_fgmres) == (3, 4)
    assert emit(back, "json") == text


def test_load_results_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9", "results": []}))
    with pytest.raises(ValueError):
        load_results(str(bad))


# --------------------------------------------------------------------------
# CLI entry point
# --------------------------------------------------------------------------

def test_main_json_out(tmp_path, capsys):
    out = tmp_path / "run.json"
    rc = main(["--level", "2", "--format", "json", "--out", str(out)])
    assert rc == 0
    back = load_results(str(out))
    assert len(back) == 1 and back[0].spec.level == 2
    assert back[0].converged and back[0].error is None
    # pivot tables echo to stdout when writing to a file
    assert "### avg_fgmres" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["dir", "missing/run.csv", ""])
def test_main_rejects_unwritable_out_before_the_sweep(tmp_path, monkeypatch,
                                                      out):
    """An --out that is empty, names a directory, or names a file in a
    missing one is a parser error (status 2), raised before any case runs:
    the output is opened only after the whole sweep."""
    (tmp_path / "dir").mkdir()
    argv = ["--level", "2", "--out", str(tmp_path / out) if out else ""]

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(bench_mod, "run_sweep", no_sweep)
    for entry in (parse_config, main):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("export", ["file", "file/sub"])
def test_main_rejects_unusable_export_dir_before_the_sweep(tmp_path,
                                                           monkeypatch,
                                                           export):
    """An --export-matrices path that names a file, or a path below one,
    is a parser error (status 2), raised before any case runs."""
    (tmp_path / "file").write_text("")
    argv = ["--level", "2", "--export-matrices", str(tmp_path / export)]

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(bench_mod, "run_sweep", no_sweep)
    for entry in (parse_config, main):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("value", ["verbose", "10", ""])
def test_main_rejects_unknown_log_level(monkeypatch, capsys, value):
    """An NSCTL_LOG that names no log level ends the CLI as a bad flag
    does: one line on stderr naming the variable and the levels, status 2,
    before any argument is parsed."""
    monkeypatch.setenv("NSCTL_LOG", value)
    with pytest.raises(SystemExit) as exc:
        main(["--level", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "NSCTL_LOG" in err[0] and repr(value) in err[0]
    assert all(lvl in err[0] for lvl in ("DEBUG", "INFO", "WARNING"))


def test_main_export_matrices(tmp_path):
    out = tmp_path / "run.csv"
    mats = tmp_path / "mats"
    rc = main(["--level", "2", "--out", str(out),
               "--export-matrices", str(mats)])
    assert rc == 0
    case_dir = mats / "l2_nu0.01_beta0.01_al"
    a11s = sorted(case_dir.glob("a11_2_*.mtx"))
    assert a11s                                  # one per Newton step
    for name in ("a12", "a21", "a22", "b"):
        assert (case_dir / f"{name}_2_1.mtx").exists()
    header = a11s[0].read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate real general"


def _mask_timings(text):
    """The text with every runtime_s and step_seconds value as `*`."""
    text = re.sub(r'("runtime_s": )[0-9.e+-]+', r"\1*", text)
    text = re.sub(r'"step_seconds": \[[^\]]*\]',
                  lambda m: re.sub(r"\d[0-9.e+-]*", "*", m.group()), text)
    return re.sub(r",\d+\.\d{3}$", ",*", text, flags=re.M)


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_main_output_text_pinned(tmp_path, capsys, fmt):
    """A real sweep writes the same text as the recorded run of this
    command, apart from its timings."""
    out = tmp_path / f"run.{fmt}"
    rc = main(["--level", "2", "--nu", "1/100", "--beta", "1e-1,1e-3",
               "--format", fmt, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    expected = pathlib.Path(__file__).parent / "data" \
        / f"level2_nu1e-2_beta1e-1_1e-3.{fmt}"
    assert _mask_timings(out.read_text()) == expected.read_text()
