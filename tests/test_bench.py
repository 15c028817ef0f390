"""CLI parsing, sweep execution and emit formats."""

import json

import numpy as np
import pytest

import nsctl.bench as bench_mod
from nsctl.bench import (CSV_COLUMNS, CaseResult, CaseSpec, _csv_text, emit,
                         load_results, main, parse_config, pivot_tables,
                         run_case, run_sweep)
from nsctl.newton import NewtonTrace


def _result(level=2, nu=0.01, beta=1e-2, precond="al", newton=3, avg=7,
            converged=True, error=None):
    spec = CaseSpec(level=level, nu=nu, beta=beta, precond=precond)
    return CaseResult(spec=spec, dof=100 * level, newton_iters=newton,
                      avg_fgmres=avg, fgmres_per_step=[avg] * newton,
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
    assert s.precond == "al" and s.approach == "otd"
    assert s.lps and not s.full_newton and not s.exact_blocks
    assert opts.format == "csv" and opts.out is None and opts.jobs == 1


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
])
def test_parse_rejections(argv):
    with pytest.raises(SystemExit):
        parse_config(argv)


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
    """The spec validates by building its KktParams and NewtonConfig, and
    run_case solves with exactly those."""
    seen = []

    def fake_solve(cfg, params, geom, on_system=None):
        seen.append((cfg, params))
        return None, NewtonTrace(residuals=[1.0])

    monkeypatch.setattr(bench_mod, "newton_solve", fake_solve)
    spec = CaseSpec(level=2, nu=0.004, beta=1e-3, precond="bpcd",
                    approach="dto", lps=False, exact_blocks=True,
                    tol_linear=1e-8, tol_newton=1e-6)
    run_case(spec)
    assert seen == [(spec.config, spec.params)]
    assert seen[0][0] is spec.config and seen[0][1] is spec.params
    assert spec.params.gamma == spec.gamma
    assert (spec.config.precond, spec.config.tol, spec.config.linear.rtol,
            spec.config.exact_blocks) == ("bpcd", 1e-6, 1e-8, True)
    assert (spec.params.approach, spec.params.lps_on) == ("dto", False)


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
    results, pivots = run_sweep([CaseSpec(level=2, nu=0.01, beta=1e-2)])
    assert len(results) == 1
    assert results[0].error == "RuntimeError: broken case"
    assert any("failed" in c for t in pivots for row in t["rows"]
               for c in row)


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
    tables = pivot_tables(results)
    assert len(tables) == 2                     # one per metric, one group
    avg_table = tables[0]
    assert avg_table["header"] == ["l \\ beta", "1e-01", "1e-03"]
    assert avg_table["rows"][0] == ["2", "5", "4"]
    assert avg_table["rows"][1] == ["3", "9†", "failed"]


def test_pivot_groups_by_nu_descending():
    results = [_result(nu=0.004), _result(nu=0.01)]
    tables = pivot_tables(results)
    assert len(tables) == 4
    assert "nu=0.01" in tables[0]["title"]
    assert "nu=0.004" in tables[1]["title"]


def test_csv_emit_shape():
    text = emit([_result()], "csv", path=None)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[0] == "2" and cells[4] == "100.0"   # gamma = 10/sqrt(1e-2)
    assert cells[9] == "true"


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
