import argparse
import gc
import math
import os
import re
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from sgefem.cli import (CSV_HEADER, ConfigError, StudyConfig,
                        _build_parser, _merge_config, _study_rows,
                        format_table, load_config_file, main)
from sgefem.linalg import SolverBreakdown


def run(args):
    return main(args)


def test_study_config_validation():
    good = StudyConfig("example1", [1.0], [1e-8], [4])
    assert good.ns == [4] and good.mu == 1.0
    with pytest.raises(ConfigError, match="example"):
        StudyConfig("example3", [1.0], [1.0], [4])
    with pytest.raises(ConfigError, match="nonempty"):
        StudyConfig("example1", [], [1.0], [4])
    with pytest.raises(ConfigError, match="at least 2"):
        StudyConfig("example1", [1.0], [1.0], [1])
    with pytest.raises(ConfigError, match="iota"):
        StudyConfig("example1", [1.0], [0.0], [4])
    with pytest.raises(ConfigError, match="distinct"):
        StudyConfig("example1", [1.0], [1.0], [4, 4])
    with pytest.raises(ConfigError, match="lambda / mu"):
        StudyConfig("example1", [1e-300], [1.0], [4], mu=1e300)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# study\nexample = example2\nlambda = 1e0,1e4\n"
                   "n = 4,8  # coarse\n")
    values = load_config_file(str(cfg))
    assert values == {"example": "example2", "lambda": "1e0,1e4",
                      "n": "4,8"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda 1e0\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config_file(str(bad))


def test_config_file_is_closed(tmp_path, monkeypatch):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example = example2\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda 1e0\n")
    # a file left open warns when it is freed; under "error" that warning
    # is raised inside the finalizer and reaches sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert load_config_file(str(cfg)) == {"example": "example2"}
        with pytest.raises(ConfigError, match="key=value"):
            load_config_file(str(bad))
        gc.collect()
    assert [u.exc_type for u in unraisable] == []


def test_command_line_overrides_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example = example2\nlambda = 1e0\nn = 4\nmu = 2.0\n")

    class Args:
        example = None
        lam = [1e4]
        iota = None
        n = None
        mu = None
        out = None
        threads = None
        config = str(cfg)

    config = _merge_config(Args())
    assert config.example == "example2"
    assert config.lams == [1e4]          # flag wins
    assert config.ns == [4]              # file wins over default
    assert config.mu == 2.0
    assert config.iotas == [1e-4, 1e-6, 1e-8]   # example2 default


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "study.cfg"

    class Args:
        example = None
        lam = iota = n = mu = out = threads = None
        config = str(cfg)

    # meshes are named by n alone, so a large key is unknown too, and
    # the solver has no tolerance to set
    for text in ("tolerance = 1e-9\n", "large = yes\n", "tol = 1e-9\n"):
        cfg.write_text(text)
        with pytest.raises(ConfigError, match="unknown config keys"):
            _merge_config(Args())


def test_default_grid():
    class Args:
        example = "example1"
        lam = iota = n = mu = out = threads = None
        config = None

    config = _merge_config(Args())
    assert config.ns == [16, 32, 64]
    assert config.lams == [1.0, 1e4, 1e8]
    assert config.iotas == [1.0, 1e-1, 1e-8]


def test_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--example", "example9"])
    assert exc.value.code == 3


@pytest.mark.parametrize("args, config_text, message", [
    (["convergence", "--n", "1"], None, "at least 2"),
    (["convergence", "--mu", "0"], None, "mu must be positive"),
    (["convergence"], "tol = 1e-9\n", "unknown config keys: tol"),
    (["convergence", "--threads", "0"], None, "threads must be at least 1"),
    (["verify", "--n", "2", "--threads", "0"], None,
     "threads must be at least 1"),
    (["convergence", "--lambda", ""], None, "nonempty"),
    (["convergence", "--iota", ""], None, "nonempty"),
    (["convergence"], "mu = 0\n", "mu must be positive"),
    (["convergence"], "mu = abc\n", "config key mu"),
    (["convergence"], "threads = 1.5\n", "config key threads"),
    # a repeated n once divided by log2(1) in the rate column
    (["convergence", "--n", "2,2"], None, "n values must be distinct"),
    (["convergence", "--lambda", "1,1"], None,
     "lambda values must be distinct"),
    (["convergence", "--iota", "1,1"], None, "iota values must be distinct"),
    (["convergence", "--lambda", "nan"], None,
     "lambda values must be positive"),
    (["convergence"], "n = 4,4\n", "n values must be distinct"),
    (["convergence"], "lambda = nan\n", "lambda values must be positive"),
    # verify applies the list rules of the studies
    (["verify", "--n="], None, "the n list must be nonempty"),
    (["verify", "--iota="], None, "the iota list must be nonempty"),
    (["verify", "--iota", "-1"], None, "iota values must lie in (0, 1]"),
    (["verify", "--iota", "0"], None, "iota values must lie in (0, 1]"),
    (["verify", "--iota", "2"], None, "iota values must lie in (0, 1]"),
    (["verify", "--iota", "nan"], None, "iota values must lie in (0, 1]"),
    (["verify", "--n", "3,3"], None, "n values must be distinct"),
    (["verify", "--seed", "-1"], None, "seed must be at least 0"),
    # an infinite mu is invalid input, not a breakdown of every cell
    (["convergence", "--mu", "inf"], None, "mu must be positive and finite"),
    (["convergence", "--mu", "1e400"], None,
     "mu must be positive and finite"),
    (["convergence"], "mu = inf\n", "mu must be positive and finite"),
    (["solve", "--n", "2", "--lambda", "1", "--iota", "1e-6", "--mu",
      "inf"], None, "mu must be positive and finite"),
    # each cell is solved at lambda / mu, which underflows to 0 here
    (["convergence", "--mu", "1e300", "--lambda", "1e-300"], None,
     "lambda / mu must be positive"),
    # ... and its reciprocal, the shift of the pressure block, overflows
    (["convergence", "--example", "example1", "--n", "4", "--lambda",
      "1e-310", "--iota", "1"], None, "with a finite reciprocal"),
    (["convergence", "--mu", "1e10", "--lambda", "1e-300"], None,
     "with a finite reciprocal"),
], ids=["n", "mu", "config-tol", "threads", "verify-threads",
        "lambda-empty", "iota-empty", "config-mu", "config-mu-text",
        "config-threads-float", "n-repeated", "lambda-repeated",
        "iota-repeated", "lambda-nan", "config-n-repeated", "config-lambda-nan",
        "verify-n-empty", "verify-iota-empty", "verify-iota-negative",
        "verify-iota-zero", "verify-iota-above-1", "verify-iota-nan",
        "verify-n-repeated", "verify-seed-negative", "mu-inf", "mu-overflow",
        "config-mu-inf", "solve-mu-inf", "lambda-over-mu-underflow",
        "lambda-reciprocal-overflow", "lambda-over-mu-reciprocal-overflow"])
def test_bad_config_value_returns_3(tmp_path, capsys, args, config_text,
                                    message):
    # an explicit value is validated, never replaced by the default
    argv = args + ["--out", str(tmp_path / "t.csv")]
    if config_text is not None:
        cfg = tmp_path / "study.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    assert run(argv) == 3
    assert message in capsys.readouterr().err


def test_convergence_table_shape_and_determinism(tmp_path):
    out = tmp_path / "table.csv"
    args = ["convergence", "--example", "example2", "--lambda", "1e0,1e8",
            "--iota", "1e-6", "--n", "2,4", "--out", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 1 * 2
    # first row of each (lambda, iota) block carries no rate
    for row in (lines[1], lines[3]):
        assert row.split(",")[9] == ""
    assert all(row.endswith("ok") for row in lines[1:])
    assert run(args) == 0
    assert out.read_bytes() == first


def test_rates_recomputed_from_emitted_values(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["convergence", "--example", "example1", "--lambda", "1e0",
                "--iota", "1e-1", "--n", "4,8,16", "--out",
                str(out)]) == 0
    rows = [r.split(",") for r in
            out.read_text().strip().split("\n")[1:]]
    for prev, cur in zip(rows, rows[1:]):
        want = math.log2(float(prev[7]) / float(cur[7])) \
            / math.log2(int(cur[3]) / int(prev[3]))
        assert float(cur[9]) == pytest.approx(want, abs=0.005)


def test_threads_flag_overrides_inherited_blas_variables(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert run(["convergence", "--example", "example2", "--lambda", "1e0",
                "--iota", "1e-6", "--n", "2", "--threads", "1", "--out",
                str(tmp_path / "table.csv")]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_inherited_blas_variables_kept_without_threads_flag(tmp_path,
                                                            monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert run(["convergence", "--example", "example2", "--lambda", "1e0",
                "--iota", "1e-6", "--n", "2", "--out",
                str(tmp_path / "table.csv")]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert os.environ["OMP_NUM_THREADS"] == "1"


def _force_breakdown(monkeypatch):
    import sgefem.linalg

    def boom(system):
        raise SolverBreakdown("forced", math.inf, 0)

    monkeypatch.setattr(sgefem.linalg, "solve_saddle", boom)


def test_breakdown_flagged_and_exit_2(tmp_path, monkeypatch):
    _force_breakdown(monkeypatch)
    out = tmp_path / "table.csv"
    assert run(["convergence", "--example", "example2", "--lambda", "1e0",
                "--iota", "1e-6", "--n", "2", "--out", str(out)]) == 2
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[-1] == "breakdown"
    assert row[7] == "nan" and row[9] == ""


def _forced_breakdown_solve(monkeypatch, out):
    _force_breakdown(monkeypatch)
    return run(["solve", "--example", "example2", "--lambda", "1e0",
                "--iota", "1e-6", "--n", "2", "--out", str(out)])


def test_solve_breakdown_exits_2(tmp_path, monkeypatch, capsys):
    # and leaves no output file where there was none
    out = tmp_path / "sol.csv"
    assert _forced_breakdown_solve(monkeypatch, out) == 2
    assert capsys.readouterr().err.startswith("solver breakdown: forced")
    assert not out.exists()


def test_solve_breakdown_keeps_an_existing_output(tmp_path, monkeypatch,
                                                  capsys):
    out = tmp_path / "sol.csv"
    out.write_bytes(b"x,y,u1,u2,p\n0,0,1,2,3\n")
    assert _forced_breakdown_solve(monkeypatch, out) == 2
    assert capsys.readouterr().err.startswith("solver breakdown: forced")
    assert out.read_bytes() == b"x,y,u1,u2,p\n0,0,1,2,3\n"


@pytest.mark.parametrize("via", ["flag", "config"])
def test_solve_with_an_empty_out_exits_3(tmp_path, monkeypatch, capsys, via):
    # an empty path is refused, as convergence and verify refuse it, not
    # replaced by the default ./solution.csv
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--example", "example2", "--lambda", "1e4", "--iota",
            "1e-6", "--n", "2"]
    if via == "flag":
        argv += ["--out", ""]
    else:
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("out =\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 3
    assert "cannot write the output" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def _small_study(ns=(4,)):
    return StudyConfig("example1", [1.0, 1e4, 1e8], [1.0, 1e-8], list(ns))


def test_study_frees_the_parts_before_the_last_iotas_factor(monkeypatch):
    # each iota sums the a- and b-parts anew through their scatter
    # plans, so no summed a- or b-part (a plan's matrix with the n_u
    # columns of A and B) is alive when any iota's A is factored; the
    # plans themselves are dead when the last iota's A is
    import sgefem.discretization
    import sgefem.linalg
    from sgefem.assembly import ScatterPlan

    parts, plans, a_shape, alive = [], [], [], []

    def recording(assemble):
        def wrapper(*args):
            result = assemble(*args)
            plans.append(weakref.ref(result[0]))
            a_shape.append(result[0].shape)
            return result
        return wrapper

    for name in ("assemble_a_parts", "assemble_b_parts"):
        monkeypatch.setattr(sgefem.discretization, name,
                            recording(getattr(sgefem.discretization, name)))
    csr = ScatterPlan.csr

    def summing(plan, kernels):
        M = csr(plan, kernels)
        parts.append((M.shape[1], weakref.ref(M.data)))
        return M

    monkeypatch.setattr(ScatterPlan, "csr", summing)
    factor = sgefem.linalg.spd_factor

    def checking(M):
        if M.shape == a_shape[0]:
            alive.append((sum(r() is not None for cols, r in parts
                              if cols == M.shape[1]),
                          sum(r() is not None for r in plans)))
        return factor(M)

    monkeypatch.setattr(sgefem.linalg, "spd_factor", checking)
    gc.disable()        # refcounting alone must free them
    try:
        _study_rows(StudyConfig("example1", [1.0, 1e4, 1e8],
                                [1.0, 1e-1, 1e-8], [4]))
    finally:
        gc.enable()
    assert alive == [(0, 2), (0, 2), (0, 0)]


def test_study_trims_the_heap_before_every_factorization(monkeypatch):
    # each factorization (A and G per iota) starts right after a trim of
    # the freed heap, and nothing else trims
    import sgefem.linalg

    events = []
    splu = sgefem.linalg.splu

    def recording_splu(*args, **kwargs):
        events.append("splu")
        return splu(*args, **kwargs)

    monkeypatch.setattr(sgefem.linalg, "splu", recording_splu)
    monkeypatch.setattr(sgefem.linalg, "_MALLOC_TRIM",
                        lambda pad: events.append("trim"))
    _study_rows(_small_study())
    assert events == ["trim", "splu"] * 4


def test_study_builds_the_exact_tables_after_the_factors_die(monkeypatch):
    # every cell of a mesh is solved and its factors freed before the
    # first error measurement builds the exact tables
    import sgefem.discretization

    factors, seen = [], []
    make = sgefem.discretization.SaddleFactors
    exact = sgefem.discretization.exact_tables

    def recording(*args):
        f = make(*args)
        factors.append(weakref.ref(f))
        return f

    def checking(*args):
        seen.append((len(factors), sum(r() is not None for r in factors)))
        return exact(*args)

    monkeypatch.setattr(sgefem.discretization, "SaddleFactors", recording)
    monkeypatch.setattr(sgefem.discretization, "exact_tables", checking)
    gc.disable()
    try:
        _study_rows(_small_study(ns=(3, 4)))
    finally:
        gc.enable()
    # two iotas, so two factors per mesh, all dead
    assert seen == [(2, 0), (4, 0)]


def test_study_holds_one_iotas_factors_at_a_time(monkeypatch):
    # the factors of an iota are dead before the next iota's matrices
    # are combined, and before the errors combine the pressure Gram
    import sgefem.discretization

    from sgefem.assembly import ScatterPlan

    factors, seen = [], []
    make = sgefem.discretization.SaddleFactors

    def recording(*args):
        f = make(*args)
        factors.append(weakref.ref(f))
        return f

    def counting(combine):
        def wrapper(*args):
            seen.append(sum(r() is not None for r in factors))
            return combine(*args)
        return wrapper

    monkeypatch.setattr(sgefem.discretization, "SaddleFactors", recording)
    monkeypatch.setattr(sgefem.discretization, "combine_parts",
                        counting(sgefem.discretization.combine_parts))
    monkeypatch.setattr(ScatterPlan, "combine",
                        counting(ScatterPlan.combine))
    gc.disable()
    try:
        _study_rows(StudyConfig("example1", [1.0, 1e4, 1e8],
                                [1.0, 1e-1, 1e-8], [4]))
    finally:
        gc.enable()
    # three matrices per iota, then one pressure Gram per measured cell
    assert len(factors) == 3
    assert seen == [0] * (3 * 3 + 3 * 3)


def test_study_frees_an_iotas_factors_before_the_next_a_is_factored(
        monkeypatch):
    # the lambda cells' systems hold their factors, and the factors hold
    # the systems only weakly: refcounting alone, with no system left
    # bound, frees an iota's L + U before the next iota's matrices are
    # combined and its A is factored, and the last iota's before the
    # errors build the exact tables
    import sgefem.discretization
    import sgefem.linalg

    factors, seen = [], []

    def checking(name, function):
        def checked(*args):
            seen.append((name, [r() is not None for r in factors]))
            return function(*args)
        return checked

    def recording(*args):
        f = checking("factors", make)(*args)
        factors.append(weakref.ref(f))
        return f

    make = sgefem.discretization.SaddleFactors
    monkeypatch.setattr(sgefem.discretization, "SaddleFactors", recording)
    monkeypatch.setattr(sgefem.linalg, "spd_factor",
                        checking("factor", sgefem.linalg.spd_factor))
    monkeypatch.setattr(sgefem.discretization, "exact_tables", checking(
        "exact", sgefem.discretization.exact_tables))
    gc.disable()
    try:
        _study_rows(StudyConfig("example1", [1.0, 1e4, 1e8], [1.0, 1e-8],
                                [4]))
    finally:
        gc.enable()
    # each iota's factors, then its A and G factored; then the tables
    assert seen == [("factors", []), ("factor", [True]), ("factor", [True]),
                    ("factors", [False]), ("factor", [False, True]),
                    ("factor", [False, True]), ("exact", [False, False])]


def test_breakdown_in_the_middle_of_a_mesh_flags_only_its_row(monkeypatch):
    import sgefem.linalg

    config = _small_study()
    clean = _study_rows(config)
    solve, failed = sgefem.linalg.solve_saddle, []

    def failing_once(system):
        if system.shift == 1.0 / 1e4 and not failed:
            failed.append(system)
            raise SolverBreakdown("forced", math.inf, 0)
        return solve(system)

    monkeypatch.setattr(sgefem.linalg, "solve_saddle", failing_once)
    broken = _study_rows(config)
    assert broken.keys() == clean.keys()
    for key, row in broken.items():
        if key == (1e4, 1.0, 4):
            assert row[5] == "breakdown" and math.isnan(row[3])
        else:
            assert row == clean[key], key


def test_verify_subcommand_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["verify", "--n", "2,4", "--iota", "1,1e-4", "--out",
                str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "check,value,threshold,pass"
    # one beta entry per (n, iota) pair with 3 <= n <= 8
    betas = [l for l in lines if l.startswith("infsup_beta")]
    assert len(betas) == 1 * 2


@pytest.mark.parametrize("ns", ["33", "4,64"])
def test_verify_rejects_n_above_the_inf_sup_range(ns, capsys):
    # an n the inf-sup check cannot take is refused, not skipped
    assert run(["verify", "--n", ns]) == 3
    assert "3 <= n <= 32" in capsys.readouterr().err


def test_verify_reports_inf_sup_at_n16(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["verify", "--n", "4,16", "--iota", "1,1e-6",
                "--out", str(out)]) == 0
    assert "overall: pass" in capsys.readouterr().out
    rows = [l for l in out.read_text().split("\n")
            if l.startswith("infsup_beta_n16_")]
    assert [r.split(",")[0] for r in rows] == ["infsup_beta_n16_iota1",
                                               "infsup_beta_n16_iota1e-06"]


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--config", "/nonexistent"],
    ["verify", "--n", "2", "--mu", "-5"],
    ["verify", "--n", "2", "--tol", "7"],
    ["solve", "--lambda", "1", "--iota", "1", "--n", "2", "--large"],
    ["convergence", "--large"],
    ["convergence", "--tol", "1e-9"],
], ids=["verify-config", "verify-mu", "verify-tol", "solve-large",
        "convergence-large", "convergence-tol"])
def test_flag_the_subcommand_does_not_read_exits_3(argv, capsys):
    # a flag that would be ignored is refused by the parser
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_huge_mu_is_solved_without_a_warning(tmp_path):
    # on the blocks of mu = 1e200 the backward error overflowed: a
    # breakdown of every cell, with RuntimeWarnings
    out = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["convergence", "--example", "example1", "--n", "4",
                    "--mu", "1e200", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 9 and all(r.endswith(",ok") for r in rows)


def test_a_power_of_two_mu_scales_p_and_e_u_exactly():
    # at lambda = inf, lambda / mu does not move with mu, so against
    # mu = 1, bit for bit, u is the same, p and 1 / E_u scale by mu and
    # E_p is the same, also where p^T G_Q p of the unscaled p would
    # overflow (mu = 2^900) or underflow (mu = 2^-900)
    from sgefem.discretization import Discretization
    from sgefem.mesh import build_uniform_unit_square

    iotas = [1.0, 1e-8]

    def cells(mu):
        disc = Discretization(build_uniform_unit_square(4), "example1")
        return disc.solve(mu, [math.inf], iotas)

    def rows(mu):
        return _study_rows(StudyConfig("example1", [math.inf], iotas,
                                       [4, 8], mu=mu))

    cells_1, rows_1 = cells(1.0), rows(1.0)
    for k in (900, -900):
        mu = math.ldexp(1.0, k)
        for key, (u, p) in cells(mu).items():
            assert np.array_equal(u, cells_1[key][0]), (k, key)
            assert np.array_equal(p, np.ldexp(cells_1[key][1], k)), (k, key)
        for key, (*sizes, e_u, e_p, status) in rows(mu).items():
            assert status == "ok" and sizes == list(rows_1[key][:3])
            assert e_p == rows_1[key][4], (k, key)
            assert e_u == math.ldexp(rows_1[key][3], -k), (k, key)


def test_readme_quotes_the_mu_cells():
    # README's --mu paragraph quotes E_u and E_p at n = 4, lambda = 1e4,
    # iota = 1 for mu = 1, 2 and 10
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split())
    for mu in ("1", "2", "10"):
        config = StudyConfig("example1", [1e4], [1.0], [4], mu=float(mu))
        row = format_table(config, _study_rows(config)).split("\n")[1]
        e_u, e_p = row.split(",")[7:9]
        assert e_u in text and e_p in text, (mu, e_u, e_p)


def test_readme_names_exactly_the_options_of_the_parser():
    # every flag the README's command-line section names is accepted by
    # some subcommand, and every option of each subcommand is named there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.split(r"\n## ", readme.split("\n## Command line\n")[1])[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: {f for f in sub._option_string_actions
                      if f.startswith("--") and f != "--help"}
               for name, sub in subparsers.choices.items()}
    assert named - set().union(*options.values()) == set()
    for name, flags in options.items():
        assert flags - named == set(), name


def test_repeated_config_key_exits_3(tmp_path, capsys):
    # the second n once replaced the first silently
    cfg = tmp_path / "study.cfg"
    cfg.write_text("n = 4\n# coarse\nn = 2,3\n")
    assert run(["convergence", "--config", str(cfg),
                "--out", str(tmp_path / "t.csv")]) == 3
    assert "study.cfg:3: key n repeats line 1" in capsys.readouterr().err
    cfg.write_text("lambda = 1\nlambda=1\n")
    with pytest.raises(ConfigError, match="key lambda repeats line 1"):
        load_config_file(str(cfg))


@pytest.mark.parametrize("text, line", [("= 4\n", 1), ("n = 4\n= 4\n", 2)],
                         ids=["alone", "after-n"])
def test_empty_config_key_exits_3(tmp_path, capsys, text, line):
    # an empty key was reported as "unknown config keys: ", naming
    # neither the key nor the line
    cfg = tmp_path / "study.cfg"
    cfg.write_text(text)
    assert run(["convergence", "--config", str(cfg),
                "--out", str(tmp_path / "t.csv")]) == 3
    assert "study.cfg:%d: empty key" % line in capsys.readouterr().err


def test_verify_iota_needs_an_inf_sup_mesh(capsys):
    # an iota list with no n >= 3 once ran no inf-sup check and passed
    assert run(["verify", "--n", "2", "--iota", "1e-3"]) == 3
    assert "--iota needs an n in 3..32" in capsys.readouterr().err
    # the default n list holds inf-sup meshes
    assert run(["verify", "--iota", "1e-3"]) == 0
    assert "infsup_beta_n8_iota0.001" in capsys.readouterr().out


def test_verify_flip_edge_fails_with_exit_1(capsys):
    # edge 7 is interior on the n=2 mesh, where the flip is injected
    assert run(["verify", "--n", "2", "--debug-flip-edge", "7"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("edge", ["999", "-1", "0"],
                         ids=["past-last", "negative", "boundary"])
def test_verify_flip_edge_rejects_non_interior_edge(edge, capsys):
    # edge 0 is on the boundary of the n=2 mesh, which has 16 edges
    assert run(["verify", "--n", "2", "--debug-flip-edge", edge]) == 3
    assert "interior edge" in capsys.readouterr().err


def test_verify_flip_edge_builds_each_mesh_once(monkeypatch, capsys):
    import sgefem.mesh
    import sgefem.verify

    built = []
    build = sgefem.mesh.build_uniform_unit_square

    def counting_build(n):
        built.append(n)
        return build(n)

    # the cli would import the builder from sgefem.mesh, verify holds
    # its own binding
    monkeypatch.setattr(sgefem.mesh, "build_uniform_unit_square",
                        counting_build)
    monkeypatch.setattr(sgefem.verify, "build_uniform_unit_square",
                        counting_build)
    assert run(["verify", "--n", "2,3", "--iota", "1",
                "--debug-flip-edge", "7"]) == 1
    assert built == [2, 3]
    built.clear()
    assert run(["verify", "--n", "2,3", "--iota", "1",
                "--debug-flip-edge", "0"]) == 3
    assert built == [2]
    assert "interior edge" in capsys.readouterr().err


def test_infinite_lambda_stays_accepted(capsys):
    # lambda = infinity is the incompressible limit, solved with shift 0
    assert run(["convergence", "--n", "2", "--lambda", "inf", "--iota",
                "1e-6"]) == 0
    assert capsys.readouterr().out.split("\n")[1].endswith(",ok")


each_subcommand = pytest.mark.parametrize("argv", [
    ["convergence", "--n", "2", "--lambda", "1", "--iota", "1e-6"],
    ["solve", "--n", "2", "--lambda", "1", "--iota", "1e-6"],
    ["verify", "--n", "2,3", "--iota", "1"],
], ids=["convergence", "solve", "verify"])


@each_subcommand
def test_unwritable_out_exits_3_before_any_work(argv, tmp_path,
                                                monkeypatch, capsys):
    import sgefem.linalg
    import sgefem.mesh
    import sgefem.verify

    work = []

    def build(n):
        work.append("mesh")
        raise AssertionError("a mesh was built")

    def solve(*args, **kwargs):
        work.append("solve")
        raise AssertionError("a system was solved")

    monkeypatch.setattr(sgefem.mesh, "build_uniform_unit_square", build)
    monkeypatch.setattr(sgefem.verify, "build_uniform_unit_square", build)
    monkeypatch.setattr(sgefem.linalg, "solve_saddle", solve)
    out = tmp_path / "missing" / "x.csv"
    assert run(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the output")
    assert err.count("\n") == 1
    assert work == [] and not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@each_subcommand
def test_failed_output_write_exits_3(argv, capsys):
    # /dev/full opens, so the run goes ahead, but writing to it fails:
    # exit 3 with one line, not exit 1 with a traceback
    assert run(argv + ["--out", "/dev/full"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the output: ")
    assert err.count("\n") == 1


@each_subcommand
def test_write_failure_removes_only_a_file_it_created(argv, tmp_path,
                                                      monkeypatch, capsys):
    import sgefem.cli

    def failing(path, mode="r", **kwargs):
        if mode != "w":
            return open(path, mode, **kwargs)
        with open(path, mode, **kwargs) as fh:
            fh.write("x,y")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sgefem.cli, "open", failing, raising=False)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("x,y,u1,u2,p\n")
    assert run(argv + ["--out", str(new)]) == 3
    assert run(argv + ["--out", str(old)]) == 3
    assert capsys.readouterr().err.count("cannot write the output") == 2
    assert not new.exists() and old.exists()


@each_subcommand
def test_a_run_without_output_leaves_no_file(argv, tmp_path, monkeypatch,
                                             capsys):
    # the writability check leaves no file behind, so a run that ends
    # before its output is written leaves none where there was none, and
    # an existing file keeps its bytes
    import sgefem.discretization

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    if argv[0] == "verify":
        argv = argv + ["--debug-flip-edge", "0"]    # a boundary edge
    elif argv[0] == "solve":
        _force_breakdown(monkeypatch)
    else:
        monkeypatch.setattr(sgefem.discretization.Discretization, "solve",
                            out_of_memory)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"x,y,u1,u2,p\n0,0,1,2,3\n")
    for path in (new, old):
        if argv[0] == "convergence":
            with pytest.raises(MemoryError):
                run(argv + ["--out", str(path)])
        else:
            assert run(argv + ["--out", str(path)]) \
                == {"verify": 3, "solve": 2}[argv[0]]
    assert not new.exists()
    assert old.read_bytes() == b"x,y,u1,u2,p\n0,0,1,2,3\n"


def test_solve_export(tmp_path):
    out = tmp_path / "sol.csv"
    args = ["solve", "--example", "example2", "--lambda", "1e0", "--iota",
            "1e-6", "--n", "8", "--out", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0] == "x,y,u1,u2,p"
    assert len(lines) == 1 + 9 * 9
    data = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    on_bnd = ((data[:, 0] == 0) | (data[:, 0] == 1)
              | (data[:, 1] == 0) | (data[:, 1] == 1))
    assert np.all(data[on_bnd, 2] == 0.0)
    assert np.all(data[on_bnd, 3] == 0.0)
    assert np.any(data[~on_bnd, 2:4] != 0.0)
    assert abs(data[:, 4].mean()) < 1e-10 * np.max(np.abs(data[:, 4]))
    assert run(args) == 0
    assert out.read_bytes() == first


def test_solve_rejects_value_lists(tmp_path, capsys):
    assert run(["solve", "--lambda", "1e0,1e4", "--n", "4", "--iota",
                "1e-6", "--out", str(tmp_path / "s.csv")]) == 3
    assert "single" in capsys.readouterr().err


def test_format_table_groups_by_lambda_iota():
    config = StudyConfig("example1", [1.0, 2.0], [0.5], [2, 4])
    results = {}
    for lam in (1.0, 2.0):
        for n, e in ((2, 1e-2), (4, 2.5e-3)):
            results[lam, 0.5, n] = (1.0 / n, 10, 3, e, e / 10, "ok")
    text = format_table(config, results)
    lines = text.strip().split("\n")
    assert len(lines) == 5
    assert lines[2].split(",")[9] == "2.00"
    assert lines[4].split(",")[9] == "2.00"
