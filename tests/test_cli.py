import math
import os

import numpy as np
import pytest

from sgefem.cli import (CSV_HEADER, ConfigError, StudyConfig,
                        _merge_config, format_table, load_config_file,
                        main)
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
    with pytest.raises(ConfigError, match="tol"):
        StudyConfig("example1", [1.0], [1.0], [4], tol=1e-4)


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


def test_command_line_overrides_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example = example2\nlambda = 1e0\nn = 4\nmu = 2.0\n")

    class Args:
        example = None
        lam = [1e4]
        iota = None
        n = None
        mu = None
        tol = None
        out = None
        threads = None
        large = False
        config = str(cfg)

    config = _merge_config(Args())
    assert config.example == "example2"
    assert config.lams == [1e4]          # flag wins
    assert config.ns == [4]              # file wins over default
    assert config.mu == 2.0
    assert config.iotas == [1e-4, 1e-6, 1e-8]   # example2 default


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("tolerance = 1e-9\n")

    class Args:
        example = None
        lam = iota = n = mu = tol = out = threads = None
        large = False
        config = str(cfg)

    with pytest.raises(ConfigError, match="unknown config keys"):
        _merge_config(Args())


def test_default_grid_with_and_without_large(tmp_path):
    class Args:
        example = "example1"
        lam = iota = n = mu = tol = out = threads = None
        large = False
        config = None

    config = _merge_config(Args())
    assert config.ns == [16, 32, 64]
    assert config.lams == [1.0, 1e4, 1e8]
    assert config.iotas == [1.0, 1e-1, 1e-8]
    Args.large = True
    assert _merge_config(Args()).ns == [16, 32, 64, 128, 256]
    # a config file switches the tail on or off with 1/true/yes, 0/false/no
    Args.large = False
    Args.config = str(tmp_path / "study.cfg")
    for text, ns in (("no", [16, 32, 64]), ("0", [16, 32, 64]),
                     ("yes", [16, 32, 64, 128, 256])):
        (tmp_path / "study.cfg").write_text("large = %s\n" % text)
        assert _merge_config(Args()).ns == ns


def test_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--example", "example9"])
    assert exc.value.code == 3


@pytest.mark.parametrize("args, config_text, message", [
    (["convergence", "--n", "1"], None, "at least 2"),
    (["convergence", "--mu", "0"], None, "mu must be positive"),
    (["convergence", "--tol", "0"], None, "tol must lie"),
    (["convergence", "--threads", "0"], None, "threads must be at least 1"),
    (["verify", "--n", "2", "--threads", "0"], None,
     "threads must be at least 1"),
    (["convergence", "--lambda", ""], None, "nonempty"),
    (["convergence", "--iota", ""], None, "nonempty"),
    (["convergence"], "mu = 0\n", "mu must be positive"),
    (["convergence"], "mu = abc\n", "config key mu"),
    (["convergence"], "threads = 1.5\n", "config key threads"),
    (["convergence"], "large = maybe\n", "not a boolean"),
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
], ids=["n", "mu", "tol", "threads", "verify-threads", "lambda-empty",
        "iota-empty", "config-mu", "config-mu-text", "config-threads-float",
        "config-large", "n-repeated", "lambda-repeated", "iota-repeated",
        "lambda-nan", "config-n-repeated", "config-lambda-nan",
        "verify-n-empty", "verify-iota-empty", "verify-iota-negative",
        "verify-iota-zero", "verify-iota-above-1", "verify-iota-nan",
        "verify-n-repeated", "verify-seed-negative"])
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


def test_breakdown_flagged_and_exit_2(tmp_path, monkeypatch):
    import sgefem.linalg

    def boom(system, tol=1e-10):
        raise SolverBreakdown("forced", math.inf, 0)

    monkeypatch.setattr(sgefem.linalg, "solve_saddle", boom)
    out = tmp_path / "table.csv"
    assert run(["convergence", "--example", "example2", "--lambda", "1e0",
                "--iota", "1e-6", "--n", "2", "--out", str(out)]) == 2
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[-1] == "breakdown"
    assert row[7] == "nan" and row[9] == ""


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
], ids=["verify-config", "verify-mu", "verify-tol", "solve-large"])
def test_flag_the_subcommand_does_not_read_exits_3(argv, capsys):
    # a flag that would be ignored is refused by the parser
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_rejects_large_config_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("large = yes\n")
    assert run(["solve", "--lambda", "1", "--iota", "1", "--n", "2",
                "--config", str(cfg),
                "--out", str(tmp_path / "s.csv")]) == 3
    assert "large" in capsys.readouterr().err


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
