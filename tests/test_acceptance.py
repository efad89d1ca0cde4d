"""Acceptance gate: frozen study values, robustness bounds, golden
outputs (tests/golden/) and the structural property suite.

Each test prints a single pass/fail line; run ``pytest -s`` to see them
on a green run.  The reference errors are the values the uniform-mesh
studies must reproduce (each entry is a (low, high) spread across the
lambda column, checked within 2% relative).
"""
import importlib.util
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (ProblemParams, body_force_elasticity, body_force_sge,
                     fd_derivative, field_value)
from sgefem.cli import (StudyConfig, _study_rows, format_table, run_solve,
                        run_verify)
from sgefem.manufactured import FIELDS
from sgefem.verify import run_verification

LAMBDAS = [1e0, 1e4, 1e8]
NS = [16, 32, 64]

EX1_REF = {
    1e-8: ((2.008e-3, 2.009e-3), (5.477e-4, 5.477e-4),
           (1.407e-4, 1.407e-4)),
    1e0: ((5.375e-4, 5.375e-4), (2.776e-4, 2.776e-4),
          (1.399e-4, 1.399e-4)),
    1e-1: ((4.561e-3, 4.562e-3), (2.334e-3, 2.334e-3),
           (1.173e-3, 1.173e-3)),
}
EX1_RATE_BAND = {1e-8: (1.90, 2.10), 1e0: (0.90, 1.10),
                 1e-1: (0.90, 1.10)}
EX2_REF = ((2.052e-2, 2.053e-2), (1.445e-2, 1.446e-2),
           (1.020e-2, 1.020e-2))
EX2_LARGE_REF = ((7.206e-3, 7.207e-3), (5.093e-3, 5.094e-3))


#: the files of tests/golden/make_goldens.py, which generates them
GOLDEN = Path(__file__).resolve().parent / "golden"
#: the (lambda, iota, n) cells whose E_p is fixed only to about 5 of its
#: 6 printed digits (ROADMAP, known noise): roundoff-level changes of A
#: or of its factor move it; the golden tests hold it to 5 significant
#: digits there, and the rest of its row byte for byte
NOISE_CELLS = frozenset([(lam, iota, 64) for lam in LAMBDAS
                         for iota in (1e0, 1e-1)] + [(1e0, 1e0, 32)])


def report(name, ok, detail):
    print("%s: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def range_deviation(value, ref):
    """Relative distance of value to the interval [lo, hi] (0 inside)."""
    lo, hi = ref
    if lo <= value <= hi:
        return 0.0
    edge = lo if value < lo else hi
    return abs(value - edge) / edge


def max_grid_deviation(results, refs, iota):
    worst = 0.0
    for i, n in enumerate(NS):
        for lam in LAMBDAS:
            e_u = results[lam, iota, n][3]
            worst = max(worst, range_deviation(e_u, refs[i]))
    return worst


def last_pair_rate(results, lam, iota):
    e_prev = results[lam, iota, NS[-2]][3]
    e_last = results[lam, iota, NS[-1]][3]
    return math.log2(e_prev / e_last) / math.log2(NS[-1] / NS[-2])


@pytest.fixture(scope="module")
def smooth_study():
    t0 = time.perf_counter()
    results = _study_rows(StudyConfig("example1", LAMBDAS, [1e-8], NS))
    elapsed = time.perf_counter() - t0
    results.update(_study_rows(
        StudyConfig("example1", LAMBDAS, [1e0, 1e-1], NS)))
    return results, elapsed


@pytest.fixture(scope="module")
def layer_study():
    return _study_rows(StudyConfig("example2", LAMBDAS, [1e-6, 1e-8], NS))


def test_smooth_field_errors_smallest_iota(smooth_study):
    results, elapsed = smooth_study
    dev = max_grid_deviation(results, EX1_REF[1e-8], 1e-8)
    report("acceptance 1 (smooth field, iota=1e-8 error grid)",
           dev <= 0.02 and elapsed < 120.0,
           "max deviation %.2e, grid wall %.1f s" % (dev, elapsed))


def test_smooth_field_iota_regimes_and_rates(smooth_study):
    results, _ = smooth_study
    devs = {iota: max_grid_deviation(results, EX1_REF[iota], iota)
            for iota in (1e0, 1e-1)}
    rates = {iota: last_pair_rate(results, 1e0, iota)
             for iota in (1e-8, 1e0, 1e-1)}
    values_ok = all(d <= 0.02 for d in devs.values())
    rates_ok = all(EX1_RATE_BAND[i][0] <= r <= EX1_RATE_BAND[i][1]
                   for i, r in rates.items())
    report("acceptance 2 (smooth field, iota regimes and rates)",
           values_ok and rates_ok,
           "max deviation %.2e, last-pair rates %s"
           % (max(devs.values()),
              {("%g" % i): round(r, 2) for i, r in rates.items()}))


def test_lambda_robustness(smooth_study):
    results, _ = smooth_study
    worst = 0.0
    for iota in (1e-8, 1e0, 1e-1):
        for n in NS:
            vals = [results[lam, iota, n][3] for lam in LAMBDAS]
            worst = max(worst, max(vals) / min(vals) - 1.0)
    report("acceptance 3 (errors vary < 0.5% across lambda)",
           worst < 0.005, "max lambda spread %.2e" % worst)


def test_boundary_layer_errors_and_rate_trend(layer_study):
    results = layer_study
    worst = max(max_grid_deviation(results, EX2_REF, iota)
                for iota in (1e-6, 1e-8))
    rates_ok = True
    seen = []
    for iota in (1e-6, 1e-8):
        for lam in LAMBDAS:
            errs = [results[lam, iota, n][3] for n in NS]
            rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
            seen.append([round(r, 3) for r in rates])
            rates_ok &= all(0.45 <= r <= 0.60 for r in rates)
            rates_ok &= rates[-1] <= rates[0] + 0.02
            rates_ok &= abs(rates[-1] - 0.50) <= 0.05
    report("acceptance 4 (boundary layer errors, rate trend to 0.50)",
           worst <= 0.02 and rates_ok,
           "max deviation %.2e, rates %s" % (worst, seen[0]))


def test_boundary_layer_large_meshes(request):
    if not request.config.getoption("--large"):
        pytest.skip("pass --large to run the n in {128, 256} tail")
    results = _study_rows(
        StudyConfig("example2", LAMBDAS, [1e-6, 1e-8], [128, 256]))
    worst = 0.0
    rates_ok = True
    for iota in (1e-6, 1e-8):
        for lam in LAMBDAS:
            e128 = results[lam, iota, 128][3]
            e256 = results[lam, iota, 256][3]
            worst = max(worst, range_deviation(e128, EX2_LARGE_REF[0]),
                        range_deviation(e256, EX2_LARGE_REF[1]))
            rates_ok &= abs(math.log2(e128 / e256) - 0.50) <= 0.05
    report("acceptance 4-large (boundary layer n in {128, 256})",
           worst <= 0.02 and rates_ok, "max deviation %.2e" % worst)


def within_5_digits(got, want):
    """Whether got is within one unit of want's 5th significant digit."""
    unit = 10.0 ** (math.floor(math.log10(abs(want))) - 4)
    return abs(got - want) <= unit


def golden_mismatches(table, name):
    """The lines of a convergence table that differ from its golden
    file: byte for byte, except E_p in the noise cells."""
    got = table.splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return ["%d lines, header %r" % (len(got), got[:1])]
    bad = []
    for g, w in zip(got[1:], want[1:]):
        gf, wf = g.split(","), w.split(",")
        if (float(wf[1]), float(wf[2]), int(wf[3])) in NOISE_CELLS \
                and len(gf) == len(wf):
            ok = gf[:8] + gf[9:] == wf[:8] + wf[9:] \
                and within_5_digits(float(gf[8]), float(wf[8]))
        else:
            ok = g == w
        if not ok:
            bad.append(g)
    return bad


def test_smooth_study_matches_its_golden_table(smooth_study):
    results, _ = smooth_study
    config = StudyConfig("example1", LAMBDAS, [1e0, 1e-1, 1e-8], NS)
    bad = golden_mismatches(format_table(config, results), "example1.csv")
    report("golden 1 (default example1 study)", not bad,
           "%d lines differ %s" % (len(bad), bad[:3]))


def test_layer_study_matches_its_golden_table(layer_study):
    config = StudyConfig("example2", LAMBDAS, [1e-6, 1e-8], NS)
    bad = golden_mismatches(format_table(config, layer_study),
                            "example2_iota_1e-6_1e-8.csv")
    report("golden 2 (example2 study, iota 1e-6 and 1e-8)", not bad,
           "%d lines differ %s" % (len(bad), bad[:3]))


def test_verify_grid_matches_its_golden_report(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code = run_verify([2, 3, 4, 5, 6, 7, 8],
                      [1e0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8], str(out), seed=0)
    text = capsys.readouterr().out
    same = (text == (GOLDEN / "verify_grid.txt").read_text(),
            out.read_text() == (GOLDEN / "verify_grid.csv").read_text())
    with capsys.disabled():
        report("golden 3 (verify grid, seed 0)", code == 0 and all(same),
               "exit %d, report and CSV identical %s" % (code, same))


def test_solve_export_matches_its_golden_file(tmp_path):
    out = tmp_path / "solution.csv"
    code = run_solve(StudyConfig("example2", [1e4], [1e-6], [8],
                                 out=str(out)))
    same = out.read_bytes() == \
        (GOLDEN / "solve_example2_n8.csv").read_bytes()
    report("golden 4 (example2 n = 8 solve export)", code == 0 and same,
           "exit %d, identical %s" % (code, same))


def test_golden_script_reports_each_line_it_moves():
    spec = importlib.util.spec_from_file_location(
        "make_goldens", GOLDEN / "make_goldens.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old = "x,p\n0.5,1.0e-03\n0.75,2.0e-03\n"
    assert list(script.changed_lines("f.csv", old, old)) == []
    assert list(script.changed_lines(
        "f.csv", old, "x,p\n0.5,1.1e-03\n0.75,2.0e-03\n1,0\n")) == [
        "f.csv:2: 0.5,1.0e-03 -> 0.5,1.1e-03", "f.csv:4:  -> 1,0"]
    assert list(script.changed_lines("f.csv", old, "x,p\n")) == [
        "f.csv:2: 0.5,1.0e-03 -> ", "f.csv:3: 0.75,2.0e-03 -> "]


def test_study_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / ("threads%s.csv" % threads)
        # the child fails on a RuntimeWarning, as pytest does (pyproject)
        env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONWARNINGS="error::RuntimeWarning")
        proc = subprocess.run(
            [sys.executable, "-m", "sgefem.cli", "convergence", "--example",
             "example1", "--iota", "1,1e-8", "--n", "4,8", "--out",
             str(out)], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        tables.append(out.read_bytes())
    report("threads (example1 n = 4, 8 at 1 and 2 BLAS threads)",
           tables[0] == tables[1], "identical %s" % (tables[0] == tables[1]))


def _check_field_identities():
    """Pointwise divergence-free and boundary-condition identities."""
    s = np.linspace(0.05, 0.95, 15)
    interior = np.stack(np.meshgrid(s, s), axis=-1).reshape(-1, 2)
    t = np.linspace(0.0, 1.0, 101)
    zero, one = np.zeros_like(t), np.ones_like(t)
    sides = [(np.stack([t, zero], -1), (0.0, 1.0)),
             (np.stack([t, one], -1), (0.0, -1.0)),
             (np.stack([zero, t], -1), (1.0, 0.0)),
             (np.stack([one, t], -1), (-1.0, 0.0))]
    worst = 0.0
    for name, field in FIELDS.items():
        j1, j2 = field.jets(interior)
        grads = np.array([j1.partial(1, 0), j1.partial(0, 1),
                          j2.partial(1, 0), j2.partial(0, 1)])
        scale = np.max(np.abs(grads))
        div = j1.partial(1, 0) + j2.partial(0, 1)
        worst = max(worst, np.max(np.abs(div)) / scale)
        vscale = np.max(np.abs(field_value(field, interior)))
        for pts, normal in sides:
            b1, b2 = field.jets(pts)
            vals = np.abs(field_value(field, pts)).max()
            worst = max(worst, vals / vscale)
            if name == "example1":
                for j in (b1, b2):
                    dn = normal[0] * j.partial(1, 0) \
                        + normal[1] * j.partial(0, 1)
                    worst = max(worst, np.max(np.abs(dn)) / scale)
    return worst


def _check_force_vs_fd():
    """Jet-propagated loads against finite-difference oracles."""
    mu, iota = 1.0, 1e-1
    field = FIELDS["example1"]
    force = body_force_sge(field, ProblemParams(mu, 1.0, iota))

    def component(a):
        return lambda x, y: field_value(field, np.array([x, y]))[a]

    x, y = 0.3, 0.7
    want = np.empty(2)
    for a in (0, 1):
        ua = component(a)
        lap = fd_derivative(ua, x, y, 2, 0) + fd_derivative(ua, x, y, 0, 2)
        bilap = (fd_derivative(ua, x, y, 4, 0)
                 + 2.0 * fd_derivative(ua, x, y, 2, 2)
                 + fd_derivative(ua, x, y, 0, 4))
        want[a] = -mu * lap + iota ** 2 * mu * bilap
    got = force(np.array([x, y]))
    sge_rel = np.linalg.norm(got - want) / np.linalg.norm(want)

    fieldp = FIELDS["example2"]
    forcep = body_force_elasticity(fieldp, ProblemParams(mu, 1.0, iota))

    def componentp(a):
        return lambda x, y: field_value(fieldp, np.array([x, y]))[a]

    # the extrapolated stencil is exact for quintics at any step, so a
    # wide step only shrinks the roundoff amplification (~eps / h^2)
    wantp = np.empty(2)
    for a in (0, 1):
        ua = componentp(a)
        wantp[a] = -mu * (fd_derivative(ua, x, y, 2, 0, h=0.08)
                          + fd_derivative(ua, x, y, 0, 2, h=0.08))
    gotp = forcep(np.array([x, y]))
    poly_rel = np.linalg.norm(gotp - wantp) / np.linalg.norm(wantp)
    return sge_rel, poly_rel


def _check_saddle_and_energy():
    """Tiny solve against a dense oracle plus the energy identity."""
    from sgefem.discretization import Discretization
    from sgefem.linalg import SaddleSystem, solve_saddle
    from sgefem.mesh import build_uniform_unit_square

    lam, iota = 1e4, 1e-2
    f = Discretization(build_uniform_unit_square(2),
                       "example2").factors(iota)
    system = SaddleSystem(f, lam)
    u, p, xi = solve_saddle(system)

    S = system.block_matrix().toarray()
    dense = np.linalg.solve(S, system.full_rhs())
    got = np.concatenate([u, p, [xi]])
    oracle_rel = (np.linalg.norm(got - dense)
                  / np.linalg.norm(dense))

    work = float(f.rhs_u @ u)
    energy = float(u @ (f.A @ u) + p @ (system.C @ p))
    energy_rel = abs(energy - work) / abs(work)
    return oracle_rel, energy_rel


def test_property_suite():
    t0 = time.perf_counter()
    verification = run_verification(seed=0)
    identity_worst = _check_field_identities()
    sge_rel, poly_rel = _check_force_vs_fd()
    oracle_rel, energy_rel = _check_saddle_and_energy()
    elapsed = time.perf_counter() - t0
    ok = (verification.passed and identity_worst < 1e-12
          and sge_rel < 1e-4 and poly_rel < 1e-12
          and oracle_rel < 1e-10 and energy_rel < 1e-8
          and elapsed < 60.0)
    report("acceptance 5 (property suite)", ok,
           "verification %s, identities %.1e, force fd %.1e/%.1e, "
           "oracle %.1e, energy %.1e, wall %.1f s"
           % ("pass" if verification.passed else "FAIL", identity_worst,
              sge_rel, poly_rel, oracle_rel, energy_rel, elapsed))


def test_exclusions_documented():
    # analysis-only content is out of scope by design: regularity
    # constants and the unscaled constants in the error bounds are not
    # measurable at study scale; only rates and parameter-robustness
    # trends are checked above
    report("acceptance 6 (exclusions)", True,
           "analysis-only constants excluded; rates and robustness "
           "trends covered")
