"""The layer names the benchmark tracer wraps must exist in the package,
and a traced benchmark pass must still see the solver.

perfbench/tracer.py wraps public functions by module and name; renaming
one breaks only a traced benchmark run, so this resolves every target
here, without starting a process, and then runs one traced pass of
perfbench/worker.py on a tiny study in a fresh interpreter.
"""
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import sgefem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves():
    for info in pkgutil.iter_modules(sgefem.__path__, "sgefem."):
        importlib.import_module(info.name)
    tracer = _tracer()
    for name, module, attr, _ in tracer.TARGETS:
        fn, where = tracer.bindings(module, attr)
        assert callable(fn), name
        assert where, "%s (%s.%s) is bound nowhere" % (name, module, attr)


def test_traced_pass_sees_the_solver(tmp_path):
    iotas, lams = ("1", "1e-08"), ("1", "10000", "1e+08")
    record = tmp_path / "record.json"
    argv = ["convergence", "--example", "example1", "--lambda",
            ",".join(lams), "--iota", ",".join(iotas), "--n", "4",
            "--out", str(tmp_path / "table.csv")]
    # the child fails on a RuntimeWarning, as pytest does (pyproject)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), repr(time.monotonic()),
         "traced", str(record)] + argv,
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(record.read_text())
    assert result["exit_code"] == 0
    tracer = _tracer()
    tracer.validate_spans(result["spans"])
    metrics = tracer.layer_metrics(result["spans"])
    assert metrics["linalg.fallbacks"] == 0
    assert metrics["linalg.backward_err_max"] <= 1e-15
    solves = [s for s in result["spans"] if s["name"] == "linalg.solve"]
    assert len(solves) == len(iotas) * len(lams)
    # one factorization of A and one of the pressure Gram matrix per
    # iota, shared by that iota's lambda cells
    assert metrics["linalg.factorizations"] == 2 * len(iotas)
    # one jets pass for the load and one for the exact tables of the
    # mesh, each over 32 triangles x 33 points of the degree-12 rule: a
    # change to the signature of AnalyticField.jets cannot zero the
    # traced point count unnoticed
    assert metrics["manufactured.jet_calls"] == 2
    assert metrics["manufactured.jet_points"] == 2 * 32 * 33
    # one a-parts and one b-parts assembly per mesh: each iota sums the
    # parts through their plans, which is no traced assembly call
    meshes = [s["mesh"] for s in result["spans"] if s["name"] == "mesh.build"]
    assert len(meshes) == 1
    for name in ("assembly.a_parts", "assembly.b_parts"):
        assert [s["mesh"] for s in result["spans"]
                if s["name"] == name] == meshes, name


def test_traced_verify_pass_sees_the_norm_grams(tmp_path):
    # the verify-grid layers: the continuity meshes and the inf-sup
    # check, which assembles the scalar norm Grams of the n = 3 mesh
    record = tmp_path / "record.json"
    argv = ["verify", "--n", "2,3", "--iota", "1",
            "--out", str(tmp_path / "report.csv")]
    # the child fails on a RuntimeWarning, as pytest does (pyproject)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), repr(time.monotonic()),
         "traced", str(record)] + argv,
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(record.read_text())
    assert result["exit_code"] == 0
    tracer = _tracer()
    tracer.validate_spans(result["spans"])
    names = [s["name"] for s in result["spans"]]
    assert names.count("assembly.norm_gram_parts") == 1
    metrics = tracer.layer_metrics(result["spans"])
    assert metrics["verify.checks"] > 0
    assert metrics["verify.checks_failed"] == 0
