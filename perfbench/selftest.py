"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every check passes.  It
checks that

1. a small study cell gives a byte-identical CSV traced and untraced,
   and the traced pass writes well-formed spans;
2. every wrapper returns the very object the wrapped call returned
   (a recorder below and above each wrapper compares them call by call);
3. a missing traced function stops the install and is named, without
   patching anything;
4. each workload's traced run reports every per-layer metric of
   BENCHMARK.json and passes its output checks.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import run
import tracer
import worker

TINY_CELL = ["convergence", "--example", "example1", "--lambda", "1e4",
             "--iota", "0.1", "--n", "4"]
TINY_VERIFY = ["verify", "--n", "3", "--iota", "1"]


def check_identical_outputs():
    outs = {}
    for mode in ("plain", "traced"):
        out = os.path.join(run.WORK, mode + ".csv")
        record = run.spawn(mode, TINY_CELL + ["--out", out], mode,
                           time.monotonic() + 60.0)
        with open(out, "rb") as fh:
            outs[mode] = fh.read()
    tracer.validate_spans(record["spans"])
    if not record["spans"]:
        raise AssertionError("traced pass recorded no spans")
    if outs["plain"] != outs["traced"]:
        raise AssertionError("traced and untraced CSVs differ")


def check_wrappers_return_results():
    worker.import_everything()
    inner, outer = [], []

    def recorder(log):
        def make(target, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                log.append((target[0], result))
                return result
            return wrapper
        return make

    tracer.patch(tracer.TARGETS, recorder(inner))
    tracer.Tracer().install()
    tracer.patch(tracer.TARGETS, recorder(outer))

    import numpy as np
    import sgefem.cli
    import sgefem.linalg
    out = os.path.join(run.WORK, "inproc.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        sgefem.cli.main(TINY_CELL + ["--out", out])
        sgefem.cli.main(TINY_VERIFY + ["--out", out])
    sgefem.linalg.minres(np.eye(3), np.ones(3))

    if len(inner) != len(outer) or any(
            a[0] != b[0] or a[1] is not b[1] for a, b in zip(inner, outer)):
        raise AssertionError("a wrapper did not return the wrapped result")
    missed = tracer.SPAN_NAMES - {name for name, _ in inner}
    if missed:
        raise AssertionError("wrappers never called: %s" % sorted(missed))


def check_missing_layer_is_named():
    import sgefem.linalg
    import sgefem.mesh
    before = sgefem.mesh.build_uniform_unit_square
    saved = sgefem.linalg.solve_saddle
    del sgefem.linalg.solve_saddle
    try:
        tracer.Tracer().install()
    except tracer.LayerMissing as exc:
        if "sgefem.linalg.solve_saddle" not in str(exc):
            raise AssertionError("error does not name the function: %s"
                                 % exc)
    else:
        raise AssertionError("install ignored a missing function")
    finally:
        sgefem.linalg.solve_saddle = saved
    if sgefem.mesh.build_uniform_unit_square is not before:
        raise AssertionError("a failed install patched functions")


def check_workload_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             name, "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=170)
        if proc.returncode != 0:
            raise AssertionError("%s: traced run failed:\n%s"
                                 % (name, proc.stderr.decode()))
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        if set(result["metrics"]) != declared or not result["correct"]:
            raise AssertionError("%s: bad traced result %s" % (name, result))


def main():
    checks = (check_identical_outputs, check_wrappers_return_results,
              check_missing_layer_is_named, check_workload_metrics)
    failed = 0
    for check in checks:
        os.makedirs(run.WORK, exist_ok=True)
        try:
            check()
            print("pass  %s" % check.__name__)
        except AssertionError as exc:
            failed += 1
            print("FAIL  %s: %s" % (check.__name__, exc))
        finally:
            shutil.rmtree(run.WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
