"""One benchmark pass in a fresh interpreter.

    python worker.py SPAWN_T0 MODE RECORD [ARGV...]

SPAWN_T0 is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the clocks agree).
The pass imports numpy, scipy and every sgefem module, which is the
set-up every CLI invocation pays, then, unless MODE is "setup", calls
sgefem.cli.main(ARGV) once; with MODE "traced" the public layer
functions are wrapped first (see tracer.py).  Timings, peak RSS, the
exit code and the environment go to the JSON file RECORD, together with
the spans of a traced pass.  Exit status 4 means a traced layer is
missing.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_everything():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib
    import pkgutil

    import numpy
    import scipy
    import scipy.linalg
    import scipy.sparse
    import scipy.sparse.linalg
    import sgefem
    for info in pkgutil.iter_modules(sgefem.__path__, "sgefem."):
        importlib.import_module(info.name)
    return numpy, scipy


def environment(numpy, scipy):
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("blas", {}).get("name"),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS}}


def main():
    spawn_t0, mode, record_path = float(sys.argv[1]), sys.argv[2], \
        sys.argv[3]
    argv = sys.argv[4:]
    numpy, scipy = import_everything()
    ready = time.monotonic()
    record = {"setup_s": ready - spawn_t0,
              "env": environment(numpy, scipy)}
    if mode != "setup":
        from sgefem.cli import main as cli_main
        tracer = None
        if mode == "traced":
            from tracer import LayerMissing, Tracer
            tracer = Tracer()
            try:
                tracer.install()
            except LayerMissing as exc:
                sys.stderr.write("traced run impossible: %s\n" % exc)
                return 4
        start = time.monotonic()
        record["exit_code"] = cli_main(argv)
        sys.stdout.flush()
        record["wall_s"] = time.monotonic() - start
        import resource
        record["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["spans"] = tracer.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
