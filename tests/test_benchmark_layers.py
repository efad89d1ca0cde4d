"""The layer names the benchmark tracer wraps must exist in the package.

perfbench/tracer.py wraps public functions by module and name; renaming
one breaks only a traced benchmark run, so this resolves every target
here, without starting a process.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import sgefem

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    for info in pkgutil.iter_modules(sgefem.__path__, "sgefem."):
        importlib.import_module(info.name)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, attr, _ in tracer.TARGETS:
        fn, where = tracer.bindings(module, attr)
        assert callable(fn), name
        assert where, "%s (%s.%s) is bound nowhere" % (name, module, attr)
