"""Layer spans for the benchmark, recorded from outside the program.

``Tracer.install`` replaces public sgefem functions by wrappers that
record one span per call (name, start, end, parent span, mesh id, cell
id, plus a few counters) and return exactly what the wrapped call
returned.  A function is replaced at every binding in the imported
sgefem modules, so names a module imported with ``from x import f``
are traced as well; the CLI imports its layers lazily inside the run
functions, so wrapping before ``sgefem.cli.main`` runs is enough.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics of BENCHMARK.json.  If a traced name no longer exists the
install fails and names it, rather than reporting zero seconds.
"""

import functools
import sys
import time


class LayerMissing(RuntimeError):
    pass


def _after_mesh(tracer, span, args, result):
    tracer.meshes += 1
    tracer.mesh = "m%d" % tracer.meshes
    tracer.cell = None
    span["mesh"] = tracer.mesh
    span["triangles"] = int(result.num_triangles)


def _after_assembly(tracer, span, args, result):
    span["triangles"] = int(args[0].num_triangles)


def _after_jets(tracer, span, args, result):
    import numpy as np
    span["points"] = int(np.size(args[1]) // 2)


def _after_solve(tracer, span, args, result):
    """Normwise backward error of the returned (u, p, xi) against the
    bordered block matrix of the system that was solved."""
    import numpy as np
    from scipy.sparse.linalg import norm
    system = args[0]
    u, p, xi = result
    S = system.block_matrix()
    b = system.full_rhs()
    x = np.concatenate([u, p, [xi]])
    den = norm(S, np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
    span["backward_err"] = float(np.linalg.norm(S @ x - b) / den) \
        if den > 0 else 0.0


def _after_factor(tracer, span, args, result):
    span["nnz"] = int(result.nnz)   # SuperLU's L + U nonzeros


def _after_verification(tracer, span, args, result):
    span["checks"] = len(result.entries)
    span["checks_failed"] = sum(not e.passed for e in result.entries)


#: (span name, module, attribute, hook run on the result after the span
#: has ended); an attribute "Class.method" is patched on the class
TARGETS = (
    ("mesh.build", "sgefem.mesh", "build_uniform_unit_square",
     _after_mesh),
    ("space.vdofmap", "sgefem.space", "build_vdofmap", None),
    ("space.qdofmap", "sgefem.space", "build_qdofmap", None),
    ("element.coeff", "sgefem.element", "batched_scalar_coeff", None),
    ("assembly.a_parts", "sgefem.assembly", "assemble_a_parts",
     _after_assembly),
    ("assembly.b_parts", "sgefem.assembly", "assemble_b_parts",
     _after_assembly),
    ("assembly.pressure_parts", "sgefem.assembly",
     "assemble_pressure_parts", _after_assembly),
    ("assembly.norm_gram_parts", "sgefem.assembly",
     "assemble_norm_gram_parts", _after_assembly),
    ("assembly.load", "sgefem.assembly", "assemble_load", _after_assembly),
    ("manufactured.jets", "sgefem.manufactured", "AnalyticField.jets",
     _after_jets),
    ("manufactured.error_norms", "sgefem.manufactured", "error_norms",
     None),
    ("linalg.solve", "sgefem.linalg", "solve_saddle", _after_solve),
    ("linalg.factor", "sgefem.linalg", "splu", _after_factor),
    ("linalg.fallback", "sgefem.linalg", "minres", None),
    ("verify.unisolvence", "sgefem.verify", "check_unisolvence", None),
    ("verify.continuity", "sgefem.verify", "check_weak_continuity", None),
    ("verify.run", "sgefem.verify", "run_verification",
     _after_verification),
)

SPAN_NAMES = frozenset(t[0] for t in TARGETS)
_ASSEMBLY = ("assembly.a_parts", "assembly.b_parts",
             "assembly.pressure_parts", "assembly.norm_gram_parts",
             "assembly.load")


def bindings(module, attr):
    """The function ``module.attr`` and every (holder, name) it is bound
    at: the class for "Class.method", otherwise each imported sgefem
    module whose namespace holds the same object."""
    if module not in sys.modules:
        raise LayerMissing("traced module %s is not importable" % module)
    owner = sys.modules[module]
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        cls = getattr(owner, cls_name, None)
        if cls is None or name not in vars(cls):
            raise LayerMissing("traced function %s.%s is missing"
                               % (module, attr))
        return vars(cls)[name], [(cls, name)]
    if not hasattr(owner, attr):
        raise LayerMissing("traced function %s.%s is missing"
                           % (module, attr))
    fn = getattr(owner, attr)
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sgefem"
                               or mod_name.startswith("sgefem.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, key))
    return fn, found


def patch(targets, make_wrapper):
    """Replace each target at all its bindings by make_wrapper(target,
    fn); every target is resolved before anything is replaced."""
    resolved = [(t, bindings(t[1], t[2])) for t in targets]
    for target, (fn, where) in resolved:
        wrapper = make_wrapper(target, fn)
        for holder, name in where:
            setattr(holder, name, wrapper)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.meshes = 0
        self.cells = 0
        self.mesh = None
        self.cell = None

    def install(self):
        patch(TARGETS, self._wrap)

    def _wrap(self, target, fn):
        name, _, _, after = target
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span)
                span["failed"] = True
                raise
            tracer._close(span)
            if after is not None:
                after(tracer, span, args, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        if name == "linalg.solve":
            self.cells += 1
            self.cell = self.cells
            cell = self.cell
        elif parent is not None:
            cell = self.spans[parent]["cell"]
        elif name == "manufactured.error_norms":
            cell = self.cell
        else:
            cell = None
        span = {"id": len(self.spans), "name": name, "start": None,
                "end": None, "parent": parent, "mesh": self.mesh,
                "cell": cell}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()


def validate_spans(spans):
    """Raise ValueError unless the spans form a well-formed tree: each
    has a known name, ordered times, a parent that precedes it and
    encloses its interval, a mesh id and a cell id of the right type."""
    for i, s in enumerate(spans):
        where = "span %d (%s)" % (i, s.get("name"))
        for key in ("id", "name", "start", "end", "parent", "mesh", "cell"):
            if key not in s:
                raise ValueError("%s has no %r" % (where, key))
        if s["id"] != i or s["name"] not in SPAN_NAMES:
            raise ValueError("%s has a bad id or name" % where)
        if not isinstance(s["start"], float) or not isinstance(
                s["end"], float) or not s["start"] <= s["end"]:
            raise ValueError("%s has bad times" % where)
        if s["parent"] is not None:
            if not 0 <= s["parent"] < i:
                raise ValueError("%s has a bad parent" % where)
            p = spans[s["parent"]]
            if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                raise ValueError("%s lies outside its parent" % where)
        if s["mesh"] is not None and not isinstance(s["mesh"], str):
            raise ValueError("%s has a bad mesh id" % where)
        if s["cell"] is not None and not isinstance(s["cell"], int):
            raise ValueError("%s has a bad cell id" % where)
        if s["name"] == "linalg.solve" and s["cell"] is None:
            raise ValueError("%s has no cell id" % where)


#: per-layer metrics (name, unit) in the order they are reported;
#: trace.overhead_s and trace.wall_s come from comparing passes
LAYER_METRICS = (
    ("mesh.build_s", "s"),
    ("space.dofmap_s", "s"),
    ("element.coeff_s", "s"),
    ("assembly.a_parts_s", "s"),
    ("assembly.b_parts_s", "s"),
    ("assembly.pressure_parts_s", "s"),
    ("assembly.norm_gram_parts_s", "s"),
    ("assembly.load_s", "s"),
    ("assembly.calls", "count"),
    ("assembly.triangles", "count"),
    ("manufactured.error_norms_s", "s"),
    ("manufactured.error_norms_self_s", "s"),
    ("manufactured.jets_s", "s"),
    ("manufactured.jet_calls", "count"),
    ("manufactured.jet_points", "count"),
    ("linalg.solve_s", "s"),
    ("linalg.factor_s", "s"),
    ("linalg.factorizations", "count"),
    ("linalg.lu_nnz_max", "count"),
    ("linalg.fallbacks", "count"),
    ("linalg.fallback_s", "s"),
    ("linalg.backward_err_max", "ratio"),
    ("verify.unisolvence_s", "s"),
    ("verify.continuity_s", "s"),
    ("verify.infsup_s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, all but the trace.* ones.

    Times are inclusive span durations summed per name, except
    error_norms_self_s (error_norms minus its direct children, the jets
    calls) and verify.infsup_s (run_verification minus its unisolvence
    and continuity children).
    """
    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum((dur(s) for s in named(*names)), 0.0)

    def children_time(span, names):
        return sum(dur(c) for c in spans
                   if c["parent"] == span["id"] and c["name"] in names)

    norms = named("manufactured.error_norms")
    runs = named("verify.run")
    return {
        "mesh.build_s": total("mesh.build"),
        "space.dofmap_s": total("space.vdofmap", "space.qdofmap"),
        "element.coeff_s": total("element.coeff"),
        "assembly.a_parts_s": total("assembly.a_parts"),
        "assembly.b_parts_s": total("assembly.b_parts"),
        "assembly.pressure_parts_s": total("assembly.pressure_parts"),
        "assembly.norm_gram_parts_s": total("assembly.norm_gram_parts"),
        "assembly.load_s": total("assembly.load"),
        "assembly.calls": len(named(*_ASSEMBLY)),
        "assembly.triangles": sum(s["triangles"]
                                  for s in named(*_ASSEMBLY)),
        "manufactured.error_norms_s": total("manufactured.error_norms"),
        "manufactured.error_norms_self_s": sum(
            dur(s) - children_time(s, SPAN_NAMES) for s in norms),
        "manufactured.jets_s": total("manufactured.jets"),
        "manufactured.jet_calls": len(named("manufactured.jets")),
        "manufactured.jet_points": sum(s["points"] for s in
                                       named("manufactured.jets")),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.factor_s": total("linalg.factor"),
        "linalg.factorizations": len(named("linalg.factor")),
        "linalg.lu_nnz_max": max([s.get("nnz", 0)
                                  for s in named("linalg.factor")],
                                 default=0),
        "linalg.fallbacks": len(named("linalg.fallback")),
        "linalg.fallback_s": total("linalg.fallback"),
        "linalg.backward_err_max": max(
            [s["backward_err"] for s in named("linalg.solve")
             if "backward_err" in s], default=0.0),
        "verify.unisolvence_s": total("verify.unisolvence"),
        "verify.continuity_s": total("verify.continuity"),
        "verify.infsup_s": sum(
            dur(s) - children_time(s, ("verify.unisolvence",
                                       "verify.continuity")) for s in runs),
        "verify.checks": sum(s.get("checks", 0) for s in runs),
        "verify.checks_failed": sum(s.get("checks_failed", 0)
                                    for s in runs),
    }
