"""Command-line entry point.

Three subcommands: ``convergence`` runs a (lambda, iota, n) study and
emits the relative-error table with convergence rates, ``verify`` runs
the structural check suite, and ``solve`` performs a single solve and
exports vertex-sampled fields for plotting.

Exit codes: 0 success, 1 verification failure, 2 solver breakdown
(the study still emits every row, flagged in the status column),
3 invalid configuration or an output that cannot be written.

Heavy imports happen inside the run functions so that the thread-count
setting can still influence the numerical libraries when the command is
the first user of them in the process.

Meshes are named only by ``--n`` (the study tail is ``--n
16,32,64,128,256``).  Every output goes through ``_write_output``, so a
run that ends without output leaves no file where there was none, and
a failed write removes only a file it created: an existing one has
already been truncated (renaming a temporary file over it would
replace a symlink or a device such as /dev/full).
"""

import argparse
import io
import math
import os
import sys

_EXAMPLES = ("example1", "example2")
DEFAULT_LAMBDAS = (1e0, 1e4, 1e8)
DEFAULT_IOTAS = {"example1": (1e0, 1e-1, 1e-8),
                 "example2": (1e-4, 1e-6, 1e-8)}
DEFAULT_NS = (16, 32, 64)
CSV_HEADER = "example,lambda,iota,n,h,dofs_u,dofs_p,E_u,E_p,rate,status"


class ConfigError(ValueError):
    pass


#: the rule every value of a list follows, by the list's name
_LIST_RULES = {"lambda": (lambda v: v > 0, "must be positive"),
               "iota": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
               "n": (lambda v: v >= 2, "must be at least 2")}


def _check_lists(lists):
    """Each (name, values) list of a subcommand nonempty, every value
    within the rule of its name (so lambda = nan fails) and none given
    twice."""
    for name, values in lists:
        ok, rule = _LIST_RULES[name]
        if not values:
            raise ConfigError("the %s list must be nonempty" % name)
        if not all(ok(v) for v in values):
            raise ConfigError("%s values %s" % (name, rule))
        if len(set(values)) < len(values):
            raise ConfigError("%s values must be distinct" % name)


class StudyConfig:
    """Validated parameter grid for a convergence study."""

    def __init__(self, example, lams, iotas, ns, mu=1.0, out=None,
                 threads=None):
        if example not in _EXAMPLES:
            raise ConfigError("example must be one of %s" % (_EXAMPLES,))
        _check_lists([("lambda", lams), ("iota", iotas), ("n", ns)])
        if not 0 < mu < math.inf:
            raise ConfigError("mu must be positive and finite")
        # each cell is solved at lambda / mu, whose reciprocal scales its
        # pressure block: 1e-300 / 1e300 is 0, and 1 / 1e-310 overflows
        if not all(lam / mu > 0 and 1.0 / (lam / mu) < math.inf
                   for lam in lams):
            raise ConfigError("lambda / mu must be positive, with a finite "
                              "reciprocal")
        self.example = example
        self.lams = [float(l) for l in lams]
        self.iotas = [float(i) for i in iotas]
        self.ns = [int(n) for n in ns]
        self.mu = float(mu)
        self.out = out
        self.threads = None if threads is None else int(threads)


def _floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("not a comma-separated float list: %r" % text)


def _ints(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("not a comma-separated integer list: %r" % text)


def load_config_file(path):
    """Flat key=value file; '#' starts a comment; a key appears once."""
    values, line_of = {}, {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value, got %r"
                              % (path, lineno, raw))
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("%s:%d: empty key" % (path, lineno))
        if key in line_of:
            raise ConfigError("%s:%d: key %s repeats line %d"
                              % (path, lineno, key, line_of[key]))
        values[key], line_of[key] = value, lineno
    return values


_CONFIG_KEYS = ("example", "lambda", "iota", "n", "mu", "out", "threads")


def _merge_config(args):
    """Command line wins over config file wins over defaults."""
    file_values = {}
    if args.config:
        file_values = load_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError("unknown config keys: %s"
                              % ", ".join(sorted(unknown)))

    def pick(flag, key, convert, default=None):
        if flag is not None:
            return flag
        if key not in file_values:
            return default
        try:
            return convert(file_values[key])
        except ValueError as exc:
            raise ConfigError("config key %s: %s" % (key, exc))

    example = pick(args.example, "example", str, "example1")
    return StudyConfig(
        example=example,
        lams=pick(args.lam, "lambda", _floats, list(DEFAULT_LAMBDAS)),
        iotas=pick(args.iota, "iota", _floats,
                   list(DEFAULT_IOTAS.get(example, ()))),
        ns=pick(args.n, "n", _ints, list(DEFAULT_NS)),
        mu=pick(args.mu, "mu", float, 1.0),
        out=pick(args.out, "out", str),
        threads=pick(args.threads, "threads", int))


def _limit_threads(threads):
    """Set the BLAS thread variables to ``threads``, overriding inherited
    values; with ``threads`` None (neither flag nor config key) only the
    unset ones, to 1.  They take effect only if numpy's BLAS has not been
    loaded yet."""
    if threads is not None and threads < 1:
        raise ConfigError("threads must be at least 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        if threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(threads)


def _check_writable(path):
    """An OSError, before any mesh is built, unless ``path`` (None:
    stdout) opens for writing.  An existing file is opened to append,
    so it keeps its bytes; a new one is created and removed at once."""
    if path is None:
        return
    try:
        open(path, "x").close()
    except FileExistsError:
        open(path, "a").close()
    else:
        os.remove(path)


def _write_output(path, text):
    """Write ``text`` to stdout (``path`` None) or to the file ``path``;
    if the write fails, a file it created is removed."""
    if path is None:
        sys.stdout.write(text)
        return
    created = not os.path.exists(path)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError:
        if created:
            os.remove(path)
        raise


def _study_rows(config):
    """Solve the grid n-major and yield results keyed (lam, iota, n)."""
    results = {}
    for n in config.ns:
        results.update(_mesh_rows(config, n))
    return results


def _mesh_rows(config, n):
    """The rows of mesh n: every cell is solved before any is measured,
    so the exact tables the error norms build never sit beside a factor."""
    from .discretization import Discretization
    from .mesh import build_uniform_unit_square

    disc = Discretization(build_uniform_unit_square(n), config.example)
    cells = disc.solve(config.mu, config.lams, config.iotas)
    sizes = (disc.mesh.h, disc.vmap.n_u, disc.qmap.n_p)
    rows = {}
    for (lam, iota), cell in cells.items():
        if isinstance(cell, Exception):
            rows[lam, iota, n] = sizes + (math.nan, math.nan, "breakdown")
            continue
        _, _, ev, epq = disc.errors(*cell, iota)
        fnorm = disc.load_norm(config.mu, iota)
        rows[lam, iota, n] = sizes + (ev / fnorm, epq / fnorm, "ok")
    return rows


def format_table(config, results):
    """CSV rows in (lambda, iota, n) order with per-block rates
    recomputed from the emitted (rounded) error values."""
    lines = [CSV_HEADER]
    for lam in config.lams:
        for iota in config.iotas:
            prev = None
            for n in config.ns:
                h, n_u, n_p, e_u, e_p, status = results[lam, iota, n]
                e_u_s, e_p_s = "%.5e" % e_u, "%.5e" % e_p
                rate = ""
                if prev is not None and status == "ok":
                    prev_e, prev_n = prev
                    if prev_e > 0 and float(e_u_s) > 0 \
                            and math.isfinite(prev_e):
                        rate = "%.2f" % (math.log2(prev_e / float(e_u_s))
                                         / math.log2(n / prev_n))
                lines.append("%s,%g,%g,%d,%.5e,%d,%d,%s,%s,%s,%s"
                             % (config.example, lam, iota, n, h, n_u, n_p,
                                e_u_s, e_p_s, rate, status))
                prev = ((float(e_u_s), n) if status == "ok"
                        else (math.nan, n))
    return "\n".join(lines) + "\n"


def run_convergence(config):
    _check_writable(config.out)
    results = _study_rows(config)
    _write_output(config.out, format_table(config, results))
    broke = any(r[5] != "ok" for r in results.values())
    return 2 if broke else 0


def run_verify(ns, iotas, out, seed=0, flip_edge=None):
    from .verify import INFSUP_IOTAS, NotAnInteriorEdge, run_verification

    ns = sorted(ns) if ns is not None else [2, 4, 8]
    iotas_given = iotas is not None
    iotas = tuple(iotas) if iotas_given else INFSUP_IOTAS
    _check_lists([("n", ns), ("iota", iotas)])
    if seed < 0:
        raise ConfigError("seed must be at least 0")
    if ns[-1] > 32:
        # the inf-sup check solves a dense generalized eigenproblem of
        # order n_p - 1 (3,968 at n = 64) with a dense basis Z
        raise ConfigError("verify takes n values in 2..32: inf-sup runs at "
                          "3 <= n <= 32, n = 2 is continuity-only")
    infsup_ns = [n for n in ns if n >= 3]
    if iotas_given and not infsup_ns:
        raise ConfigError("--iota needs an n in 3..32 for the inf-sup check")
    _check_writable(out)
    try:
        report = run_verification(
            seed=seed, flip_edge=flip_edge, continuity_ns=ns,
            infsup_ns=infsup_ns, infsup_iotas=iotas)
    except NotAnInteriorEdge:
        # the fault goes into the first continuity mesh, which checks
        # the edge when it is built
        raise ConfigError("--debug-flip-edge must name an interior "
                          "edge of the n=%d mesh" % ns[0])
    sys.stdout.write(report.as_text())
    if out:
        _write_output(out, report.as_csv())
    return 0 if report.passed else 1


def run_solve(config):
    """Single solve; writes vertex-sampled (x, y, u1, u2, p) rows."""
    import numpy as np

    from .discretization import Discretization
    from .mesh import build_uniform_unit_square

    if len(config.lams) != 1 or len(config.iotas) != 1 \
            or len(config.ns) != 1:
        raise ConfigError("solve takes single lambda, iota, and n values")
    lam, iota, n = config.lams[0], config.iotas[0], config.ns[0]
    path = "solution.csv" if config.out is None else config.out
    _check_writable(path)
    disc = Discretization(build_uniform_unit_square(n), config.example)
    cell = disc.solve(config.mu, [lam], [iota])[lam, iota]
    if isinstance(cell, Exception):
        sys.stderr.write("solver breakdown: %s\n" % cell)
        return 2
    u, p = cell

    # index -1, a boundary vertex, reads the appended zeros
    uext = np.append(u, [0.0, 0.0]).reshape(-1, 2)
    columns = np.column_stack([disc.mesh.vertices,
                               uext[disc.vmap.vertex_nodes],
                               np.append(p, 0.0)[disc.qmap.vertex_index]])
    rows = io.StringIO()
    np.savetxt(rows, columns, fmt="%.8e", delimiter=",",
               header="x,y,u1,u2,p", comments="")
    _write_output(path, rows.getvalue())
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract reserves
    2 for solver breakdown, so remap to 3."""

    def error(self, message):
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(prog="sgefem",
                     description="Mixed finite element solver for "
                                 "strain gradient elasticity")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", help="output file path")
        p.add_argument("--threads", type=int,
                       help="thread budget for the numerical libraries "
                            "(default: inherited variables, else 1)")

    def study(p):
        p.add_argument("--example", choices=_EXAMPLES)
        p.add_argument("--lambda", dest="lam", type=_floats,
                       metavar="LIST", help="comma-separated lambda values")
        p.add_argument("--iota", type=_floats, metavar="LIST",
                       help="comma-separated iota values")
        p.add_argument("--n", type=_ints, metavar="LIST",
                       help="comma-separated mesh subdivisions")
        output(p)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--mu", type=float, help="shear modulus (default 1)")

    study(sub.add_parser("convergence", help="run a convergence study"))
    study(sub.add_parser("solve", help="solve once and export fields"))

    verify = sub.add_parser("verify", help="run the structural checks")
    verify.add_argument("--n", type=_ints, metavar="LIST",
                        help="mesh subdivisions for the continuity and "
                             "inf-sup checks (inf-sup uses 3 <= n <= 32)")
    verify.add_argument("--iota", type=_floats, metavar="LIST",
                        help="iota sweep of the inf-sup check (needs n >= 3)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the random triangle sample")
    verify.add_argument("--debug-flip-edge", type=int, default=None,
                        metavar="EDGE",
                        help="flip one edge normal to demonstrate fault "
                             "detection")
    output(verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            _limit_threads(args.threads)
            return run_verify(args.n, args.iota, args.out, seed=args.seed,
                              flip_edge=args.debug_flip_edge)
        config = _merge_config(args)
        _limit_threads(config.threads)
        if args.command == "convergence":
            return run_convergence(config)
        return run_solve(config)
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except OSError as exc:  # the output's; load_config_file converts its own
        sys.stderr.write("error: cannot write the output: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
