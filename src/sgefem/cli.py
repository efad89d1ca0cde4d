"""Command-line entry point.

Three subcommands: ``convergence`` runs a (lambda, iota, n) study and
emits the relative-error table with convergence rates, ``verify`` runs
the structural check suite, and ``solve`` performs a single solve and
exports vertex-sampled fields for plotting.

Exit codes: 0 success, 1 verification failure, 2 solver breakdown
(the study still emits every row, flagged in the status column),
3 invalid configuration.

Heavy imports happen inside the run functions so that the thread-count
setting can still influence the numerical libraries when the command is
the first user of them in the process.
"""

import argparse
import math
import os
import sys

_EXAMPLES = ("example1", "example2")
DEFAULT_LAMBDAS = (1e0, 1e4, 1e8)
DEFAULT_IOTAS = {"example1": (1e0, 1e-1, 1e-8),
                 "example2": (1e-4, 1e-6, 1e-8)}
DEFAULT_NS = (16, 32, 64)
LARGE_NS = (128, 256)
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

    def __init__(self, example, lams, iotas, ns, mu=1.0, tol=1e-10,
                 out=None, threads=None, large=False):
        if example not in _EXAMPLES:
            raise ConfigError("example must be one of %s" % (_EXAMPLES,))
        _check_lists([("lambda", lams), ("iota", iotas), ("n", ns)])
        if not mu > 0:
            raise ConfigError("mu must be positive")
        if not 1e-14 < tol < 1e-6:
            raise ConfigError("tol must lie in (1e-14, 1e-6)")
        if threads is not None and threads < 1:
            raise ConfigError("threads must be at least 1")
        self.example = example
        self.lams = [float(l) for l in lams]
        self.iotas = [float(i) for i in iotas]
        self.ns = [int(n) for n in ns]
        self.mu = float(mu)
        self.tol = float(tol)
        self.out = out
        self.threads = None if threads is None else int(threads)
        self.large = bool(large)


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
    """Flat key=value file; '#' starts a comment."""
    values = {}
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value, got %r"
                              % (path, lineno, raw))
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = ("example", "lambda", "iota", "n", "mu", "tol", "out",
                "threads", "large")
_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text):
    try:
        return _BOOLEANS[text]
    except KeyError:
        raise ConfigError("not a boolean (1/true/yes or 0/false/no): %r"
                          % text)


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
    large = pick(getattr(args, "large", False) or None, "large", _boolean,
                 False)
    ns = pick(args.n, "n", _ints,
              list(DEFAULT_NS) + (list(LARGE_NS) if large else []))
    return StudyConfig(
        example=example,
        lams=pick(args.lam, "lambda", _floats, list(DEFAULT_LAMBDAS)),
        iotas=pick(args.iota, "iota", _floats,
                   list(DEFAULT_IOTAS.get(example, ()))),
        ns=ns,
        mu=pick(args.mu, "mu", float, 1.0),
        tol=pick(args.tol, "tol", float, 1e-10),
        out=pick(args.out, "out", str),
        threads=pick(args.threads, "threads", int),
        large=large)


def _limit_threads(threads):
    """Set the BLAS thread variables to ``threads``, overriding inherited
    values; with ``threads`` None (neither flag nor config key) only the
    unset ones, to 1.  They take effect only if numpy's BLAS has not been
    loaded yet."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        if threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(threads)


def _study_rows(config):
    """Solve the grid n-major (one discretization per mesh, reused across
    lambda and iota) and yield results keyed (lam, iota, n)."""
    from . import linalg
    from .discretization import Discretization
    from .mesh import build_uniform_unit_square

    results = {}
    for n in config.ns:
        disc = Discretization(build_uniform_unit_square(n), config.example)
        sizes = (disc.mesh.h, disc.vmap.n_u, disc.qmap.n_p)
        for iota in config.iotas:
            fnorm = disc.load_norm(config.mu, iota)
            for lam in config.lams:
                try:
                    u, p, _ = linalg.solve_saddle(
                        disc.system(config.mu, lam, iota), tol=config.tol)
                    _, _, ev, epq = disc.errors(u, p, iota, lam)
                    results[lam, iota, n] = sizes + (ev / fnorm,
                                                     epq / fnorm, "ok")
                except linalg.SolverBreakdown:
                    results[lam, iota, n] = sizes + (math.nan, math.nan,
                                                     "breakdown")
    return results


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
    results = _study_rows(config)
    table = format_table(config, results)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    broke = any(r[5] != "ok" for r in results.values())
    return 2 if broke else 0


def run_verify(ns, iotas, out, seed=0, flip_edge=None):
    from .mesh import build_uniform_unit_square
    from .verify import INFSUP_IOTAS, run_verification

    ns = sorted(ns) if ns is not None else [2, 4, 8]
    iotas = tuple(iotas) if iotas is not None else INFSUP_IOTAS
    _check_lists([("n", ns), ("iota", iotas)])
    if seed < 0:
        raise ConfigError("seed must be at least 0")
    if ns[-1] > 32:
        # the inf-sup check holds B^T densely: 2.3 GB at n = 64
        raise ConfigError("verify takes n values in 2..32: inf-sup runs at "
                          "3 <= n <= 32, n = 2 is continuity-only")
    if flip_edge is not None:
        # the fault goes into the first continuity mesh, and only an
        # interior edge has a second triangle whose gradient can jump
        mesh = build_uniform_unit_square(ns[0])
        if not (0 <= flip_edge < mesh.num_edges
                and not mesh.edge_is_boundary[flip_edge]):
            raise ConfigError("--debug-flip-edge must name an interior "
                              "edge of the n=%d mesh" % ns[0])
    infsup_ns = [n for n in ns if n >= 3]
    report = run_verification(
        seed=seed, flip_edge=flip_edge, continuity_ns=ns,
        infsup_ns=infsup_ns, infsup_iotas=iotas)
    sys.stdout.write(report.as_text())
    if out:
        report.to_csv(out)
    return 0 if report.passed else 1


def run_solve(config):
    """Single solve; writes vertex-sampled (x, y, u1, u2, p) rows."""
    from . import linalg
    from .discretization import Discretization
    from .mesh import build_uniform_unit_square

    if len(config.lams) != 1 or len(config.iotas) != 1 \
            or len(config.ns) != 1:
        raise ConfigError("solve takes single lambda, iota, and n values")
    if config.large:
        raise ConfigError("solve takes no large key: it runs one n")
    lam, iota, n = config.lams[0], config.iotas[0], config.ns[0]
    disc = Discretization(build_uniform_unit_square(n), config.example)
    try:
        u, p, _ = linalg.solve_saddle(disc.system(config.mu, lam, iota),
                                      tol=config.tol)
    except linalg.SolverBreakdown as exc:
        sys.stderr.write("solver breakdown: %s\n" % exc)
        return 2

    mesh, vmap, qmap = disc.mesh, disc.vmap, disc.qmap
    path = config.out or "solution.csv"
    with open(path, "w") as fh:
        fh.write("x,y,u1,u2,p\n")
        for v in range(mesh.num_vertices):
            d1, d2 = vmap.vertex_dofs[v]
            u1 = u[d1] if d1 >= 0 else 0.0
            u2 = u[d2] if d2 >= 0 else 0.0
            q = qmap.vertex_index[v]
            pv = p[q] if q >= 0 else 0.0
            fh.write("%.8e,%.8e,%.8e,%.8e,%.8e\n"
                     % (mesh.vertices[v, 0], mesh.vertices[v, 1],
                        u1, u2, pv))
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

    def study(p, large):
        p.add_argument("--example", choices=_EXAMPLES)
        p.add_argument("--lambda", dest="lam", type=_floats,
                       metavar="LIST", help="comma-separated lambda values")
        p.add_argument("--iota", type=_floats, metavar="LIST",
                       help="comma-separated iota values")
        p.add_argument("--n", type=_ints, metavar="LIST",
                       help="comma-separated mesh subdivisions")
        if large:
            p.add_argument("--large", action="store_true",
                           help="extend the default n list with 128, 256")
        output(p)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--tol", type=float,
                       help="solver relative residual tolerance")
        p.add_argument("--mu", type=float, help="shear modulus (default 1)")

    study(sub.add_parser("convergence", help="run a convergence study"),
          large=True)
    study(sub.add_parser("solve", help="solve once and export fields"),
          large=False)

    verify = sub.add_parser("verify", help="run the structural checks")
    verify.add_argument("--n", type=_ints, metavar="LIST",
                        help="mesh subdivisions for the continuity and "
                             "inf-sup checks (inf-sup uses 3 <= n <= 32)")
    verify.add_argument("--iota", type=_floats, metavar="LIST",
                        help="iota sweep for the inf-sup check")
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
            if args.threads is not None and args.threads < 1:
                raise ConfigError("threads must be at least 1")
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


if __name__ == "__main__":
    sys.exit(main())
