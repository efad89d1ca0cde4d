"""Benchmark of the sgefem study workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is a fresh Python process
(worker.py) with one BLAS thread, which calls sgefem.cli.main once on
the argv the workload and seed generate; cells run one after another,
one closed-loop caller, nothing else running beside it.  Passes repeat
while the next one is expected to end within --seconds (at least one).

--trace 0 reports the end-to-end metrics: wall_s (seconds of the main
call, until its output is written; the mean of the passes, see
mean_wall), setup_s (median seconds from process start until numpy,
scipy and sgefem are imported, over set-up probes and passes) and
peak_rss_mb (median ru_maxrss of a pass).
--trace 1 alternates untraced and traced passes of the same argv and
reports the per-layer metrics of tracer.py, trace.wall_s and
trace.overhead_s (traced minus untraced wall, medians); the outputs of
the two kinds of pass must be byte-identical.

Every output is checked: each study cell's E_u against the frozen bands
of tests/test_acceptance.py, each verify check's pass flag, and the exit
code.  Bad values are counted in "failed" without stopping the run.  The
last line of stdout is the JSON result.
"""

import argparse
import ast
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS, layer_metrics, validate_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
CLI = os.path.join(ROOT, "src", "sgefem", "cli.py")
WORK = os.path.join(ROOT, ".perfbench")
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
#: every pass of a run must have ended this many seconds after it began
RUN_TIMEOUT_S = 160.0

EX1_IOTAS = (1e0, 1e-1, 1e-8)
REFINE_NS = (16, 32, 64)
VERIFY_NS = (2, 3, 4, 5, 6, 7, 8)
VERIFY_IOTAS = (1e0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8)
FROZEN_LAMBDAS = (1e0, 1e4, 1e8)

WORKLOADS = ("sweep-ex1-n32", "refine-ex2", "verify-grid")


class BenchmarkError(RuntimeError):
    pass


def draw_lambdas(seed, count):
    """Seed 0: the frozen grid (1e4 when one value is asked for); any
    other seed: distinct values log-uniform in [1, 1e8], rounded to four
    digits so the CSV's %g prints them exactly."""
    if seed == 0:
        return [1e4] if count == 1 else list(FROZEN_LAMBDAS[:count])
    rng = random.Random(seed)
    values = set()
    while len(values) < count:
        values.add(float("%.4g" % 10.0 ** rng.uniform(0.0, 8.0)))
    return sorted(values)


def _csv_list(values):
    return ",".join("%g" % v for v in values)


def workload(name, seed, out):
    """(argv, expected cells) of a workload; cells are (lam, iota, n)
    keys of the convergence table, None for verify."""
    if name == "sweep-ex1-n32":
        lams = draw_lambdas(seed, 3)
        argv = ["convergence", "--example", "example1",
                "--lambda", _csv_list(lams), "--iota", _csv_list(EX1_IOTAS),
                "--n", "32", "--out", out]
        cells = [(lam, iota, 32) for lam in lams for iota in EX1_IOTAS]
        return argv, "example1", cells
    if name == "refine-ex2":
        lams = draw_lambdas(seed, 1)
        argv = ["convergence", "--example", "example2",
                "--lambda", _csv_list(lams), "--iota", "1e-06",
                "--n", ",".join(str(n) for n in REFINE_NS), "--out", out]
        return argv, "example2", [(lams[0], 1e-6, n) for n in REFINE_NS]
    if name == "verify-grid":
        argv = ["verify", "--n", ",".join(str(n) for n in VERIFY_NS),
                "--iota", _csv_list(VERIFY_IOTAS), "--seed", str(seed),
                "--out", out]
        return argv, None, None
    raise BenchmarkError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOADS)))


class Reference:
    """Frozen bands, their tolerance and the deviation measure, read
    from tests/test_acceptance.py so they have one source."""

    def __init__(self, path=ACCEPTANCE):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        consts, funcs = {}, {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                consts[node.targets[0].id] = node.value
            elif isinstance(node, ast.FunctionDef):
                funcs[node.name] = node
        self.ns = ast.literal_eval(consts["NS"])
        self.ex1 = ast.literal_eval(consts["EX1_REF"])
        self.ex2 = ast.literal_eval(consts["EX2_REF"])
        scope = {}
        exec(compile(ast.Module([funcs["range_deviation"]], []), path,
                     "exec"), scope)
        self.deviation = scope["range_deviation"]
        tols = set()
        for fname in ("test_smooth_field_errors_smallest_iota",
                      "test_boundary_layer_errors_and_rate_trend"):
            for node in ast.walk(funcs[fname]):
                if isinstance(node, ast.Compare) \
                        and isinstance(node.left, ast.Name) \
                        and node.left.id in ("dev", "worst") \
                        and isinstance(node.ops[0], ast.LtE):
                    tols.add(ast.literal_eval(node.comparators[0]))
        if len(tols) != 1:
            raise BenchmarkError("cannot read one band tolerance from %s"
                                 % path)
        self.tol = tols.pop()

    def band(self, example, iota, n):
        i = self.ns.index(n)
        return self.ex1[iota][i] if example == "example1" else self.ex2[i]


def _number(text, kind=float):
    """kind(text), or None when the field is missing or malformed."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        return None


def check_table(path, example, cells, ref, exit_code):
    """(ops, failed, consistent) for one convergence table: a cell fails
    when its row is missing, did not end "ok", or its E_u is not within
    the tolerance of the frozen band."""
    rows = {}
    if os.path.exists(path):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rows[_number(row.get("lambda")), _number(row.get("iota")),
                     _number(row.get("n"), int)] = row
    failed = breakdowns = 0
    for key in cells:
        row = rows.get(key, {})
        breakdowns += row.get("status") == "breakdown"
        e_u = _number(row.get("E_u"))
        if row.get("status") != "ok" or e_u is None or not (
                ref.deviation(e_u, ref.band(example, key[1], key[2]))
                <= ref.tol):
            failed += 1
    consistent = set(rows) == set(cells) and (
        exit_code == 0 and breakdowns == 0
        or exit_code == 2 and breakdowns > 0)
    return len(cells), failed, consistent


def check_report(path, exit_code):
    """(ops, failed, consistent) for a verify report: one op per check,
    failed when its pass flag is not true."""
    rows = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    if not rows:
        return 1, 1, False
    failed = sum(row.get("pass") != "true" for row in rows)
    families = all(any((r.get("check") or "").startswith(f) for r in rows)
                   for f in ("unisolvence_", "weak_continuity_", "infsup_"))
    consistent = families and exit_code == (1 if failed else 0)
    return len(rows), failed, consistent


def spawn(mode, argv, tag, deadline):
    """Run one worker process and return its record."""
    record = os.path.join(WORK, tag + ".json")
    env = dict(os.environ, **BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           repr(time.monotonic()), mode, record] + argv
    timeout = max(deadline - time.monotonic(), 10.0)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(record):
        raise BenchmarkError("%s pass exited with %d:\n%s"
                             % (mode, proc.returncode,
                                proc.stderr.decode(errors="replace")))
    with open(record) as fh:
        return json.load(fh)


class Run:
    """Passes of one workload, their checks and their samples."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.ref = Reference()
        self.attempted = self.failed = 0
        self.consistent = True
        self.passes = 0
        self.env = None
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def one_pass(self, mode):
        """One checked pass; returns (record, output bytes)."""
        self.passes += 1
        tag = "%s-%d" % (mode, self.passes)
        out = os.path.join(WORK, tag + ".out")
        argv, example, cells = workload(self.name, self.seed, out)
        record = spawn(mode, argv, tag, self.deadline)
        self.env = record["env"]
        if cells is None:
            ops, failed, ok = check_report(out, record["exit_code"])
        else:
            ops, failed, ok = check_table(out, example, cells, self.ref,
                                          record["exit_code"])
        record["ops"], record["ops_failed"] = ops, failed
        self.attempted += ops
        self.failed += failed
        self.consistent &= ok
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        return record, data


def repeat(seconds, body):
    """Call body() while the next call is expected to end within
    ``seconds`` of the start; always at least once."""
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        body()
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds:
            return


def mean_wall(records):
    """Mean wall time of the passes.

    The CPUs of a shared host run in fast and slow phases, about 1.4
    times apart, that last from seconds to minutes.  A median of short
    passes jumps between the two speeds as the slow share of a run
    crosses one half; the mean moves in proportion to that share, as
    one long pass would, and its run-to-run spread is smaller.
    """
    return statistics.fmean(r["wall_s"] for r in records)


def end_to_end(run, seconds):
    start = time.monotonic()
    setups = [spawn("setup", [], "setup-%d" % i, run.deadline)["setup_s"]
              for i in range(SETUP_PROBES)]
    records = []

    def body():
        record, _ = run.one_pass("plain")
        records.append(record)
        setups.append(record["setup_s"])

    repeat(seconds - (time.monotonic() - start), body)
    metrics = {
        "wall_s": (mean_wall(records), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                          for r in records), "MiB"),
    }
    summary = ["passes %d, set-up samples %d" % (len(records), len(setups)),
               "wall_s per pass: %s" % " ".join("%.3f" % r["wall_s"]
                                                for r in records)]
    return metrics, records, summary


def per_layer(run, seconds):
    plain, traced = [], []

    def body():
        record, out_plain = run.one_pass("plain")
        plain.append(record)
        record, out_traced = run.one_pass("traced")
        validate_spans(record["spans"])
        record["layers"] = layer_metrics(record.pop("spans"))
        traced.append(record)
        if out_plain != out_traced:
            sys.stderr.write("traced and untraced outputs differ\n")
            run.consistent = False

    repeat(seconds, body)
    units = dict(LAYER_METRICS)
    metrics = {name: (statistics.median(r["layers"][name] for r in traced),
                      units[name])
               for name in traced[0]["layers"]}
    wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (
        wall - statistics.median(r["wall_s"] for r in plain), "s")
    summary = ["pass pairs %d" % len(traced)]
    return metrics, plain + traced, summary


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for path in (CLI, ACCEPTANCE):
        if not os.path.isfile(path):
            sys.stderr.write("error: %s not found; run from the root of an "
                             "sgefem checkout\n" % path)
            return 2
    declared = declared_metrics(args.trace)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        run = Run(args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, records, summary = measure(run, args.seconds)
    except (BenchmarkError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if {k: u for k, (_, u) in metrics.items()} != declared:
        sys.stderr.write("error: metrics %s do not match BENCHMARK.json %s\n"
                         % (sorted(metrics), sorted(declared)))
        return 1

    per_pass_ops = records[0]["ops"]
    print("workload %s seed %d trace %d: %s"
          % (args.workload, args.seed, args.trace, "; ".join(summary)))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    print("  %-32s %14d per pass" % ("ops", per_pass_ops))
    print("  %-32s %14d over %d passes"
          % ("ops_failed", run.failed, len(records)))
    env = dict(machine(), **run.env)
    env.update(seed=args.seed, workload=args.workload,
               argv=workload(args.workload, args.seed, "OUT")[0])
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.consistent and run.failed == 0,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
