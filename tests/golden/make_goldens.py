"""Write the golden outputs that tests/test_acceptance.py compares.

    PYTHONPATH=src python tests/golden/make_goldens.py [--check]

Run from the root of a checkout, on one BLAS thread (set here, before
numpy is loaded).  Each file is the output of one command line:

- example1.csv: the default example1 study
- example2_iota_1e-6_1e-8.csv: the example2 study at iota 1e-6 and 1e-8
  (the rows of the default study at those iotas)
- verify_grid.txt, verify_grid.csv: the verify report and CSV on the
  seed-0 grid of perfbench's verify-grid workload
- solve_example2_n8.csv: the vertex export of one example2 solve

A golden file moves only by rerunning this script; each value it moves
is listed, with both numbers, in CHANGES.md.  The script prints each
line it changes to stderr, as "FILE:LINE: old -> new", which gives that
list.  The commands write into a temporary directory, whose files are
then copied here; with ``--check`` nothing is copied, and the script
exits with 1 if it would change a line.
"""

import contextlib
import io
import itertools
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

COMMANDS = {
    "example1.csv": ["convergence", "--example", "example1"],
    "example2_iota_1e-6_1e-8.csv": ["convergence", "--example", "example2",
                                    "--iota", "1e-6,1e-8"],
    "verify_grid.csv": ["verify", "--n", "2,3,4,5,6,7,8",
                        "--iota", "1,0.1,0.01,1e-4,1e-6,1e-8",
                        "--seed", "0"],
    "solve_example2_n8.csv": ["solve", "--example", "example2", "--n", "8",
                              "--lambda", "1e4", "--iota", "1e-6"],
}
#: the file that receives a command's stdout, where it has one to keep
STDOUT = {"verify_grid.csv": "verify_grid.txt"}


def changed_lines(name, old, new):
    """"name:LINE: old -> new" for each line of the text new that differs
    from the same line of old; a line that only one of them has is
    empty in the other."""
    pairs = itertools.zip_longest(old.splitlines(), new.splitlines(),
                                  fillvalue="")
    for line, (a, b) in enumerate(pairs, 1):
        if a != b:
            yield "%s:%d: %s -> %s" % (name, line, a, b)


def _read(path):
    if not os.path.exists(path):
        return ""
    with open(path) as fh:
        return fh.read()


def main():
    if sys.argv[1:] not in ([], ["--check"]):
        sys.stderr.write("usage: make_goldens.py [--check]\n")
        return 2
    check = sys.argv[1:] == ["--check"]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from sgefem.cli import main as cli

    changed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name, args in COMMANDS.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli(args + ["--out", os.path.join(scratch, name)])
            if code != 0:
                sys.stderr.write("%s exited with %d\n"
                                 % (" ".join(args), code))
                return 1
            texts = {name: _read(os.path.join(scratch, name))}
            if name in STDOUT:
                texts[STDOUT[name]] = stdout.getvalue()
            for written, text in texts.items():
                golden = os.path.join(HERE, written)
                for change in changed_lines(written, _read(golden), text):
                    sys.stderr.write(change + "\n")
                    changed = True
                if not check:
                    with open(golden, "w") as fh:
                        fh.write(text)
    return 1 if check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
