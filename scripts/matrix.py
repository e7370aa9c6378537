"""Run the CI checks on every Python from 3.10 to 3.13 found on PATH.

    python3 scripts/matrix.py [--pytest-path DIR]

For each version it looks up `python3.X` on PATH and runs, from this
checkout's src/:
- the CI smoke job, `perfbench/run.py --workload all --seed 1 --seconds 1`
  with `--trace 0` and `--trace 1`;
- the depth bisection: the largest n that `gendispatch fact n` computes,
  and the deepest call, lambda and let nesting that `gendispatch walk`
  walks, each in a fresh interpreter, and whether one level more exits 1
  with a one-line error;
- tier-1, `pytest -q`, where pytest imports.  --pytest-path puts a directory
  on that interpreter's path, for example another version's site-packages
  holding a pure-Python pytest; that is a local check, not a packaging one.

It prints one line per interpreter saying what ran, what was skipped and
why, and exits 1 when a check that ran failed.  Under pyenv, list every
version in PYENV_VERSION (say `3.11.7:3.10.13:3.12.1:3.13.0`) so that each
`python3.X` shim resolves.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
VERSIONS = ["3.10", "3.11", "3.12", "3.13"]
WALK_FORMS = {"call": "(f ", "lambda": "(lambda (x) ", "let": "(let ((x 1)) "}


def run(python, argv, path=SRC, timeout=600):
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([python, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def bisect(fits, lo, hi):
    """The largest n in [lo, hi) for which fits(n), given fits(lo) and not
    fits(hi)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def smoke(python):
    for trace in ("0", "1"):
        argv = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", trace]
        result = run(python, argv)
        if result.returncode:
            return False, "smoke FAILED (--trace %s exits %d: %s)" % (trace, result.returncode, last_line(result.stderr))
    return True, "smoke ok (--trace 0 and 1)"


def depth_limit(python, cli, hi, lo=100):
    """The depth, bisected in [lo, hi), past which `cli(n)`, the gendispatch
    arguments and the expected stdout at depth n, no longer runs, or "hi+"
    if hi runs; and whether one level past it exits 1 with one line."""

    def attempt(n):
        argv, stdout = cli(n)
        result = run(python, ["-m", "gendispatch", *argv])
        return result, result.returncode == 0 and result.stdout == stdout

    if attempt(hi)[1]:
        return "%d+" % hi, True
    limit = bisect(lambda n: attempt(n)[1], lo, hi)
    past, _fits = attempt(limit + 1)
    return str(limit), past.returncode == 1 and len(past.stderr.splitlines()) == 1


def depths(python, scratch):
    def fact(n):
        return ["fact", str(n)], "%d\n" % math.factorial(n)

    def walk(form, name):
        def cli(n):
            path = os.path.join(scratch, "%s-%d.sexp" % (name, n))
            with open(path, "w") as f:
                f.write(form * n + "x" + ")" * n)
            shadowed = "unused-binding x\n" * (n - 1) if name != "call" else "unbound-variable x\n"
            return ["walk", path], shadowed

        return cli

    # n! for n up to 1500 prints within Python's 4300-digit conversion limit
    limits = [("fact", depth_limit(python, fact, 1500))]
    limits += [("walk " + name, depth_limit(python, walk(form, name), 4000)) for name, form in WALK_FORMS.items()]
    ok = all(one_line for _name, (_limit, one_line) in limits)
    words = ", ".join("%s %s" % (name, limit) for name, (limit, _one_line) in limits)
    return ok, "depth %s, one level more %s" % (words, "exits 1 with one line" if ok else "does NOT exit 1 with one line")


def tier1(python, pytest_path):
    path = os.pathsep.join(filter(None, [SRC, pytest_path]))
    probe = run(python, ["-c", "import pytest"], path=path)
    if probe.returncode:
        return True, "tier-1 skipped: pytest does not import (%s)" % last_line(probe.stderr)
    result = run(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"], path=path)
    outcome = "tier-1 " + last_line(result.stdout).strip("= ")
    return result.returncode == 0, outcome if result.returncode == 0 else outcome + " (FAILED)"


def check(version, pytest_path):
    name = "python" + version
    python = shutil.which(name)
    if python is None:
        return True, "%s: skipped: not on PATH" % name
    probe = run(python, ["-c", "import sys; print(sys.version.split()[0])"])
    if probe.returncode:
        return True, "%s: skipped: does not run (%s)" % (name, (probe.stderr or probe.stdout).strip().splitlines()[0])
    with tempfile.TemporaryDirectory() as scratch:
        results = [smoke(python), depths(python, scratch), tier1(python, pytest_path)]
    line = "%s (%s): %s" % (name, probe.stdout.strip(), "; ".join(words for _ok, words in results))
    return all(ok for ok, _words in results), line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pytest-path", help="a directory put on the path for tier-1, where pytest can import")
    args = parser.parse_args(argv)
    failed = False
    for version in VERSIONS:
        ok, line = check(version, args.pytest_path)
        print(line, flush=True)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
