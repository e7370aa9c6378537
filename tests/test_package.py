"""The package's public names."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import gendispatch

# public names change only on purpose: a change here is noted in CHANGES.md
PUBLIC_NAMES = {
    # submodules
    "accept", "bench", "core", "httpd", "model", "reader", "walker",
    # model and reader
    "CLASSES", "NIL", "ClassRegistry", "Cons", "DuplicateClassError", "Instance",
    "LinearizationError", "ParseError", "Request", "Symbol", "UndefinedClassError",
    "class_of", "cons_list", "eql", "format_value", "intern", "iter_list",
    "read_sexpr", "subclass_p",
    # core
    "ANY", "ClassGeneralizer", "ClassSpecializer", "DispatchError", "EffectiveMethod",
    "EqlSpecializer", "Generalizer", "GenericFunction", "Method", "MethodNotFound",
    "NoApplicableMethod", "NoPrimaryMethod", "Specializer",
    # extensions
    "ConsGeneralizer", "ConsGenericFunction", "ConsSpecializer", "Diagnostic", "Walker",
    "walk_check", "SignumGeneralizer", "SignumGenericFunction", "SignumSpecializer",
    "make_fact", "signum", "AcceptGeneralizer", "AcceptGenericFunction",
    "AcceptSpecializer", "AcceptTree", "MediaRange", "make_negotiator", "negotiate",
    "parse_accept_header", "quality",
    # server and benchmark
    "HttpParseError", "Response", "handle_raw", "make_responder", "parse_http_request",
    "respond", "BenchResult", "bench_cons", "bench_signum", "time_per_call",
}


def test_public_names_are_pinned() -> None:
    assert sorted(gendispatch.__all__) == sorted(PUBLIC_NAMES)
    assert len(gendispatch.__all__) == len(PUBLIC_NAMES)  # no name listed twice


SRC = os.path.dirname(os.path.dirname(os.path.abspath(gendispatch.__file__)))
# layers that the fact and walk paths never run
HEAVY = ("dataclasses", "fractions", "gendispatch.walker", "gendispatch.accept",
         "gendispatch.httpd", "gendispatch.bench")


def run_fresh(code: str) -> str:
    """Run code in a new interpreter, without site imports so that no local customization
    loads modules for it; its last line of output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def heavy_modules_after(code: str) -> set:
    return set(run_fresh(code + "\nimport sys\nprint(*[m for m in %r if m in sys.modules])"
                         % (HEAVY,)).split())


@pytest.mark.parametrize(
    "code, allowed",
    [
        ("import gendispatch.signum\nfrom gendispatch import make_fact\nmake_fact()(20)", set()),
        ("import gendispatch.cli\ngendispatch.cli.main(['fact', '5'])", set()),
        ("from gendispatch import Walker, read_sexpr\n"
         "Walker().check_form(read_sexpr('(lambda (x) (let ((y 1)) z))'))",
         {"gendispatch.walker"}),
        ("import gendispatch.cli\ngendispatch.cli.main(['negotiate', 'text/html;q=0.5, */*;q=0.1'])",
         {"gendispatch.accept"}),
        ("from gendispatch import httpd\nhttpd.handle_raw(b'GET / HTTP/1.1\\r\\nAccept: text/html\\r\\n\\r\\n')",
         {"gendispatch.accept", "gendispatch.httpd"}),
        ("import gendispatch.bench", {"gendispatch.walker", "gendispatch.bench"}),
    ],
    ids=["fact", "cli-fact", "walk", "cli-negotiate", "handle-raw", "bench"],
)
def test_a_process_loads_only_the_layers_it_runs(code: str, allowed: set) -> None:
    assert heavy_modules_after(code) == allowed


def test_every_public_name_resolves_in_a_fresh_interpreter() -> None:
    code = (
        "import gendispatch\n"
        "listed = set(dir(gendispatch)) >= set(gendispatch.__all__)\n"
        "missing = [n for n in gendispatch.__all__ if getattr(gendispatch, n, None) is None]\n"
        "print(listed, missing, gendispatch.Walker is gendispatch.walker.Walker)"
    )
    assert run_fresh(code) == "True [] True"


def test_signum_stays_the_function_after_importing_its_module() -> None:
    code = "import gendispatch.signum\nimport gendispatch as g\nprint(type(g.signum).__name__, g.signum(-3))"
    assert run_fresh(code) == "function -1"
    assert callable(gendispatch.signum) and gendispatch.signum(0) == 0


def test_unknown_attributes_raise_attribute_error() -> None:
    assert not hasattr(gendispatch, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        gendispatch.no_such_name  # noqa: B018
    assert set(dir(gendispatch)) >= set(gendispatch.__all__)
