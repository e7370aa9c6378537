"""The benchmark traces named package functions; they must all still exist."""

from __future__ import annotations

import functools
import os
import sys

import pytest

from gendispatch import (
    AcceptGenericFunction,
    AcceptSpecializer,
    ConsGenericFunction,
    GenericFunction,
    Method,
    Request,
    SignumGenericFunction,
    SignumSpecializer,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return spans


def test_every_traced_boundary_is_an_untraced_package_function() -> None:
    # fails when a refactor renames or removes a boundary that
    # perfbench/spans.py wraps, instead of crashing a benchmark run
    _spans().assert_untraced()
    # each extension states its rule and no generalizer_of of its own, so
    # spans wraps the one generalizer_of, core's, which runs every rule
    for cls in (SignumGenericFunction, ConsGenericFunction, AcceptGenericFunction):
        assert "generalizer_of" not in vars(cls) and "generalizer_rule" in vars(cls), cls
    assert "generalizer_rule" in vars(GenericFunction)


def _counted(fn, calls):
    @functools.wraps(fn)  # copies the method's attributes too
    def wrapper(*args):
        calls.append(args[1])
        return fn(*args)

    return wrapper


def _fact(cls):
    # fact(5) twice: six dispatches that miss, then six that hit
    fact = cls("fact", 1)
    recurse = fact.discriminating_function
    fact.add_method(Method([SignumSpecializer(0)], lambda args, _next: 1))
    fact.add_method(Method([SignumSpecializer(1)], lambda args, _next: args[0] * recurse(args[0] - 1)))
    return [fact(5), fact(5)], [120, 120], 12


def _negotiate(cls):
    # a string and a request, each once unseen and once from the memo
    negotiate = cls("negotiate", 1)
    for media_type in ("text/html", "text/plain"):
        negotiate.add_method(Method([AcceptSpecializer(media_type)], lambda args, _next, t=media_type: t))
    request = Request("GET", "/", {"Accept": "text/plain"})
    results = [negotiate(arg) for arg in ("text/html", "text/html", request, request)]
    return results, ["text/html", "text/html", "text/plain", "text/plain"], 4


_WRAP_CASES = [(wrap, base, run) for base, run in ((SignumGenericFunction, _fact), (AcceptGenericFunction, _negotiate))
               for wrap in ("spans", "functools.wraps")]


@pytest.mark.parametrize("wrap, base, run", _WRAP_CASES,
                         ids=["spans", "functools.wraps", "accept-spans", "accept-functools.wraps"])
def test_a_generalizer_of_wrapped_before_the_function_is_built_sees_each_dispatch(wrap, base, run) -> None:
    # so a traced run counts core.generalizer_of truly: the wrapper is not
    # core's method, and the discriminating function calls it
    class Traced(base):
        pass

    calls = []
    if wrap == "spans":
        tracer = _spans().Tracer()
        Traced.generalizer_of = tracer.wrap("core.generalizer_of", base.generalizer_of)
    else:
        Traced.generalizer_of = _counted(base.generalizer_of, calls)
    results, expected, dispatches = run(Traced)
    assert results == expected
    assert (tracer.totals["core.generalizer_of"][0] if wrap == "spans" else len(calls)) == dispatches
