"""The benchmark traces named package functions; they must all still exist."""

from __future__ import annotations

import functools
import os
import sys

import pytest

from gendispatch import ConsGenericFunction, GenericFunction, Method, SignumGenericFunction, SignumSpecializer

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
    # the rule-built methods, too, name their class and their package module
    for cls in (GenericFunction, SignumGenericFunction, ConsGenericFunction):
        method = cls.__dict__["generalizer_of"]
        assert method.__qualname__ == cls.__name__ + ".generalizer_of"
        assert method.__module__ == cls.__module__


def _counted(fn, calls):
    @functools.wraps(fn)  # copies the method's attributes too
    def wrapper(*args):
        calls.append(args[1])
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("wrap", ["spans", "functools.wraps"])
def test_a_generalizer_of_wrapped_before_the_function_is_built_sees_each_dispatch(wrap) -> None:
    # so a traced run counts core.generalizer_of truly: the wrapper is not the
    # rule-built method, and the discriminating function calls it
    class Traced(SignumGenericFunction):
        pass

    calls = []
    if wrap == "spans":
        tracer = _spans().Tracer()
        Traced.generalizer_of = tracer.wrap("core.generalizer_of", SignumGenericFunction.generalizer_of)
    else:
        Traced.generalizer_of = _counted(SignumGenericFunction.generalizer_of, calls)
    fact = Traced("fact", 1)
    recurse = fact.discriminating_function
    fact.add_method(Method([SignumSpecializer(0)], lambda args, _next: 1))
    fact.add_method(Method([SignumSpecializer(1)], lambda args, _next: args[0] * recurse(args[0] - 1)))
    assert fact(5) == 120
    assert fact(5) == 120  # every level hits the cache now
    dispatches = tracer.totals["core.generalizer_of"][0] if wrap == "spans" else len(calls)
    assert dispatches == 12
