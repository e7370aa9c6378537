"""Dispatch cost measurements: each scenario compares a plain function, a
class-dispatched generic function, and the extension-dispatched generic
function with three cache arrangements.  The cons scenario's rows all run
the walker's own walk_*_form bodies, so they differ only in how each form
reaches its body.

Protocol: calibrate an iteration count well above the clock resolution, run
once to warm caches (discarded), then time 20 runs and report the mean of the
10 central samples.  Every variant must agree with an independently computed
result before anything is timed.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from itertools import repeat

from .model import CLASSES, Cons, Symbol, intern
from .core import ANY, ClassSpecializer, GenericFunction, Method
from .reader import read_sexpr
from .signum import make_fact
from .walker import (
    Environment,
    Walker,
    walk_atom_form,
    walk_call_form,
    walk_lambda_form,
    walk_let_form,
    walk_symbol_form,
)

RUNS = 20
MIN_RUN_SECONDS = 0.02


@dataclass
class BenchResult:
    implementation: str
    us_per_call: float
    overhead_pct: float | None  # None for the baseline row


def time_per_call(fn, runs: int = RUNS, min_run_seconds: float = MIN_RUN_SECONDS) -> float:
    """Mean microseconds per fn() call over the central half of `runs` runs."""
    resolution = time.get_clock_info("perf_counter").resolution
    floor = max(min_run_seconds, 100.0 * resolution)
    iterations = 1
    while _timed_run(fn, iterations) < floor:
        iterations *= 2
    _timed_run(fn, iterations)  # warm-up, discarded
    samples = sorted(_timed_run(fn, iterations) / iterations for _ in range(runs))
    drop = runs // 4
    central = samples[drop : runs - drop]
    return 1e6 * sum(central) / len(central)


def _timed_run(fn, iterations: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in repeat(None, iterations):
            fn()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _results(rows) -> list[BenchResult]:
    base = rows[0][1]
    out = [BenchResult(rows[0][0], base, None)]
    for name, us in rows[1:]:
        out.append(BenchResult(name, us, (us / base - 1.0) * 100.0))
    return out


# -- factorial scenario


def fact_function(n):
    """Plain recursive factorial, the baseline implementation."""
    if n == 0:
        return 1
    return n * fact_function(n - 1)


def fact_oracle(n: int) -> int:
    """Independent iterative product for the correctness gate."""
    result = 1
    for k in range(2, n + 1):
        result *= k
    return result


def make_fact_standard(cache: str = "auto") -> GenericFunction:
    """Factorial as a plain class-dispatched generic function."""
    fact = GenericFunction("fact", 1, cache=cache)

    def body(args, _next):
        n = args[0]
        if n == 0:
            return 1
        return n * fact(n - 1)

    fact.add_method(Method([ClassSpecializer(CLASSES["integer"])], body))
    return fact


def bench_signum(runs: int = RUNS, min_run_seconds: float = MIN_RUN_SECONDS) -> list[BenchResult]:
    expected = fact_oracle(20)
    standard = make_fact_standard()
    variants = [
        ("function", lambda: fact_function(20)),
        ("standard-gf", lambda: standard(20)),
        ("signum-gf/one-arg-cache", _caller(make_fact("auto"))),
        ("signum-gf/list-cache", _caller(make_fact("list"))),
        ("signum-gf/no-cache", _caller(make_fact("none"))),
    ]
    for name, call in variants:
        got = call()
        if got != expected:
            raise RuntimeError("%s computed %r, expected %r" % (name, got, expected))
    return _results([(name, time_per_call(call, runs, min_run_seconds)) for name, call in variants])


def _caller(fact_gf):
    return lambda: fact_gf(20)


# -- walker scenario

FIXTURE_SOURCE = "(lambda (x y) (let ((z (f x))) (g z y z)))"

_LAMBDA = intern("lambda")
_LET = intern("let")


def monolithic_check(form):
    """The walker as one recursive function with a type-and-head branch."""

    def walk(*args):
        expr = args[0]
        if isinstance(expr, Cons):
            if expr.car is _LAMBDA:
                walk_lambda_form(args, None)
            elif expr.car is _LET:
                walk_let_form(args, None)
            else:
                walk_call_form(args, None)
        elif isinstance(expr, Symbol):
            walk_symbol_form(args, None)

    env = Environment(walk)
    walk(form, env, (form,))
    return env.out


def _walk_cons(args, _next):
    car = args[0].car
    if car is _LAMBDA:
        walk_lambda_form(args, _next)
    elif car is _LET:
        walk_let_form(args, _next)
    else:
        walk_call_form(args, _next)


class StandardWalker(Walker):
    """The walker as a class-dispatched generic function with the walker's
    own form bodies; special forms are told apart inside the cons method."""

    def __init__(self, cache: str = "auto"):
        self.gf = GenericFunction("walk", 3, cache=cache)
        self.gf.add_method(Method([ClassSpecializer(CLASSES["symbol"]), ANY, ANY], walk_symbol_form))
        self.gf.add_method(Method([ClassSpecializer(CLASSES["cons"]), ANY, ANY], _walk_cons))
        self.gf.add_method(Method([ANY, ANY, ANY], walk_atom_form))


def bench_cons(runs: int = RUNS, min_run_seconds: float = MIN_RUN_SECONDS) -> list[BenchResult]:
    form = read_sexpr(FIXTURE_SOURCE)
    standard = StandardWalker()
    variants = [
        ("function", lambda: monolithic_check(form)),
        ("standard-gf", lambda: standard.check_form(form)),
        ("cons-gf/one-arg-cache", _checker(Walker("auto"), form)),
        ("cons-gf/list-cache", _checker(Walker("list"), form)),
        ("cons-gf/no-cache", _checker(Walker("none"), form)),
    ]
    expected = [(d.kind, d.variable) for d in monolithic_check(form)]
    for name, call in variants:
        got = [(d.kind, d.variable) for d in call()]
        if got != expected:
            raise RuntimeError("%s reported %r, expected %r" % (name, got, expected))
    return _results([(name, time_per_call(call, runs, min_run_seconds)) for name, call in variants])


def _checker(walker, form):
    return lambda: walker.check_form(form)
