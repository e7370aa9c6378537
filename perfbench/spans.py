"""Layer-boundary spans, recorded by wrapping gendispatch's public functions
from outside the package.

Spans are aggregated in memory as they close (calls, self time, total time
per boundary name) and written out once at the end.  A span's self time is
its duration minus the time covered by the spans it caused.  A call that
re-enters the boundary it is already in (an extension's super() call to the
core protocol method, signum's recursive applicability check) belongs to the
open span and records no new one.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.totals: dict = {}  # boundary name -> [calls, self ns, total ns]
        self._stack: list = []  # open spans: [name, ns covered by children]

    def wrap(self, name: str, fn):
        name = sys.intern(name)
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack

        def span(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed - frame[1]
                totals[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        span.__wrapped__ = fn
        return span

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump(self.totals, handle)


def _protocol_classes():
    from gendispatch import core, walker, accept

    # the package's `signum` attribute is the function, not the module
    signum = importlib.import_module("gendispatch.signum")
    return (
        core.GenericFunction,
        signum.SignumGenericFunction,
        walker.ConsGenericFunction,
        accept.AcceptGenericFunction,
    )


# (boundary name, protocol method) pairs wrapped on every class that defines them
_METHODS = [
    ("core.dispatch", "__call__"),
    ("core.generalizer_of", "generalizer_of"),
    ("core.generalizer_hash_key", "generalizer_hash_key"),
    ("core.specializer_accepts_generalizer", "specializer_accepts_generalizer"),
    ("core.specializer_order", "specializer_order"),
    ("core.compute_effective_method", "compute_effective_method"),
    ("core.compute_applicable_methods", "compute_applicable_methods"),
]


def _functions():
    """(boundary name, module, attribute) for wrapped module-level functions."""
    from gendispatch import core, reader, walker, accept, httpd

    return [
        ("core.freeze_key", core, "freeze_key"),
        ("accept.parse_accept_header", accept, "parse_accept_header"),
        ("accept.quality", accept, "quality"),
        ("reader.read_sexpr", reader, "read_sexpr"),
        ("walker.walk_form", walker, "walk_lambda_form"),
        ("walker.walk_form", walker, "walk_let_form"),
        ("walker.walk_form", walker, "walk_symbol_form"),
        ("walker.walk_form", walker, "walk_call_form"),
        ("httpd.parse_http_request", httpd, "parse_http_request"),
        ("httpd.respond", httpd, "respond"),
        ("httpd.format_response", httpd, "format_response"),
        ("httpd.handle_raw", httpd, "handle_raw"),
    ]


def install() -> Tracer:
    """Wrap every boundary.  Method bodies are wrapped as methods are made,
    so generic functions must be built after this call."""
    from gendispatch import core

    tracer = Tracer()
    for name, attr in _METHODS:
        for cls in _protocol_classes():
            if attr in cls.__dict__:
                setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
    for name, module, attr in _functions():
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    method_init = core.Method.__init__

    def init(self, specializers, body, qualifier="primary"):
        method_init(self, specializers, tracer.wrap("core.method_body", body), qualifier)

    core.Method.__init__ = init
    return tracer


def assert_untraced():
    """Fail unless every boundary is the package's own function."""
    from gendispatch import core

    found = [(cls.__dict__[attr], "%s.%s" % (cls.__name__, attr))
             for _name, attr in _METHODS for cls in _protocol_classes() if attr in cls.__dict__]
    found += [(getattr(module, attr), attr) for _name, module, attr in _functions()]
    found.append((core.Method.__init__, "Method.__init__"))
    wrapped = [name for fn, name in found
               if fn.__qualname__ != name or not fn.__module__.startswith("gendispatch.")]
    if wrapped:
        raise RuntimeError("untraced run found replaced functions: " + ", ".join(wrapped))
