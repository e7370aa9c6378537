"""Dispatch on the head symbol of a compound form, and a code walker built
on it that reports unused bindings and unbound variable references.

The walker recurses through three frames per nesting level: the walk
function, a method body and one walk_*_form function, in whose frame a
lambda or let scope is opened and closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CLASSES, NIL, Cons, Symbol, class_of, intern
from .core import (
    _EXACT_GENERALIZERS,
    ANY,
    ClassGeneralizer,
    ClassSpecializer,
    Generalizer,
    GenericFunction,
    Method,
    Specializer,
)
from .reader import read_sexpr

UNUSED_BINDING = "unused-binding"
UNBOUND_VARIABLE = "unbound-variable"
MALFORMED_FORM = "malformed-form"

_LAMBDA = intern("lambda")
_LET = intern("let")
_CONS_CLASS = CLASSES["cons"]


class ConsSpecializer(Specializer):
    """Accepts conses whose car is one particular symbol."""

    def __init__(self, car: Symbol):
        if not isinstance(car, Symbol):
            raise TypeError("cons specializers name a head symbol")
        self.car = car

    def accepts(self, obj) -> bool:
        return isinstance(obj, Cons) and obj.car is self.car

    def __eq__(self, other):
        # head symbols are interned, so identity is name equality
        return isinstance(other, ConsSpecializer) and self.car is other.car

    def __repr__(self):
        return "(cons %s)" % self.car


class ConsGeneralizer(Generalizer):
    """One per head symbol: constructing it again returns the same object.
    `next` is the cons class generalizer."""

    __slots__ = ("car", "next")

    def __new__(cls, car: Symbol):
        g = _CONS_GENERALIZERS.get(car)
        if g is None:
            g = _CONS_GENERALIZERS[car] = super().__new__(cls)
            g.car = car
            g.next = ClassGeneralizer(_CONS_CLASS)
        return g

    def __repr__(self):
        return "(cons-generalizer %s)" % self.car


_CONS_GENERALIZERS: dict = {}


class ConsGenericFunction(GenericFunction):
    """Generic function whose dispatch can examine the car of a cons."""

    kind = "cons"

    def generalizer_of(self, arg, position: int = 0):
        # the default's probe, inlined: the walker calls this once per form
        if isinstance(arg, Cons) and isinstance(arg.car, Symbol):
            return _CONS_GENERALIZERS.get(arg.car) or ConsGeneralizer(arg.car)
        return _EXACT_GENERALIZERS.get(arg.__class__) or ClassGeneralizer(class_of(arg))

    def specializer_accepts_generalizer(self, s, g):
        if isinstance(s, ConsSpecializer):
            # this kind of generic function generalizes every symbol-headed
            # cons to a ConsGeneralizer, so any other generalizer rules the
            # specializer out
            return (isinstance(g, ConsGeneralizer) and s.car is g.car, True)
        return super().specializer_accepts_generalizer(s, g)


@dataclass
class Diagnostic:
    kind: str
    variable: Symbol
    context: tuple = ()

    def __str__(self):
        return "%s %s" % (self.kind, self.variable)


class Environment:
    """Lexical frames, each mapping the names it binds to whether they were
    used; the innermost frame is consulted first."""

    def __init__(self):
        self.frames: list[dict] = []

    def lookup(self, name: Symbol) -> dict | None:
        """The innermost frame binding `name`, or None."""
        for frame in reversed(self.frames):
            if name in frame:
                return frame
        return None


def _close_scope(env: Environment, out: list, stack, anchor: int):
    """Unbind the innermost frame and report its names never used.  Reports
    are inserted at `anchor`, so that a scope's own diagnostics precede those
    from inside its body.  The body loop stays in the caller: a helper owning
    it would add a frame per nesting level."""
    frame = env.frames.pop()
    out[anchor:anchor] = [
        Diagnostic(UNUSED_BINDING, name, tuple(stack)) for name, used in frame.items() if not used
    ]


def _malformed(expr, stack, out):
    head = expr.car if isinstance(expr, Cons) and isinstance(expr.car, Symbol) else intern("?")
    out.append(Diagnostic(MALFORMED_FORM, head, tuple(stack)))


def _proper_elements(expr):
    """The elements of a proper list, or None for any other value."""
    parts = []
    while isinstance(expr, Cons):
        parts.append(expr.car)
        expr = expr.cdr
    return parts if expr is NIL else None


def walk_lambda_form(expr, env, stack, walk, out):
    # (lambda (param...) body...)
    parts = _proper_elements(expr)
    if parts is None or len(parts) < 2:
        _malformed(expr, stack, out)
        return
    params = _proper_elements(parts[1])
    if params is None or not all(isinstance(p, Symbol) and p is not NIL for p in params):
        _malformed(expr, stack, out)
        return
    anchor = len(out)
    env.frames.append(dict.fromkeys(params, False))
    try:
        for form in parts[2:]:
            walk(form, env, (form,) + tuple(stack))
    finally:
        _close_scope(env, out, stack, anchor)


def walk_let_form(expr, env, stack, walk, out):
    # (let ((name init)...) body...); inits are walked in the outer scope
    parts = _proper_elements(expr)
    if parts is None or len(parts) < 2:
        _malformed(expr, stack, out)
        return
    bindings = _proper_elements(parts[1])
    if bindings is None:
        _malformed(expr, stack, out)
        return
    names = []
    inits = []
    for b in bindings:
        entry = _proper_elements(b)
        if (
            entry is None
            or len(entry) != 2
            or not isinstance(entry[0], Symbol)
            or entry[0] is NIL
        ):
            _malformed(expr, stack, out)
            return
        names.append(entry[0])
        inits.append(entry[1])
    anchor = len(out)
    for init in inits:
        walk(init, env, (init,) + tuple(stack))
    env.frames.append(dict.fromkeys(names, False))
    try:
        for form in parts[2:]:
            walk(form, env, (form,) + tuple(stack))
    finally:
        _close_scope(env, out, stack, anchor)


def walk_symbol_form(expr, env, stack, out):
    if expr is NIL:
        # the empty list is self-evaluating, not a variable reference
        return
    frame = env.lookup(expr)
    if frame is not None:
        frame[expr] = True
    else:
        out.append(Diagnostic(UNBOUND_VARIABLE, expr, tuple(stack)))


def walk_call_form(expr, env, stack, walk, out):
    # a symbol head names a function and is not a variable reference; any
    # other head is itself a form to walk
    parts = _proper_elements(expr)
    if parts is None:
        _malformed(expr, stack, out)
        return
    forms = parts[1:] if isinstance(parts[0], Symbol) else parts
    for form in forms:
        walk(form, env, (form,) + tuple(stack))


class Walker:
    """A binding-checking code walker dispatching on form heads."""

    def __init__(self, cache: str = "auto"):
        self.out: list[Diagnostic] = []
        gf = ConsGenericFunction("walk", 3, cache=cache)
        walk = gf

        def do_lambda(args, _next):
            expr, env, stack = args
            walk_lambda_form(expr, env, stack, walk, self.out)

        def do_let(args, _next):
            expr, env, stack = args
            walk_let_form(expr, env, stack, walk, self.out)

        def do_symbol(args, _next):
            expr, env, stack = args
            walk_symbol_form(expr, env, stack, self.out)

        def do_call(args, _next):
            expr, env, stack = args
            walk_call_form(expr, env, stack, walk, self.out)

        def do_atom(args, _next):
            pass

        gf.add_method(Method([ConsSpecializer(_LAMBDA), ANY, ANY], do_lambda))
        gf.add_method(Method([ConsSpecializer(_LET), ANY, ANY], do_let))
        gf.add_method(Method([ClassSpecializer(CLASSES["symbol"]), ANY, ANY], do_symbol))
        gf.add_method(Method([ClassSpecializer(_CONS_CLASS), ANY, ANY], do_call))
        gf.add_method(Method([ClassSpecializer(CLASSES["t"]), ANY, ANY], do_atom))
        self.gf = gf

    def check_form(self, form) -> list[Diagnostic]:
        self.out = []
        self.gf(form, Environment(), (form,))
        return self.out

    def check_source(self, text: str) -> list[Diagnostic]:
        return self.check_form(read_sexpr(text))


def walk_check(text: str) -> list[Diagnostic]:
    """Parse one form and report its binding diagnostics in source order."""
    return Walker().check_source(text)
