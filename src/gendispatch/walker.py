"""Dispatch on the head symbol of a compound form, and a code walker built
on it that reports unused bindings and unbound variable references.

A walk keeps all its state in the Environment passed along with each form,
so walks are independent, even one started from inside another's method.
The walk_*_form functions are the walk function's method bodies: each takes
the arguments (form, environment, context), the context being the tuple of
the form and the forms enclosing it, and an unused next-method call.  So the
walker recurses through two frames per nesting level: the walk function and
one walk_*_form function, in whose frame a lambda or let scope is opened and
closed.
"""

from __future__ import annotations

from reprlib import recursive_repr

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


class Diagnostic:
    """One finding of a walk: its kind, the symbol it is about and the forms
    enclosing it.  Compared field by field and unhashable."""

    __hash__ = None
    __match_args__ = ("kind", "variable", "context")

    def __init__(self, kind: str, variable: Symbol, context: tuple = ()):
        self.kind = kind
        self.variable = variable
        self.context = context

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.variable, self.context)
                == (other.kind, other.variable, other.context))

    @recursive_repr()
    def __repr__(self):
        fields = (type(self).__qualname__, self.kind, self.variable, self.context)
        return "%s(kind=%r, variable=%r, context=%r)" % fields

    def __str__(self):
        return "%s %s" % (self.kind, self.variable)


class Environment:
    """One walk's state: its lexical frames, each mapping the names it binds
    to whether they were used (the innermost frame is consulted first), the
    diagnostics reported so far, and `walk`, the function each subform is
    walked with."""

    def __init__(self, walk):
        self.frames: list[dict] = []
        self.out: list[Diagnostic] = []
        self.walk = walk


def _close_scope(env: Environment, stack, anchor: int):
    """Unbind the innermost frame and report its names never used.  Reports
    are inserted at `anchor`, so that a scope's own diagnostics precede those
    from inside its body.  The body loop stays in the caller: a helper owning
    it would add a frame per nesting level."""
    frame = env.frames.pop()
    env.out[anchor:anchor] = [
        Diagnostic(UNUSED_BINDING, name, stack) for name, used in frame.items() if not used
    ]


def _malformed(expr, env: Environment, stack):
    head = expr.car if isinstance(expr, Cons) and isinstance(expr.car, Symbol) else intern("?")
    env.out.append(Diagnostic(MALFORMED_FORM, head, stack))


def _proper_elements(expr):
    """The elements of a proper list, or None for any other value."""
    parts = []
    while isinstance(expr, Cons):
        parts.append(expr.car)
        expr = expr.cdr
    return parts if expr is NIL else None


def walk_lambda_form(args, _next):
    # (lambda (param...) body...)
    expr, env, stack = args
    parts = _proper_elements(expr)
    if parts is None or len(parts) < 2:
        _malformed(expr, env, stack)
        return
    params = _proper_elements(parts[1])
    if params is None or not all(isinstance(p, Symbol) and p is not NIL for p in params):
        _malformed(expr, env, stack)
        return
    walk = env.walk
    anchor = len(env.out)
    env.frames.append(dict.fromkeys(params, False))
    try:
        for form in parts[2:]:
            walk(form, env, (form,) + stack)
    finally:
        _close_scope(env, stack, anchor)


def walk_let_form(args, _next):
    # (let ((name init)...) body...); inits are walked in the outer scope
    expr, env, stack = args
    parts = _proper_elements(expr)
    if parts is None or len(parts) < 2:
        _malformed(expr, env, stack)
        return
    bindings = _proper_elements(parts[1])
    if bindings is None:
        _malformed(expr, env, stack)
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
            _malformed(expr, env, stack)
            return
        names.append(entry[0])
        inits.append(entry[1])
    walk = env.walk
    anchor = len(env.out)
    for init in inits:
        walk(init, env, (init,) + stack)
    env.frames.append(dict.fromkeys(names, False))
    try:
        for form in parts[2:]:
            walk(form, env, (form,) + stack)
    finally:
        _close_scope(env, stack, anchor)


def walk_symbol_form(args, _next):
    expr, env, stack = args
    if expr is NIL:
        # the empty list is self-evaluating, not a variable reference
        return
    for frame in reversed(env.frames):
        if expr in frame:
            frame[expr] = True
            return
    env.out.append(Diagnostic(UNBOUND_VARIABLE, expr, stack))


def walk_call_form(args, _next):
    # a symbol head names a function and is not a variable reference; any
    # other head is itself a form to walk
    expr, env, stack = args
    parts = _proper_elements(expr)
    if parts is None:
        _malformed(expr, env, stack)
        return
    if isinstance(parts[0], Symbol):
        del parts[0]
    walk = env.walk
    for form in parts:
        walk(form, env, (form,) + stack)


def walk_atom_form(args, _next):
    pass  # numbers, strings and other atoms bind and reference nothing


class Walker:
    """A binding-checking code walker dispatching on form heads."""

    def __init__(self, cache: str = "auto"):
        gf = self.gf = ConsGenericFunction("walk", 3, cache=cache)
        # the bodies are read here, so wrappers installed over them beforehand are called
        gf.add_method(Method([ConsSpecializer(_LAMBDA), ANY, ANY], walk_lambda_form))
        gf.add_method(Method([ConsSpecializer(_LET), ANY, ANY], walk_let_form))
        gf.add_method(Method([ClassSpecializer(CLASSES["symbol"]), ANY, ANY], walk_symbol_form))
        gf.add_method(Method([ClassSpecializer(_CONS_CLASS), ANY, ANY], walk_call_form))
        gf.add_method(Method([ANY, ANY, ANY], walk_atom_form))

    def check_form(self, form) -> list[Diagnostic]:
        env = Environment(self.gf)
        self.gf(form, env, (form,))
        return env.out

    def check_source(self, text: str) -> list[Diagnostic]:
        return self.check_form(read_sexpr(text))


def walk_check(text: str) -> list[Diagnostic]:
    """Parse one form and report its binding diagnostics in source order."""
    return Walker().check_source(text)
