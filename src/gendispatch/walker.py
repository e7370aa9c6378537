"""Dispatch on the head symbol of a compound form, and a code walker built
on it that reports unused bindings and unbound variable references.

A walk keeps all its state in the Environment passed along with each form,
so walks are independent, even one started from inside another's method.
The walk_*_form functions are the walk function's method bodies: each takes
the arguments (form, environment, link), the link being the pair (form, parent
link) or None above the root, and an unused next-method call; a Diagnostic
keeps the link it was reported at, and makes it into its context, the tuple of
a form and the forms enclosing it, when that is first read.
A compound form is checked whole, in one pass down its cons chain, before any
subform of it is walked, so a malformed form reports only itself; the chain is
then walked in place, with no list of its elements.  The walker recurses
through two frames per nesting level: the walk function and one walk_*_form
function, in whose frame a lambda or let scope is opened and closed.
"""

from __future__ import annotations

from functools import cached_property

from .model import _EXACT_CLASS_OF, CLASSES, NIL, Cons, Record, Symbol, class_of, intern
from .core import ANY, ClassSpecializer, DispatchState, Generalizer, GenericFunction, Method, Specializer
from .core import generalizer_rule
from .reader import read_sexpr

UNUSED_BINDING = "unused-binding"
UNBOUND_VARIABLE = "unbound-variable"
MALFORMED_FORM = "malformed-form"

_LAMBDA = intern("lambda")
_LET = intern("let")
_CONS_GENERALIZER = CLASSES["cons"]
_new = object.__new__


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
    """Conses headed by one symbol that a cons specializer of the function
    names; one per head per function.  `next` is the cons class."""

    __slots__ = ("car", "next")

    def __init__(self, car: Symbol):
        self.car = car
        self.next = _CONS_GENERALIZER

    def __repr__(self):
        return "(cons-generalizer %s)" % self.car


class _ConsState(DispatchState):
    """Also `heads`: the generalizer of each head symbol the methods name."""

    __slots__ = ("heads",)

    def __init__(self, methods, cache_mode: str):
        super().__init__(methods, cache_mode)
        heads = (s.car for m in methods for s in m.specializers if isinstance(s, ConsSpecializer))
        self.heads = {car: ConsGeneralizer(car) for car in heads}


class ConsGenericFunction(GenericFunction):
    """Generic function whose dispatch can examine the car of a cons.  Heads
    no method names generalize to the cons class, so they keep nothing."""

    kind = "cons"
    _state_class = _ConsState

    # a cons by its head's generalizer (its car is probed only if a symbol: a
    # cons is unhashable), and any other value by its class, probed by exact
    # type first as the class rule does
    generalizer_of = generalizer_rule("ConsGenericFunction", (
        "(state.heads.get(car, _CONS_GENERALIZER) if isinstance(car := arg.car, Symbol) else _CONS_GENERALIZER)"
        " if isinstance(arg, Cons) else _EXACT_CLASS_OF.get(arg.__class__) or class_of(arg)"), globals())

    def specializer_accepts_generalizer(self, s, g):
        if isinstance(s, ConsSpecializer):
            # this kind of generic function generalizes every cons whose head
            # a cons specializer names to that head's ConsGeneralizer, so any
            # other generalizer rules the specializer out
            return (isinstance(g, ConsGeneralizer) and s.car is g.car, True)
        return super().specializer_accepts_generalizer(s, g)


class Diagnostic(Record):
    """One finding of a walk: its kind, the symbol it is about and the forms
    enclosing it.  A walk reports it with the link it was found at, and the
    context tuple is built from that link on first read and kept."""

    __match_args__ = ("kind", "variable", "context")

    def __init__(self, kind: str, variable: Symbol, context: tuple = ()):
        self.kind = kind
        self.variable = variable
        self.context = context

    @cached_property
    def context(self) -> tuple:
        """The forms enclosing the finding, innermost first."""
        forms = []
        link = self._link
        while link is not None:
            form, link = link
            forms.append(form)
        return tuple(forms)

    def __str__(self):
        return "%s %s" % (self.kind, self.variable)


def _reported(kind: str, variable: Symbol, link) -> Diagnostic:
    """A diagnostic found at `link`; its context is built only when read."""
    d = _new(Diagnostic)
    d.kind = kind
    d.variable = variable
    d._link = link
    return d


class Environment:
    """One walk's state: its lexical frames, each mapping the names it binds
    to whether they were used (the innermost frame is consulted first), the
    diagnostics reported so far, and `walk`, the function each subform is
    walked with."""

    def __init__(self, walk):
        self.frames: list[dict] = []
        self.out: list[Diagnostic] = []
        self.walk = walk


def _close_scope(env: Environment, link, anchor: int):
    """Unbind the innermost frame and report its names never used.  Reports
    are inserted at `anchor`, so that a scope's own diagnostics precede those
    from inside its body.  The body loop stays in the caller: a helper owning
    it would add a frame per nesting level."""
    frame = env.frames.pop()
    if all(frame.values()):
        return
    env.out[anchor:anchor] = [_reported(UNUSED_BINDING, name, link) for name, used in frame.items() if not used]


def _malformed(expr, env: Environment, link):
    head = expr.car if isinstance(expr, Cons) and isinstance(expr.car, Symbol) else intern("?")
    env.out.append(_reported(MALFORMED_FORM, head, link))


def _proper(expr) -> bool:
    """Whether `expr` is a proper list.  One pass down the chain, so that a
    form is known well-formed before any subform of it is walked."""
    while isinstance(expr, Cons):
        expr = expr.cdr
    return expr is NIL


def walk_lambda_form(args, _next):
    # (lambda (param...) body...)
    expr, env, link = args
    body = expr.cdr
    if not (isinstance(body, Cons) and _proper(body)):
        _malformed(expr, env, link)
        return
    params = body.car
    frame = {}
    while isinstance(params, Cons):
        p = params.car
        if not isinstance(p, Symbol) or p is NIL:
            break
        frame[p] = False
        params = params.cdr
    if params is not NIL:
        _malformed(expr, env, link)
        return
    walk = env.walk
    anchor = len(env.out)
    body = body.cdr
    env.frames.append(frame)
    try:
        while body is not NIL:
            form = body.car
            walk(form, env, (form, link))
            body = body.cdr
    finally:
        _close_scope(env, link, anchor)


def walk_let_form(args, _next):
    # (let ((name init)...) body...); inits are walked in the outer scope
    expr, env, link = args
    body = expr.cdr
    if not (isinstance(body, Cons) and _proper(body)):
        _malformed(expr, env, link)
        return
    bindings = body.car
    frame = {}
    while isinstance(bindings, Cons):
        b = bindings.car
        # a proper two-element list headed by a symbol other than NIL
        if not (isinstance(b, Cons) and isinstance(b.car, Symbol) and b.car is not NIL
                and isinstance(b.cdr, Cons) and b.cdr.cdr is NIL):
            break
        frame[b.car] = False
        bindings = bindings.cdr
    if bindings is not NIL:
        _malformed(expr, env, link)
        return
    walk = env.walk
    anchor = len(env.out)
    bindings = body.car
    while bindings is not NIL:
        init = bindings.car.cdr.car
        walk(init, env, (init, link))
        bindings = bindings.cdr
    body = body.cdr
    env.frames.append(frame)
    try:
        while body is not NIL:
            form = body.car
            walk(form, env, (form, link))
            body = body.cdr
    finally:
        _close_scope(env, link, anchor)


def walk_symbol_form(args, _next):
    expr, env, link = args
    if expr is NIL:
        # the empty list is self-evaluating, not a variable reference
        return
    for frame in reversed(env.frames):
        if expr in frame:
            frame[expr] = True
            return
    env.out.append(_reported(UNBOUND_VARIABLE, expr, link))


def walk_call_form(args, _next):
    # a symbol head names a function and is not a variable reference; any
    # other head is itself a form to walk
    expr, env, link = args
    if not _proper(expr):
        _malformed(expr, env, link)
        return
    if isinstance(expr.car, Symbol):
        expr = expr.cdr
    walk = env.walk
    while expr is not NIL:
        form = expr.car
        walk(form, env, (form, link))
        expr = expr.cdr


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
        gf.add_method(Method([ClassSpecializer(CLASSES["cons"]), ANY, ANY], walk_call_form))
        gf.add_method(Method([ANY, ANY, ANY], walk_atom_form))

    def check_form(self, form) -> list[Diagnostic]:
        env = Environment(self.gf.discriminating_function)
        self.gf(form, env, (form, None))
        return env.out

    def check_source(self, text: str) -> list[Diagnostic]:
        return self.check_form(read_sexpr(text))


def walk_check(text: str) -> list[Diagnostic]:
    """Parse one form and report its binding diagnostics in source order."""
    return Walker().check_source(text)
