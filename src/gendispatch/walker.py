"""Dispatch on the head symbol of a compound form, and a code walker built
on it that reports unused bindings and unbound variable references.

A walk keeps all its state in the Environment passed along with each form,
so walks are independent, even one started from inside another's method.
The walk_*_form functions are the walk function's method bodies: each takes
the arguments (form, environment, link), the link being the pair (form, parent
link) or None above the root, and an unused next-method call; a Diagnostic's
context is a link made into the tuple of a form and the forms enclosing it.
So the walker recurses through two frames per nesting level: the walk function
and one walk_*_form function, in whose frame a lambda or let scope is opened
and closed.
"""

from __future__ import annotations

from reprlib import recursive_repr

from .model import _EXACT_CLASS_OF, CLASSES, NIL, Cons, Symbol, class_of, intern
from .core import ANY, ClassSpecializer, Generalizer, GenericFunction, Method, Specializer
from .reader import read_sexpr

UNUSED_BINDING = "unused-binding"
UNBOUND_VARIABLE = "unbound-variable"
MALFORMED_FORM = "malformed-form"

_LAMBDA = intern("lambda")
_LET = intern("let")
_CONS_GENERALIZER = CLASSES["cons"]


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


class ConsGenericFunction(GenericFunction):
    """Generic function whose dispatch can examine the car of a cons.  Heads
    no method names generalize to the cons class, so they keep nothing."""

    kind = "cons"

    def _methods_changed(self):
        super()._methods_changed()
        heads = (s.car for m in self.methods for s in m.specializers if isinstance(s, ConsSpecializer))
        self._heads = {car: ConsGeneralizer(car) for car in heads}

    def generalizer_of(self, arg, position: int = 0):
        # the default's probe, inlined: the walker calls this once per form
        if isinstance(arg, Cons):
            car = arg.car  # probed only if a symbol: a cons is unhashable
            return self._heads.get(car, _CONS_GENERALIZER) if isinstance(car, Symbol) else _CONS_GENERALIZER
        return _EXACT_CLASS_OF.get(arg.__class__) or class_of(arg)

    def specializer_accepts_generalizer(self, s, g):
        if isinstance(s, ConsSpecializer):
            # this kind of generic function generalizes every cons whose head
            # a cons specializer names to that head's ConsGeneralizer, so any
            # other generalizer rules the specializer out
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


def _context(link) -> tuple:
    """The forms a link names, innermost first."""
    forms = []
    while link is not None:
        form, link = link
        forms.append(form)
    return tuple(forms)


def _close_scope(env: Environment, link, anchor: int):
    """Unbind the innermost frame and report its names never used.  Reports
    are inserted at `anchor`, so that a scope's own diagnostics precede those
    from inside its body.  The body loop stays in the caller: a helper owning
    it would add a frame per nesting level."""
    frame = env.frames.pop()
    env.out[anchor:anchor] = [
        Diagnostic(UNUSED_BINDING, name, _context(link)) for name, used in frame.items() if not used
    ]


def _malformed(expr, env: Environment, link):
    head = expr.car if isinstance(expr, Cons) and isinstance(expr.car, Symbol) else intern("?")
    env.out.append(Diagnostic(MALFORMED_FORM, head, _context(link)))


def _proper_elements(expr):
    """The elements of a proper list, or None for any other value."""
    parts = []
    while isinstance(expr, Cons):
        parts.append(expr.car)
        expr = expr.cdr
    return parts if expr is NIL else None


def walk_lambda_form(args, _next):
    # (lambda (param...) body...)
    expr, env, link = args
    parts = _proper_elements(expr)
    if parts is None or len(parts) < 2:
        _malformed(expr, env, link)
        return
    params = _proper_elements(parts[1])
    for p in params or ():
        if not isinstance(p, Symbol) or p is NIL:
            params = None
    if params is None:
        _malformed(expr, env, link)
        return
    walk = env.walk
    anchor = len(env.out)
    env.frames.append(dict.fromkeys(params, False))
    try:
        for form in parts[2:]:
            walk(form, env, (form, link))
    finally:
        _close_scope(env, link, anchor)


def walk_let_form(args, _next):
    # (let ((name init)...) body...); inits are walked in the outer scope
    expr, env, link = args
    parts = _proper_elements(expr)
    if parts is None or len(parts) < 2:
        _malformed(expr, env, link)
        return
    bindings = _proper_elements(parts[1])
    if bindings is None:
        _malformed(expr, env, link)
        return
    names = []
    inits = []
    for b in bindings:
        # a proper two-element list headed by a symbol other than NIL
        if not (isinstance(b, Cons) and isinstance(b.car, Symbol) and b.car is not NIL
                and isinstance(b.cdr, Cons) and b.cdr.cdr is NIL):
            _malformed(expr, env, link)
            return
        names.append(b.car)
        inits.append(b.cdr.car)
    walk = env.walk
    anchor = len(env.out)
    for init in inits:
        walk(init, env, (init, link))
    env.frames.append(dict.fromkeys(names, False))
    try:
        for form in parts[2:]:
            walk(form, env, (form, link))
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
    env.out.append(Diagnostic(UNBOUND_VARIABLE, expr, _context(link)))


def walk_call_form(args, _next):
    # a symbol head names a function and is not a variable reference; any
    # other head is itself a form to walk
    expr, env, link = args
    parts = _proper_elements(expr)
    if parts is None:
        _malformed(expr, env, link)
        return
    if isinstance(parts[0], Symbol):
        del parts[0]
    walk = env.walk
    for form in parts:
        walk(form, env, (form, link))


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
