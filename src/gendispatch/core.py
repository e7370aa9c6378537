"""Generic functions with an extensible dispatch protocol.

Method selection is decoupled from argument classes through generalizers: a
generalizer names the equivalence class of arguments that dispatch alike, and
is itself the memoization key.  Equal generalizers must therefore be one
object (a class is its own generalizer, and cons and Accept generalizers are
kept one per function) or must hash and compare equal.  A miss selects and
sorts methods from that same key: one generalizer per dispatch position, as
the other positions hold only the universal specializer.
Subclasses of GenericFunction extend dispatch by overriding the protocol
methods (generalizer_of, specializer_accepts_generalizer, specializer_order)
for their own specializer and generalizer kinds only.
Every generalizer's `next` is the class it refines (a class's is itself),
through which core alone decides class and eql specializers and orders class
specializers; everything else, including standard method combination and
effective-method caching, is shared.
Calling a generic function, gf(...), calls gf.discriminating_function: one
plain function per generic function, compiled once per arity and generalizer
rule, whose fixed positional-only parameters let CPython run a call from a
method body inside the caller's interpreter loop, with no C-level call per
level of recursion.  It reads STATE, the DispatchState that its own globals
hold and each method change replaces, once per call, computes the
generalizers, probes the state's cache and runs the cached entry, or on a miss
calls _dispatch, the one miss path, through its weak reference to gf; a method
body that recurses should call it directly.  Each class states its generalizer
rule, `generalizer_rule`, as an expression over `arg` and `state`, and the one
generalizer_of runs it: the class, signum, cons and Accept rules are stated so.
While a class's generalizer_of is that method, the single-position path has
the rule's expression inlined in place of the call; one written by hand or
wrapped is called.
"""

from __future__ import annotations

import sys
import threading
import weakref
from functools import cache, cmp_to_key

from .model import _EXACT_CLASS_OF, CLASSES, ClassRef, class_of, eql, format_value, subclass_p

QUALIFIERS = ("primary", "before", "after", "around")

# entries one generic function's cache may hold; a miss that finds it full
# starts it afresh, so arguments from outside cannot grow it without bound
CACHE_LIMIT = 4096


class DispatchError(Exception):
    pass


class NoApplicableMethod(DispatchError):
    def __init__(self, gf, args):
        self.gf_name = gf.name
        super().__init__(
            "no applicable method for %s on (%s)"
            % (self.gf_name, ", ".join(format_value(a) for a in args))
        )


class NoPrimaryMethod(DispatchError):
    def __init__(self, name):
        super().__init__("no primary method for %s" % name)


class MethodNotFound(DispatchError):
    pass


class Specializer:
    """Decides, per argument position, whether a method applies."""

    def accepts(self, obj) -> bool:
        raise NotImplementedError

    __hash__ = None


class ClassSpecializer(Specializer):
    def __init__(self, cls: ClassRef):
        self.cls = cls

    def accepts(self, obj) -> bool:
        return subclass_p(class_of(obj), self.cls)

    def __eq__(self, other):
        return isinstance(other, ClassSpecializer) and self.cls is other.cls

    def __repr__(self):
        return "(class %s)" % self.cls.name


class EqlSpecializer(Specializer):
    def __init__(self, obj):
        self.obj = obj

    def accepts(self, obj) -> bool:
        return eql(obj, self.obj)

    def __eq__(self, other):
        return isinstance(other, EqlSpecializer) and eql(self.obj, other.obj)

    def __repr__(self):
        return "(eql %s)" % format_value(self.obj)


# the universal specializer: accepts every value, definitively
ANY = ClassSpecializer(CLASSES["t"])


class Generalizer:
    """Names the set of arguments that dispatch identically, for the generic
    function that made it.  `next` is the class this one refines.  A class
    (ClassRef) is the class generalizer: its own `next` and cache key."""

    __slots__ = ()


class Method:
    def __init__(self, specializers, body, qualifier: str = "primary"):
        if qualifier not in QUALIFIERS:
            raise ValueError("bad qualifier %r" % qualifier)
        self.specializers = tuple(specializers)
        self.body = body
        self.qualifier = qualifier

    def __repr__(self):
        return "(method%s %s)" % (
            "" if self.qualifier == "primary" else " :" + self.qualifier,
            " ".join(repr(s) for s in self.specializers),
        )


class EffectiveMethod:
    """The combined callable for one dispatch outcome.  `entry` is the pair
    (body, next_call): calling it runs body(args, next_call), and it is what
    the dispatch cache stores, so a cache hit calls the first body directly."""

    __slots__ = ("methods", "entry")

    def __init__(self, methods, body, next_call):
        self.methods = tuple(methods)
        self.entry = (body, next_call)

    def __call__(self, args):
        body, next_call = self.entry
        return body(args, next_call)


# dispatch no longer calls this (generalizers are their own cache keys);
# perfbench/spans.py still names it as a traced boundary
def freeze_key(key):
    """Make a hash key usable as a dict key.  Numbers carry their kind so that
    integer and float keys with equal values stay distinct."""
    cls = key.__class__
    if cls is int or cls is float:
        return (cls, key)
    if cls is tuple or cls is list:
        return tuple(freeze_key(k) for k in key)
    # subclasses (bool stays bare, exotic sequences still recurse)
    if isinstance(key, (list, tuple)):
        return tuple(freeze_key(k) for k in key)
    if isinstance(key, (int, float)) and not isinstance(key, bool):
        return (key.__class__, key)
    return key


class DispatchState:
    """One method set, the only copy of it, and what dispatch derives from it,
    replaced whole when it changes: the methods, the positions that
    discriminate, the one position when bare keys apply (else None) and the
    cache; extensions add tables."""

    __slots__ = ("methods", "positions", "single", "cache")

    def __init__(self, methods, cache_mode: str):
        self.methods = tuple(methods)
        self.positions = tuple(sorted({i for m in methods for i, s in enumerate(m.specializers) if s != ANY}))
        self.single = self.positions[0] if cache_mode == "auto" and len(self.positions) == 1 else None
        self.cache = {}


def _specializer_rank(s) -> int:
    # cross-kind precedence: eql beats extension kinds beats class
    if isinstance(s, EqlSpecializer):
        return 0
    if isinstance(s, ClassSpecializer):
        return 2
    return 1


class GenericFunction:
    """A callable bundle of methods with memoized effective-method lookup.

    The cache maps generalizers (a tuple of them for several positions) to
    effective-method entries and is only fed from definitive
    generalizer-based answers; a method change replaces it with the rest of
    the dispatch state, and it is cleared when it reaches CACHE_LIMIT entries.
    `cache` is one of "auto" (single bare key when exactly one argument
    position discriminates, else a key tuple), "list" (always a tuple), or
    "none" (a key tuple that selects methods but is never memoized).
    Method changes are serialised per function, by a lock that calls never
    take, and each publishes a new state in one store, into the globals of the
    discriminating function, where `_state` reads it; `methods` is a copy.
    Calling it, or invoke, runs its discriminating_function.
    """

    kind = "standard"
    _state_class = DispatchState  # an extension names its own subclass
    # the class rule: the exact-type probe of class_of, inlined
    generalizer_rule = "_EXACT_CLASS_OF.get(arg.__class__) or class_of(arg)"

    def __init__(self, name: str, nargs: int, cache: str = "auto"):
        if cache not in ("auto", "list", "none"):
            raise ValueError("bad cache mode %r" % cache)
        self.name = name
        self.nargs = nargs
        self.cache_mode = cache
        self._lock = threading.Lock()  # serialises method changes; calls never take it
        self.discriminating_function = _discriminating_function(self)

    def __repr__(self):
        return "#<%s-generic-function %s/%d>" % (self.kind, self.name, self.nargs)

    # -- method set maintenance

    # the one copy of the DispatchState: STATE in its discriminating function's globals
    _state = property(lambda self: self._globals["STATE"])

    def _publish(self, methods):
        self._globals["STATE"] = self._state_class(methods, self.cache_mode)

    @property
    def methods(self) -> list[Method]:
        """A copy of the method set, in definition order."""
        return list(self._state.methods)

    def add_method(self, method: Method) -> Method:
        """Add `method`, replacing in place any method with the same qualifier
        and specializers.  Publishes a new dispatch state."""
        if len(method.specializers) != self.nargs:
            raise ValueError(
                "%s takes %d arguments, method specializes %d"
                % (self.name, self.nargs, len(method.specializers))
            )
        with self._lock:
            methods = self._state.methods
            i = next((j for j, m in enumerate(methods) if m.qualifier == method.qualifier
                      and m.specializers == method.specializers), len(methods))
            self._publish(methods[:i] + (method,) + methods[i + 1 :])
        return method

    def remove_method(self, method: Method):
        """Remove `method` (by identity).  Publishes a new dispatch state."""
        with self._lock:
            methods = self._state.methods
            if not any(m is method for m in methods):
                raise MethodNotFound("%r is not a method of %s" % (method, self.name))
            self._publish(tuple(m for m in methods if m is not method))

    # -- dispatch protocol: extension points

    def generalizer_of(self, arg, position=0):
        """The generalizer of one argument, and also the cache key, so equal
        generalizers must be one object: the class's generalizer_rule, an
        expression over `arg` and the dispatch state `state`, evaluated in the
        globals of the module that states it."""
        namespace = self._globals
        return namespace["rule"](arg, namespace["STATE"])

    def specializer_accepts_generalizer(self, s: Specializer, g: Generalizer):
        """Return (accepts, definitive).  A non-definitive answer forces the
        caller back onto per-argument applicability for the actual call.
        Class and eql specializers see the argument as its class, g.next."""
        if isinstance(s, ClassSpecializer):
            return (subclass_p(g.next, s.cls), True)
        if isinstance(s, EqlSpecializer):
            # the class alone cannot separate the one eql object from the
            # rest of its class
            return (False, class_of(s.obj) is not g.next)
        return (False, False)

    def specializer_order(self, s1: Specializer, s2: Specializer, g: Generalizer) -> int:
        """Three-way comparison of two specializers that both accept g's
        argument: negative when s1 is more specific.  Two specializers of one
        extension kind tie here; an extension that orders them overrides this
        and calls super() for every other pair."""
        if s1 == s2:
            return 0
        r1, r2 = _specializer_rank(s1), _specializer_rank(s2)
        if r1 == r2 and isinstance(s1, ClassSpecializer):  # so s2 is one too
            cpl = g.next.precedence_list
            r1, r2 = cpl.index(s1.cls), cpl.index(s2.cls)
        return (r1 > r2) - (r1 < r2)

    # -- applicability

    def compute_applicable_methods(self, args):
        """Methods applicable to concrete arguments, most specific first."""
        args = tuple(args)
        if len(args) != self.nargs:
            raise TypeError("%s expects %d arguments" % (self.name, self.nargs))
        state = self._state  # read once: methods and positions of one method set
        selected = [
            m
            for m in state.methods
            if all(s.accepts(a) for s, a in zip(m.specializers, args))
        ]
        if len(selected) < 2:
            return selected
        key = tuple(self.generalizer_of(args[i], i) for i in state.positions)
        return self._sort_methods(selected, key, state.positions)

    def compute_applicable_methods_using_generalizers(self, generalizers):
        """Methods applicable to any arguments with these generalizers, one
        per argument.  Returns (methods, definitive); a False second value
        means the list cannot be trusted and per-argument selection must be
        used.  Only the dispatch positions are read: every other position
        holds only the universal specializer."""
        generalizers = list(generalizers)
        if len(generalizers) != self.nargs:
            raise TypeError("%s expects %d generalizers" % (self.name, self.nargs))
        state = self._state
        return self._applicable_from_generalizers(tuple(generalizers[i] for i in state.positions), state)

    def _applicable_from_generalizers(self, key, state):
        positions = state.positions
        definitive = True
        selected = []
        for m in state.methods:
            accepted = True
            for i, g in zip(positions, key):
                ok, sure = self.specializer_accepts_generalizer(m.specializers[i], g)
                # no early exit: definitiveness must not depend on the order
                # in which methods and positions happen to be examined
                definitive = definitive and sure
                accepted = accepted and ok
            if accepted:
                selected.append(m)
        if len(selected) > 1:
            selected = self._sort_methods(selected, key, positions)
        return selected, definitive

    def _sort_methods(self, methods, key, positions):
        def compare(m1, m2):
            for i, g in zip(positions, key):
                r = self.specializer_order(m1.specializers[i], m2.specializers[i], g)
                if r:
                    return r
            return 0

        # sorted() is stable: wholly tied methods keep definition order
        return sorted(methods, key=cmp_to_key(compare))

    # -- method combination (standard): arounds, befores, primaries, afters

    def compute_effective_method(self, methods) -> EffectiveMethod:
        """Combine `methods` (most specific first).  With primaries only, the
        entry is the first primary's body and the chain of the rest; with
        befores, afters or no primary it is the combining function; each
        around wraps the entry inside it."""
        methods = tuple(methods)
        primaries = [m for m in methods if m.qualifier == "primary"]
        befores = [m for m in methods if m.qualifier == "before"]
        afters = [m for m in methods if m.qualifier == "after"]
        afters.reverse()
        arounds = [m for m in methods if m.qualifier == "around"]

        entry = None
        for m in reversed(primaries):
            entry = (m.body, None if entry is None else _bind(*entry))
        if befores or afters or entry is None:
            primary = entry
            name = self.name

            def combined(args, _next):
                if primary is None:
                    raise NoPrimaryMethod(name)
                for m in befores:
                    m.body(args, None)
                body, next_call = primary
                result = body(args, next_call)
                for m in afters:
                    m.body(args, None)
                return result

            entry = (combined, None)
        for m in reversed(arounds):
            entry = (m.body, _bind(*entry))
        return EffectiveMethod(methods, *entry)

    # -- the discriminating function

    def __call__(self, *args):
        return self.discriminating_function(*args)

    def invoke(self, args):
        return self.discriminating_function(*args)

    def _discriminate(self, args, state):
        """The discriminating function's path for a key tuple of generalizers."""
        # a comprehension here would make self and args cells
        key = ()
        for i in state.positions:
            key += (self.generalizer_of(args[i], i),)
        entry = state.cache.get(key)
        if entry is None:
            return self._dispatch(args, key, state)
        return entry[0](args, entry[1])

    def _dispatch(self, args, key, state):
        """The one miss path: select from the probed state by the key tuple (else
        from the current one by the arguments), build the entry (one that raises
        when nothing applies) and call it as a hit does.  Only a definitive
        entry is stored, and only into the probed state's cache."""
        methods, definitive = self._applicable_from_generalizers(key, state)
        if not definitive:
            methods = self.compute_applicable_methods(args)
        if methods:
            entry = self.compute_effective_method(methods).entry
        else:
            entry = (_no_applicable_method, weakref.proxy(self))
        if definitive and self.cache_mode != "none":
            cache = state.cache
            if len(cache) >= CACHE_LIMIT:
                cache.clear()
            cache[key if state.single is None else key[0]] = entry
        return entry[0](args, entry[1])


# only the single-position hit path is in this frame, and a one-parameter
# function's frame holds no argument tuple and no copy of its argument: a small
# frame fills the interpreter's frame-stack chunks later, so deep recursion
# crosses them less often.  The generalizer is computed by the class's rule,
# inlined, or by _CALL; only a miss, a key tuple or _CALL reads ref.  rule is
# the same expression as a function, which generalizer_of calls
_DISCRIMINATING_FUNCTION = """\
def rule(arg, state):
    return %(rule)s


def discriminating_function(%(params)s):
%(pack)s    state = STATE
    if state.single is None:
        return _live(ref, name)._discriminate(%(args)s, state)
%(pick)s    g = %(fragment)s
    entry = state.cache.get(g)
    if entry is not None:
        return entry[0](%(args)s, entry[1])
    return _live(ref, name)._dispatch(%(args)s, (g,), state)
"""
_CALL = "_live(ref, name).generalizer_of(arg, state.single)"
_GONE = DispatchState((), "none")  # a collected function's STATE: every call reaches ref
_GENERALIZER_OF = GenericFunction.generalizer_of  # the one whose rule may be inlined


def _live(ref, name):
    """The generic function that `ref` refers to, else a ReferenceError naming it."""
    gf = ref()
    if gf is None:
        raise ReferenceError("the generic function %s no longer exists" % name)
    return gf


@cache
def _discriminating_code(nargs, rule, fragment):
    """The code of `rule` and of a discriminating function of `nargs`
    positional-only parameters that computes the generalizer by `fragment`
    (`rule` itself, or _CALL), compiled once per arity, rule and fragment, as
    namedtuple builds its __new__.  A single parameter is `arg` itself, put
    in a tuple only for the call; more are packed into `args` once, and `arg`
    is picked from it."""
    if nargs == 1:
        parts = dict(params="arg, /", pack="", args="(arg,)", pick="")
    else:
        names = "".join("a%d, " % i for i in range(nargs))
        parts = dict(params=names + "/" if nargs else "", pack="    args = (%s)\n" % names,
                     args="args", pick="    arg = args[state.single]\n")
    source = _DISCRIMINATING_FUNCTION % dict(parts, rule=rule, fragment=fragment)
    return compile(source, "<discriminating function/%d>" % nargs, "exec")


def _discriminating_function(gf):
    """The discriminating function of `gf`, whose globals hold gf's dispatch
    state as STATE: read once per call, so each call sees one method set, and
    replaced by each method change.  It holds gf weakly, so a method body that
    keeps it does not keep gf alive.  It inlines gf's class's generalizer_rule
    while that class's generalizer_of is core's own, and else calls the method:
    one written by hand, or one wrapped, which then sees every dispatch."""
    owner = next(c for c in type(gf).__mro__ if "generalizer_rule" in vars(c))
    rule = owner.generalizer_rule
    fragment = rule if type(gf).generalizer_of is _GENERALIZER_OF else _CALL
    # its globals are its own: the names of the module that states the rule,
    # copied (closure cells would enlarge the frame), gf's state, a weak
    # reference, gf's name and _live
    namespace = dict(vars(sys.modules[owner.__module__]), STATE=gf._state_class((), gf.cache_mode),
                     name=gf.name, _live=_live)
    namespace["ref"] = weakref.ref(gf, lambda _ref: namespace.__setitem__("STATE", _GONE))
    gf._globals = namespace  # where _state and generalizer_of read and _publish stores
    exec(_discriminating_code(gf.nargs, rule, fragment), namespace)
    function = namespace["discriminating_function"]
    function.__qualname__ = gf.name  # so a wrong argument count names gf
    return function


def _bind(body, next_call):
    def call(args):
        return body(args, next_call)

    return call


def _no_applicable_method(args, gf):
    # an empty outcome's cache entry; next_call is a weak proxy: no gf-entry cycle
    raise NoApplicableMethod(gf, args)
