"""Generic functions with an extensible dispatch protocol.

Method selection is decoupled from argument classes through generalizers: a
generalizer names the equivalence class of arguments that dispatch alike, and
is itself the memoization key.  Equal generalizers must therefore be one
object (the shipped ones are interned) or must hash and compare equal.
Subclasses of GenericFunction extend dispatch by overriding the protocol
methods (generalizer_of, specializer_accepts_generalizer, specializer_order)
for their own specializer and generalizer kinds only.
Every generalizer's `next` is the class generalizer it refines, through which
core alone decides class and eql specializers and orders class specializers;
everything else, including standard method combination and effective-method
caching, is shared.
"""

from __future__ import annotations

import weakref
from functools import cmp_to_key

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
        self.args = tuple(args)
        super().__init__(
            "no applicable method for %s on (%s)"
            % (self.gf_name, ", ".join(format_value(a) for a in self.args))
        )


class NoPrimaryMethod(DispatchError):
    def __init__(self, name, args):
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
    """Names the set of arguments that dispatch identically.  `next` is the
    class generalizer this one refines."""

    __slots__ = ()


class ClassGeneralizer(Generalizer):
    """One per class: constructing it again returns the same object.  A class
    generalizer refines nothing further, so it is its own `next`."""

    __slots__ = ("cls", "next")

    def __new__(cls, class_ref: ClassRef):
        g = _CLASS_GENERALIZERS.get(class_ref)
        if g is None:
            g = _CLASS_GENERALIZERS[class_ref] = super().__new__(cls)
            g.cls = class_ref
            g.next = g
        return g

    def __repr__(self):
        return "(class-generalizer %s)" % self.cls.name


_CLASS_GENERALIZERS: dict = {}

# the class generalizer of each exact type class_of knows without a fallback,
# so that the common case of generalizer_of is one dict probe
_EXACT_GENERALIZERS = {t: ClassGeneralizer(c) for t, c in _EXACT_CLASS_OF.items()}


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
    generalizer-based answers; add_method and remove_method flush it, and it
    is cleared when it reaches CACHE_LIMIT entries.
    `cache` is one of "auto" (single bare key when exactly one argument
    position discriminates, else a key tuple), "list" (always a tuple), or
    "none" (no memoization).
    """

    kind = "standard"

    def __init__(self, name: str, nargs: int, cache: str = "auto"):
        if cache not in ("auto", "list", "none"):
            raise ValueError("bad cache mode %r" % cache)
        self.name = name
        self.nargs = nargs
        self.cache_mode = cache
        self.methods: list[Method] = []
        self._cache: dict = {}
        self._methods_changed()

    def __repr__(self):
        return "#<%s-generic-function %s/%d>" % (self.kind, self.name, self.nargs)

    # -- method set maintenance

    def add_method(self, method: Method) -> Method:
        """Add `method`, replacing any method with the same qualifier and
        specializers.  Flushes the dispatch cache."""
        if len(method.specializers) != self.nargs:
            raise ValueError(
                "%s takes %d arguments, method specializes %d"
                % (self.name, self.nargs, len(method.specializers))
            )
        for i, existing in enumerate(self.methods):
            if existing.qualifier == method.qualifier and all(
                a == b for a, b in zip(existing.specializers, method.specializers)
            ):
                self.methods[i] = method
                break
        else:
            self.methods.append(method)
        self._methods_changed()
        return method

    def remove_method(self, method: Method):
        """Remove `method` (by identity).  Flushes the dispatch cache."""
        for i, existing in enumerate(self.methods):
            if existing is method:
                del self.methods[i]
                self._methods_changed()
                return
        raise MethodNotFound("%r is not a method of %s" % (method, self.name))

    def _methods_changed(self):
        """Flush the cache and recompute what dispatch derives from the
        method set; subclasses extend it for their own derived state."""
        self._cache.clear()
        positions = set()
        for m in self.methods:
            for i, s in enumerate(m.specializers):
                if not (isinstance(s, ClassSpecializer) and s.cls is ANY.cls):
                    positions.add(i)
        self._dispatch_positions = tuple(sorted(positions))
        # the one dispatch position, when bare keys apply
        if self.cache_mode == "auto" and len(positions) == 1:
            self._single = self._dispatch_positions[0]
        else:
            self._single = None

    # -- dispatch protocol: extension points

    def generalizer_of(self, arg, position: int = 0) -> Generalizer:
        """Generalizer of one argument; the default dispatches on its class.
        It is also the cache key, so equal generalizers must be one object."""
        return _EXACT_GENERALIZERS.get(arg.__class__) or ClassGeneralizer(class_of(arg))

    def specializer_accepts_generalizer(self, s: Specializer, g: Generalizer):
        """Return (accepts, definitive).  A non-definitive answer forces the
        caller back onto per-argument applicability for the actual call.
        Class and eql specializers see the argument as its class, g.next."""
        if isinstance(s, ClassSpecializer):
            return (subclass_p(g.next.cls, s.cls), True)
        if isinstance(s, EqlSpecializer):
            # the class alone cannot separate the one eql object from the
            # rest of its class
            return (False, class_of(s.obj) is not g.next.cls)
        return (False, False)

    def specializer_order(self, s1: Specializer, s2: Specializer, g: Generalizer) -> int:
        """Three-way comparison of two specializers that both accept g's
        argument: negative when s1 is more specific."""
        if s1 == s2:
            return 0
        r1 = _specializer_rank(s1)
        r2 = _specializer_rank(s2)
        if r1 != r2:
            return -1 if r1 < r2 else 1
        if isinstance(s1, ClassSpecializer) and isinstance(s2, ClassSpecializer):
            cpl = g.next.cls.precedence_list
            i1 = cpl.index(s1.cls)
            i2 = cpl.index(s2.cls)
            return -1 if i1 < i2 else (1 if i1 > i2 else 0)
        return self._extension_order(s1, s2, g)

    def _extension_order(self, s1, s2, g) -> int:
        return 0

    # -- applicability

    def compute_applicable_methods(self, args):
        """Methods applicable to concrete arguments, most specific first."""
        args = tuple(args)
        if len(args) != self.nargs:
            raise TypeError("%s expects %d arguments" % (self.name, self.nargs))
        selected = [
            m
            for m in self.methods
            if all(s.accepts(a) for s, a in zip(m.specializers, args))
        ]
        if len(selected) < 2:
            return selected
        gens = [None] * self.nargs
        for i in self._dispatch_positions:
            gens[i] = self.generalizer_of(args[i], i)
        return self._sort_methods(selected, gens)

    def compute_applicable_methods_using_generalizers(self, generalizers):
        """Methods applicable to any arguments with these generalizers.
        Returns (methods, definitive); a False second value means the list
        cannot be trusted and per-argument selection must be used."""
        generalizers = list(generalizers)
        if len(generalizers) != self.nargs:
            raise TypeError("%s expects %d generalizers" % (self.name, self.nargs))
        return self._applicable_from_generalizers(generalizers)

    def _applicable_from_generalizers(self, gens):
        definitive = True
        selected = []
        for m in self.methods:
            accepted = True
            for i, s in enumerate(m.specializers):
                g = gens[i]
                if g is None:
                    # invoke path: position outside the dispatch set, every
                    # specializer there is the universal one
                    continue
                ok, sure = self.specializer_accepts_generalizer(s, g)
                # no early exit: definitiveness must not depend on the order
                # in which methods and positions happen to be examined
                definitive = definitive and sure
                accepted = accepted and ok
            if accepted:
                selected.append(m)
        if len(selected) > 1:
            selected = self._sort_methods(selected, gens)
        return selected, definitive

    def _sort_methods(self, methods, gens):
        positions = self._dispatch_positions

        def compare(m1, m2):
            for i in positions:
                r = self.specializer_order(m1.specializers[i], m2.specializers[i], gens[i])
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
                    raise NoPrimaryMethod(name, args)
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
        if len(args) != self.nargs:
            raise TypeError("%s expects %d arguments, got %d" % (self.name, self.nargs, len(args)))
        # fast path: one discriminating position, bare key, warm cache
        if self._single is not None:
            i = self._single
            g = self.generalizer_of(args[i], i)
            entry = self._cache.get(g)
            if entry is not None:
                body, next_call = entry
                return body(args, next_call)
            gens = [None] * self.nargs
            gens[i] = g
            return self._dispatch(args, gens, g)
        positions = self._dispatch_positions
        if self.cache_mode == "none":
            gens = [None] * self.nargs
            for i in positions:
                gens[i] = self.generalizer_of(args[i], i)
            return self._dispatch(args, gens, None)
        # the key comes straight from the generalizers, the list only on a miss; a
        # comprehension here would make self and args cells, slowing every call
        key = ()
        for i in positions:
            key += (self.generalizer_of(args[i], i),)
        entry = self._cache.get(key)
        if entry is not None:
            body, next_call = entry
            return body(args, next_call)
        gens = [None] * self.nargs
        for i, g in zip(positions, key):
            gens[i] = g
        return self._dispatch(args, gens, key)

    def invoke(self, args):
        return self.__call__(*args)

    def _dispatch(self, args, gens, key):
        """Cache-miss path: select, combine, and memoize when definitive.  A
        definitive empty outcome is memoized too, as an entry that raises."""
        methods, definitive = self._applicable_from_generalizers(gens)
        if definitive:
            if methods:
                entry = self.compute_effective_method(methods).entry
            else:
                entry = (_no_applicable_method, weakref.proxy(self))
            if key is not None:
                if len(self._cache) >= CACHE_LIMIT:
                    self._cache.clear()
                self._cache[key] = entry
            body, next_call = entry
            return body(args, next_call)
        methods = self.compute_applicable_methods(args)
        if not methods:
            raise NoApplicableMethod(self, args)
        # not cached: the generalizer key does not determine this outcome
        return self.compute_effective_method(methods)(args)


def _bind(body, next_call):
    def call(args):
        return body(args, next_call)

    return call


def _no_applicable_method(args, gf):
    # an empty outcome's cache entry; next_call is a weak proxy: no gf-entry cycle
    raise NoApplicableMethod(gf, args)
