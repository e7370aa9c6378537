"""Runtime value universe and class graph.

Values are interned symbols, cons cells, 64-bit style integers and floats,
strings, instances of user-defined classes, and HTTP requests.  Classes live
in a registry, each carrying a C3-linearized precedence list.  A class is
compared by identity, so dispatch can key its cache on one object per class.
"""

from __future__ import annotations

from reprlib import recursive_repr


class Symbol:
    """An interned identifier.  Two symbols with the same name are one object."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return _format_atom(self)


class Nil(Symbol):
    """The empty list.  Also a symbol named "nil", as in Lisp."""


NIL = Nil("nil")

_symbols: dict[str, Symbol] = {"nil": NIL}


def intern(name: str) -> Symbol:
    """Return the unique symbol for `name`.  Names are folded to lower case."""
    folded = name.lower()
    sym = _symbols.get(folded)
    if sym is None:
        # one atomic store-if-absent, so two threads interning one new name
        # get the one symbol that landed first
        sym = _symbols.setdefault(folded, Symbol(folded))
    return sym


class Cons:
    """A mutable pair.  Proper lists are chains of pairs ending in NIL.  The reader
    makes pairs without calling `__init__`, so it must stay the two slot stores."""

    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __eq__(self, other):
        # structural, eql at the leaves (dispatch uses eql), with no recursion
        if not isinstance(other, Cons):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            while isinstance(a, Cons) and isinstance(b, Cons):
                pairs.append((a.cdr, b.cdr))
                a, b = a.car, b.car
            if not eql(a, b):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        return format_value(self)


def cons_list(*items):
    """Build a proper list from `items`."""
    result = NIL
    for item in reversed(items):
        result = Cons(item, result)
    return result


def iter_list(value):
    """Yield the elements of a proper list.  Raises ValueError on improper tails."""
    while isinstance(value, Cons):
        yield value.car
        value = value.cdr
    if value is not NIL:
        raise ValueError("improper list")


def eql(a, b) -> bool:
    """Object identity, except numbers of the same kind compare by value and
    strings compare by content.  1 and 1.0 are not eql."""
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return False


class ClassGraphError(Exception):
    pass


class DuplicateClassError(ClassGraphError):
    pass


class UndefinedClassError(ClassGraphError):
    pass


class LinearizationError(ClassGraphError):
    """No consistent precedence list exists.  `conflict` names a blocking pair."""

    def __init__(self, name, conflict):
        self.conflict = conflict
        super().__init__(
            "cannot linearize %s: conflicting order between %s and %s"
            % (name, conflict[0], conflict[1])
        )


class ClassRef:
    """A node in the class graph with its cached precedence list.  It is also
    its own class generalizer for dispatch: `next` is the class itself."""

    __slots__ = ("name", "direct_superclasses", "precedence_list", "ancestors", "next")

    def __init__(self, name: str, supers: tuple):
        self.name = name
        self.direct_superclasses = supers
        self.precedence_list = compute_precedence_list(self)
        self.ancestors = frozenset(self.precedence_list)
        self.next = self

    def __repr__(self):
        return "<class %s>" % self.name


def subclass_p(sub: ClassRef, sup: ClassRef) -> bool:
    """True iff `sup` appears in the precedence list of `sub` (reflexive)."""
    return sup in sub.ancestors


def compute_precedence_list(cls: ClassRef) -> tuple:
    """C3 linearization from the direct superclasses' cached lists."""
    sequences = [list(s.precedence_list) for s in cls.direct_superclasses]
    sequences.append(list(cls.direct_superclasses))
    return (cls,) + tuple(_merge(cls.name, sequences))


def _merge(name, sequences):
    result = []
    sequences = [seq for seq in sequences if seq]
    while sequences:
        for seq in sequences:
            head = seq[0]
            if not any(head in other[1:] for other in sequences):
                break
        else:
            # every head is blocked: report the first and its first blocker
            head = sequences[0][0]
            blocker = next(seq for seq in sequences if head in seq[1:])
            raise LinearizationError(name, (blocker[0].name, head.name))
        result.append(head)
        for seq in sequences:
            if seq[0] is head:
                del seq[0]
        sequences = [seq for seq in sequences if seq]
    return result


class Request:
    """A parsed HTTP request.  Header names are case-insensitive."""

    def __init__(self, method: str, path: str, headers: dict | None = None):
        self.method = method
        self.path = path
        self.headers = {k.lower(): v for k, v in (headers or {}).items()}

    def header(self, name: str):
        return self.headers.get(name.lower())

    @property
    def accept(self) -> str:
        # an absent Accept header means "anything", per HTTP
        value = self.headers.get("accept")
        return "*/*" if value is None else value

    def __repr__(self):
        return "#<request %s %s>" % (self.method, self.path)


# each class, its direct superclasses and the host types whose instances are exactly it.
# bool is t's, so True is not an integer; no row has Instance: class_of asks the instance
_BUILTIN_GRAPH = [
    ("t", [], (bool,)),
    ("number", ["t"], ()),
    ("real", ["number"], ()),
    ("integer", ["real"], (int,)),
    ("float", ["real"], (float,)),
    ("symbol", ["t"], (Symbol,)),
    ("list", ["t"], ()),
    ("null", ["symbol", "list"], (Nil,)),
    ("cons", ["list"], (Cons,)),
    ("string", ["t"], (str,)),
    ("standard-object", ["t"], ()),
    ("request", ["standard-object"], (Request,)),
]


class ClassRegistry:
    """Name-to-class mapping.  Fresh registries start with the built-in graph."""

    def __init__(self):
        self._classes: dict[str, ClassRef] = {}
        for name, supers, _ in _BUILTIN_GRAPH:
            self.define(name, supers)

    def define(self, name: str, supers=()) -> ClassRef:
        """Register a new class under already-defined superclasses."""
        name = name.lower()
        if name in self._classes:
            raise DuplicateClassError("class %s already defined" % name)
        resolved = tuple(self._resolve(s) for s in supers)
        if not resolved and name != "t":
            resolved = (self._classes["t"],)
        cls = ClassRef(name, resolved)
        self._classes[name] = cls
        return cls

    def _resolve(self, designator) -> ClassRef:
        if isinstance(designator, ClassRef):
            return designator
        cls = self._classes.get(str(designator).lower())
        if cls is None:
            raise UndefinedClassError("class %s is not defined" % designator)
        return cls

    def __getitem__(self, name: str) -> ClassRef:
        return self._resolve(name)

    def __contains__(self, name: str) -> bool:
        return str(name).lower() in self._classes


CLASSES = ClassRegistry()

_C_T = CLASSES["t"]
# the table class_of probes by exact type first
_EXACT_CLASS_OF = {t: CLASSES[name] for name, _, types in _BUILTIN_GRAPH for t in types}


class Record:
    """A value with the fields `__match_args__` names: equal to a record of exactly
    its type with equal fields, unhashable, and printed as `Type(field=value, ...)`."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__match_args__
        return tuple(getattr(self, f) for f in fields) == tuple(getattr(other, f) for f in fields)

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__match_args__)
        return "%s(%s)" % (type(self).__qualname__, fields)


class Instance(Record):
    """An instance of a user-defined class."""

    __match_args__ = ("class_ref", "slots")

    def __init__(self, class_ref: ClassRef, slots: dict | None = None):
        self.class_ref = class_ref
        self.slots = {} if slots is None else slots


def class_of(value) -> ClassRef:
    """Most specific class of a runtime value.  Total: host objects that are
    not part of the value universe fall back to class t."""
    cls = _EXACT_CLASS_OF.get(value.__class__)
    if cls is not None:
        return cls
    if isinstance(value, Instance):
        return value.class_ref
    # the nearest type in the table, so subclasses classify like their base
    for t in value.__class__.__mro__:
        cls = _EXACT_CLASS_OF.get(t)
        if cls is not None:
            return cls
    return _C_T


def format_value(value) -> str:
    """Print a value in reader syntax where one exists."""
    parts = []
    rests = []  # the unprinted rest of each enclosing list, innermost last
    while True:
        while isinstance(value, Cons):
            parts.append("(")
            rests.append(value.cdr)
            value = value.car
        parts.append(_format_atom(value))
        while rests and not isinstance(rests[-1], Cons):
            tail = rests.pop()
            parts.append(")" if tail is NIL else " . %s)" % _format_atom(tail))
        if not rests:
            return "".join(parts)
        value, rests[-1] = rests[-1].car, rests[-1].cdr
        parts.append(" ")


def _format_atom(value) -> str:
    if value is NIL:
        return "()"
    if isinstance(value, Symbol):
        return value.name
    if isinstance(value, str):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(value, Instance):
        return "#<%s>" % value.class_ref.name
    return repr(value)  # numbers, booleans and host objects
