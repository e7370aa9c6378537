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
        return self.name


class Nil(Symbol):
    """The empty list.  Also a symbol named "nil", as in Lisp."""

    def __repr__(self):
        return "()"


NIL = Nil("nil")

_symbols: dict[str, Symbol] = {"nil": NIL}


def intern(name: str) -> Symbol:
    """Return the unique symbol for `name`.  Names are folded to lower case."""
    folded = name.lower()
    sym = _symbols.get(folded)
    if sym is None:
        sym = _symbols[folded] = Symbol(folded)
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
            raise LinearizationError(name, _conflict_pair(sequences))
        result.append(head)
        for seq in sequences:
            if seq[0] is head:
                del seq[0]
        sequences = [seq for seq in sequences if seq]
    return result


def _conflict_pair(sequences):
    # every head is blocked; report two that block each other
    heads = [seq[0] for seq in sequences]
    for a in heads:
        for seq in sequences:
            if a in seq[1:] and seq[0] in heads:
                return (seq[0].name, a.name)
    return (heads[0].name, heads[1].name)


_BUILTIN_GRAPH = [
    ("t", []),
    ("number", ["t"]),
    ("real", ["number"]),
    ("integer", ["real"]),
    ("float", ["real"]),
    ("symbol", ["t"]),
    ("list", ["t"]),
    ("null", ["symbol", "list"]),
    ("cons", ["list"]),
    ("string", ["t"]),
    ("standard-object", ["t"]),
    ("request", ["standard-object"]),
]


class ClassRegistry:
    """Name-to-class mapping.  Fresh registries start with the built-in graph."""

    def __init__(self):
        self._classes: dict[str, ClassRef] = {}
        for name, supers in _BUILTIN_GRAPH:
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
_C_INTEGER = CLASSES["integer"]
_C_FLOAT = CLASSES["float"]
_C_SYMBOL = CLASSES["symbol"]
_C_NULL = CLASSES["null"]
_C_CONS = CLASSES["cons"]
_C_STRING = CLASSES["string"]
_C_REQUEST = CLASSES["request"]


class Instance:
    """An instance of a user-defined class: equal to another instance of the
    same type with equal fields, and unhashable."""

    __hash__ = None
    __match_args__ = ("class_ref", "slots")

    def __init__(self, class_ref: ClassRef, slots: dict | None = None):
        self.class_ref = class_ref
        self.slots = {} if slots is None else slots

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.class_ref, self.slots) == (other.class_ref, other.slots)

    @recursive_repr()
    def __repr__(self):
        return "%s(class_ref=%r, slots=%r)" % (type(self).__qualname__, self.class_ref, self.slots)


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


# the class of each host type in the value universe; NIL and Instance are
# resolved before it is consulted
_EXACT_CLASS_OF = {
    int: _C_INTEGER,
    float: _C_FLOAT,
    str: _C_STRING,
    Symbol: _C_SYMBOL,
    Cons: _C_CONS,
    bool: _C_T,
    Request: _C_REQUEST,
}


def class_of(value) -> ClassRef:
    """Most specific class of a runtime value.  Total: host objects that are
    not part of the value universe fall back to class t."""
    if isinstance(value, Instance):
        return value.class_ref
    if value is NIL:
        return _C_NULL
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
