"""Shared test helpers: hand-computed oracles and the randomized
configuration generator used by the equivalence and transparency suites."""

from __future__ import annotations

import random
import re
from fractions import Fraction

from gendispatch import (
    ANY,
    CLASSES,
    NIL,
    AcceptGenericFunction,
    AcceptSpecializer,
    ClassRegistry,
    ClassSpecializer,
    Cons,
    ConsGenericFunction,
    ConsSpecializer,
    DispatchError,
    EqlSpecializer,
    GenericFunction,
    Instance,
    Method,
    NoApplicableMethod,
    ParseError,
    Request,
    SignumGenericFunction,
    SignumSpecializer,
    Symbol,
    cons_list,
    intern,
)


class _Int(int):
    pass


class _Symbol(Symbol):
    pass


class _Cons(Cons):
    pass


def value_kinds():
    """One value of each kind class_of knows, and of subclasses of some;
    conses with and without a symbol head."""
    point = ClassRegistry().define("point")
    return [
        3, -2.5, "s", intern("a"), NIL, cons_list(intern("f"), 1), cons_list(1, 2),
        True, False, Request("GET", "/"), Instance(point), _Int(4), _Symbol("b"),
        _Cons(intern("f"), NIL), _Cons(_Symbol("c"), NIL), _Cons(1, NIL), None, object(),
    ]


def fact_oracle(n: int) -> int:
    """Iterative product, independent of the dispatch implementation."""
    result = 1
    for k in range(2, n + 1):
        result *= k
    return result


# walker fixtures with hand-traced expectations, in source order
WALKER_FIXTURES = [
    ("(let ((x 1)) x)", []),
    ("(let ((x 1)) 2)", [("unused-binding", "x")]),
    ("(lambda (x) y)", [("unused-binding", "x"), ("unbound-variable", "y")]),
    ("(let ((x 1)) (+ x x))", []),
    ("((f) y)", [("unbound-variable", "y")]),
    ("(lambda (x) (lambda (y) x))", [("unused-binding", "y")]),
]


def diagnostic_pairs(diagnostics):
    return [(d.kind, d.variable.name) for d in diagnostics]


# -- randomized dispatch configurations

_CLASS_NAMES = ["t", "number", "real", "integer", "float", "symbol", "null", "cons", "list", "string"]
_HEAD_SYMBOLS = ["f", "g", "let", "lambda", "quux"]
_MEDIA_TYPES = ["text/html", "application/xml", "text/plain", "image/png", "video/mp4"]
_SIGNUM_VALUES = [-1, 0, 1, -1.0, 0.0, 1.0]

_GF_KINDS = {
    "standard": GenericFunction,
    "cons": ConsGenericFunction,
    "signum": SignumGenericFunction,
    "accept": AcceptGenericFunction,
}

HEADER_RANGES = ["text/html", "application/xml", "text/plain", "text/*", "*/*", "image/png", "application/*"]
HEADER_QS = [None, "0", "0.1", "0.3", "0.5", "0.8", "0.9", "1"]


def random_header(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 4)):
        media = rng.choice(HEADER_RANGES)
        q = rng.choice(HEADER_QS)
        parts.append(media if q is None else "%s;q=%s" % (media, q))
    return ", ".join(parts)


def random_value(rng: random.Random, kind: str):
    if kind == "signum" and rng.random() < 0.5:
        return rng.choice([-3, -1, 0, 1, 7, 20, -2.5, -1.0, 0.0, 1.0, 2.5])
    if kind == "cons" and rng.random() < 0.5:
        head = rng.choice(_HEAD_SYMBOLS + [1])  # sometimes a non-symbol car
        head = intern(head) if isinstance(head, str) else head
        return cons_list(head, rng.randint(0, 3))
    if kind == "accept" and rng.random() < 0.5:
        header = random_header(rng)
        if rng.random() < 0.5:
            return Request("GET", "/", {"Accept": header})
        return header
    pick = rng.random()
    if pick < 0.25:
        return rng.randint(-3, 8)
    if pick < 0.4:
        return rng.choice([-2.5, -1.0, 0.0, 1.0, 2.5])
    if pick < 0.55:
        return rng.choice(["x", "hello", "text/html"])
    if pick < 0.75:
        return intern(rng.choice(_HEAD_SYMBOLS + ["x", "y"]))
    if pick < 0.85:
        return NIL
    return Cons(rng.choice([intern("f"), 3]), cons_list(rng.randint(0, 2)))


def random_specializer(rng: random.Random, kind: str):
    roll = rng.random()
    if kind == "cons" and roll < 0.35:
        return ConsSpecializer(intern(rng.choice(_HEAD_SYMBOLS)))
    if kind == "signum" and roll < 0.35:
        return SignumSpecializer(rng.choice(_SIGNUM_VALUES))
    if kind == "accept" and roll < 0.35:
        return AcceptSpecializer(rng.choice(_MEDIA_TYPES))
    if roll < 0.75:
        return ClassSpecializer(CLASSES[rng.choice(_CLASS_NAMES)])
    return EqlSpecializer(random_value(rng, kind))


def _labelled_body(label):
    def body(args, _next):
        return label

    return body


# qualifier mix of the combination oracle: primaries stay the most common
_QUALIFIER_MIX = ["primary", "primary", "before", "after", "around"]


def _traced_body(label, qualifier: str, calls_next: bool, trace: list):
    def body(args, next_call):
        trace.append((qualifier, label))
        inner = next_call(args) if calls_next and next_call is not None else None
        return (qualifier, label, inner)

    return body


def random_config(
    rng: random.Random,
    cache: str = "auto",
    calls: int = 1,
    kind: str | None = None,
    trace: list | None = None,
    nargs: int | None = None,
):
    """One random generic function, of `kind` or of a random kind, plus
    `calls` argument lists for it.  It takes a drawn 1 or 2 arguments, or
    `nargs`; given `nargs`, each position is also left to the universal
    specializer in every method with probability 1/3, so that the dispatch
    positions can have gaps, as (0, 2) or (1, 2) do.  Given a `trace` list,
    methods also draw before, after and around qualifiers, and every body
    appends itself to the trace and may call its next method."""
    kind = kind or rng.choice(list(_GF_KINDS))
    universal = []
    if nargs is None:
        nargs = rng.choice([1, 1, 1, 2])
    else:
        universal = [i for i in range(nargs) if rng.random() < 1 / 3]
    gf = _GF_KINDS[kind]("probe", nargs, cache=cache)
    for label in range(rng.randint(1, 5)):
        specializers = [ANY if i in universal else random_specializer(rng, kind) for i in range(nargs)]
        if trace is None:
            gf.add_method(Method(specializers, _labelled_body(label)))
        else:
            qualifier = rng.choice(_QUALIFIER_MIX)
            body = _traced_body(label, qualifier, rng.random() < 0.7, trace)
            gf.add_method(Method(specializers, body, qualifier))
    arglists = [[random_value(rng, kind) for _ in range(nargs)] for _ in range(calls)]
    return gf, arglists


def invoke_outcome(gf, args):
    try:
        return gf.invoke(args)
    except NoApplicableMethod:
        return "no-applicable-method"


def combination_outcome(gf, args):
    """The result of one call, or the type and message of its dispatch error."""
    try:
        return gf.invoke(args)
    except DispatchError as exc:
        return (type(exc).__name__, str(exc))


# -- the Accept parser before the one-pass rewrite, kept as an oracle

_ORACLE_TOKEN_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+$")
_ORACLE_QVALUE_RE = re.compile(r"(0(\.\d{0,3})?|1(\.0{0,3})?)$")


def oracle_media_ranges(header: str) -> list:
    """(type, subtype, q as a Fraction) per element, parsed element by element
    with strip/split/partition/lower as the library once did."""
    ranges = []
    for element in header.split(","):
        parsed = _oracle_media_range(element.strip())
        if parsed is not None:
            ranges.append(parsed)
    return ranges


def _oracle_media_range(element: str):
    if not element:
        return None
    parts = element.split(";")
    range_part = parts[0].strip().lower()
    if range_part.count("/") != 1:
        return None
    type_, _, subtype = range_part.partition("/")
    type_ = type_.strip()
    subtype = subtype.strip()
    if type_ == "*" and subtype != "*":
        return None
    if type_ != "*" and not _ORACLE_TOKEN_RE.match(type_):
        return None
    if subtype != "*" and not _ORACLE_TOKEN_RE.match(subtype):
        return None
    q = Fraction(1)
    for param in parts[1:]:
        name, _, value = param.partition("=")
        if name.strip().lower() == "q":
            value = value.strip()
            if not _ORACLE_QVALUE_RE.match(value):
                return None
            whole, _, digits = value.partition(".")
            q = Fraction(int(whole + digits.ljust(3, "0")), 1000)
            break
    return (type_, subtype, q)


# -- the reader before the findall rewrite, kept as an oracle

_ORACLE_END = r'(?![^\s()"])'
_ORACLE_TOKENS = re.compile(
    r'\s*(?:([^\s()"\d+.-][^\s()"]*)|(\()|(\))'
    r'|("[^"\\]*(?:\\.[^"\\]*)*("?))'
    r"|([+-]?\d+)" + _ORACLE_END
    + r"|([+-]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+))" + _ORACLE_END
    + r'|([^\s()"]+))',
    re.DOTALL,
)
_SYMBOL, _OPEN, _CLOSE, _STRING, _STRING_END, _INT, _FLOAT = range(1, 8)
_ORACLE_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ORACLE_NON_SPACE = re.compile(r"\S")


def oracle_read_sexpr(text: str):
    """Parse exactly one expression from `text`, one `finditer` match per
    token, as the library once did."""
    opens = []  # positions of the unclosed "(", innermost last
    outer = []  # items of the enclosing unclosed lists, innermost last
    items = []
    # with trailing whitespace cut off, a token follows every run of it, so
    # the leading \s* of the token regex never has to backtrack
    for m in _ORACLE_TOKENS.finditer(text, 0, len(text.rstrip())):
        kind = m.lastindex
        if kind == _SYMBOL:
            value = intern(m.group(kind))
        elif kind == _OPEN:
            opens.append(m.start(kind))
            outer.append(items)
            items = []
            continue
        elif kind == _CLOSE:
            if not opens:
                raise ParseError("unbalanced close paren", m.start(kind))
            value = NIL
            for item in reversed(items):
                value = Cons(item, value)
            opens.pop()
            items = outer.pop()
        elif kind == _STRING:
            if not m.group(_STRING_END):
                raise ParseError("unterminated string opened", m.start(kind))
            value = m.group(kind)[1:-1]
            if "\\" in value:
                value = _ORACLE_ESCAPE.sub(r"\1", value)
        elif kind == _INT:
            try:
                value = int(m.group(kind))
            except ValueError:
                # past sys.get_int_max_str_digits(); float() has no such limit
                raise ParseError("integer literal too long", m.start(kind)) from None
        elif kind == _FLOAT:
            value = float(m.group(kind))
        else:
            value = intern(m.group(kind))
        if not opens:
            break
        items.append(value)
    else:
        if opens:
            raise ParseError("unterminated list opened", opens[-1])
        raise ParseError("empty input", len(text))
    garbage = _ORACLE_NON_SPACE.search(text, m.end())
    if garbage:
        raise ParseError("trailing garbage after expression", garbage.start())
    return value
