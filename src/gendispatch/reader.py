"""A small s-expression reader: symbols, integers, floats, strings, proper lists.

The text splits into plain-string tokens: a paren, a string (an unterminated
one is its opening quote alone) or a run of other non-space characters, by one
regex `findall` if it holds a quote and else by `str.split` once the parens
are spaced out.  One `map` over a module-level token table then classifies
every token: the table maps each paren to a private marker, and each symbol
or number token read before to its value.  Only a token the table misses
meets the atom rules: a letter starts a symbol and a quote a string, and any
other atom goes through one number regex.  A symbol or number read so is
stored; a string never is.  The table holds at most `_ATOMS_LIMIT` entries: a
full one is replaced, never cleared, so a read running on the old table still
finds both parens there.  Lists are linked as they are read, on an explicit
stack of open lists, from pairs made without `Cons.__init__`, so nesting depth
is bounded by memory, not by the recursion limit.  Only an error scans the
text again with the regex, to turn a token index into a character position.
`\\s`, `str.split` and `str.isspace` agree on every code point, and `\\d`
accepts every Unicode decimal digit, which `int` and `float` read.
"""

from __future__ import annotations

import re
from itertools import islice

from .model import NIL, Cons, intern

_TOKENS = re.compile(r'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|"|[^\s()"]+', re.DOTALL)
# the group takes part only for an integer; an atom that is no number and
# starts with neither a letter nor a quote (`+`, `1e3e4`, `*x*`) is a symbol
_NUMBER = re.compile(r"[+-]?(?:(\d+)|(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_new = object.__new__

_OPEN = object()
_CLOSE = object()
# about three times the distinct atoms of the walk benchmark's programs
_ATOMS_LIMIT = 4096
_atoms = {"(": _OPEN, ")": _CLOSE}


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


def _error(message: str, text: str, index: int) -> ParseError:
    """A ParseError at the start of token `index` of `text`."""
    return ParseError(message, next(islice(_TOKENS.finditer(text), index, None)).start())


def _read_atom(token: str, text: str, index: int):
    """The value of atom token `index` of `text`, which the table missed."""
    global _atoms
    if token[0] == '"':
        if token == '"':
            raise _error("unterminated string opened", text, index)
        value = token[1:-1]
        return _ESCAPE.sub(r"\1", value) if "\\" in value else value
    # a letter starts no number, and a token that is no number is a symbol
    m = None if token[0].isalpha() else _NUMBER.fullmatch(token)
    if m is None:
        value = intern(token)
    elif m.lastindex:
        try:
            value = int(token)
        except ValueError:
            # past sys.get_int_max_str_digits(); float() has no such limit
            raise _error("integer literal too long", text, index) from None
    else:
        value = float(token)
    atoms = _atoms
    if len(atoms) >= _ATOMS_LIMIT:
        atoms = _atoms = {"(": _OPEN, ")": _CLOSE}
    atoms[token] = value
    return value


def read_sexpr(text: str):
    """Parse exactly one expression from `text`."""
    if '"' in text:
        tokens = _TOKENS.findall(text)
    else:
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    # the open list's elements are linked after `first`, a pair never returned;
    # each unclosed "(" pushes its token index and the enclosing list's pairs
    opens = []
    first = last = None
    for index, value in enumerate(map(_atoms.get, tokens)):
        if value is _OPEN:
            opens.append((index, first, last))
            first = last = _new(Cons)
            continue
        if value is _CLOSE:
            if not opens:
                raise _error("unbalanced close paren", text, index)
            last.cdr = NIL
            value = first.cdr
            _, first, last = opens.pop()
        elif value is None:
            value = _read_atom(tokens[index], text, index)
        if not opens:
            break
        pair = last.cdr = _new(Cons)
        pair.car = value
        last = pair
    else:
        if opens:
            raise _error("unterminated list opened", text, opens[-1][0])
        raise ParseError("empty input", len(text))
    if index + 1 < len(tokens):
        raise _error("trailing garbage after expression", text, index + 1)
    return value
