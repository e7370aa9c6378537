"""A small s-expression reader: symbols, integers, floats, strings, proper lists.

The text splits into plain-string tokens: a paren, a string (an unterminated
one is its opening quote alone) or a run of other non-space characters, by one
regex `findall` if it holds a quote and else by `str.split` once the parens
are spaced out.  A letter starts a symbol and a quote a string; any other atom
goes through one number regex.  Lists are built on an explicit stack from
pairs made without `Cons.__init__`, so nesting depth is bounded by memory, not
by the recursion limit.  Only an error scans the text again with the regex, to
turn a token index into a character position.  `\\s`, `str.split` and
`str.isspace` agree on every code point, and `\\d` accepts every Unicode
decimal digit, which `int` and `float` read.
"""

from __future__ import annotations

import re
from itertools import islice

from .model import NIL, Cons, _symbols, intern

_TOKENS = re.compile(r'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|"|[^\s()"]+', re.DOTALL)
# the group takes part only for an integer; an atom that is no number and
# starts with neither a letter nor a quote (`+`, `1e3e4`, `*x*`) is a symbol
_NUMBER = re.compile(r"[+-]?(?:(\d+)|(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_new = object.__new__


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


def _error(message: str, text: str, index: int) -> ParseError:
    """A ParseError at the start of token `index` of `text`."""
    return ParseError(message, next(islice(_TOKENS.finditer(text), index, None)).start())


def read_sexpr(text: str):
    """Parse exactly one expression from `text`."""
    if '"' in text:
        tokens = _TOKENS.findall(text)
    else:
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    opens = []  # token indexes of the unclosed "(", innermost last
    outer = []  # items of the enclosing unclosed lists, innermost last
    items = []
    for index, token in enumerate(tokens):
        if token == "(":
            opens.append(index)
            outer.append(items)
            items = []
            continue
        if token == ")":
            if not opens:
                raise _error("unbalanced close paren", text, index)
            value = NIL
            for item in reversed(items):
                pair = _new(Cons)
                pair.car = item
                pair.cdr = value
                value = pair
            opens.pop()
            items = outer.pop()
        elif token[0].isalpha():
            # a letter starts no number, so the token is a symbol
            value = _symbols.get(token) or intern(token)
        elif token[0] == '"':
            if token == '"':
                raise _error("unterminated string opened", text, index)
            value = token[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        else:
            m = _NUMBER.fullmatch(token)
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
        if not opens:
            break
        items.append(value)
    else:
        if opens:
            raise _error("unterminated list opened", text, opens[-1])
        raise ParseError("empty input", len(text))
    if index + 1 < len(tokens):
        raise _error("trailing garbage after expression", text, index + 1)
    return value
