"""A small s-expression reader: symbols, integers, floats, strings, proper lists.

One compiled regex splits the text into tokens, and `m.lastindex` names each
token's kind.  Lists are built on an explicit stack, so nesting depth is
bounded by memory, not by the recursion limit.  `\\s` and `str.isspace` agree
on every code point, and `\\d` accepts every Unicode decimal digit, which
`int` and `float` read.
"""

from __future__ import annotations

import re

from .model import NIL, Cons, intern

# One group per token kind.  A token ends where whitespace, a paren or a
# quote begins.  Symbols come first, split in two groups: a token that cannot
# start a number is matched at once, and one that starts like a number but is
# none (`+`, `1+`, `1e3e4`) falls through to the last group.
_END = r'(?![^\s()"])'
_TOKENS = re.compile(
    r'\s*(?:([^\s()"\d+.-][^\s()"]*)|(\()|(\))'
    r'|("[^"\\]*(?:\\.[^"\\]*)*("?))'
    r"|([+-]?\d+)" + _END
    + r"|([+-]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+))" + _END
    + r'|([^\s()"]+))',
    re.DOTALL,
)
_SYMBOL, _OPEN, _CLOSE, _STRING, _STRING_END, _INT, _FLOAT = range(1, 8)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NON_SPACE = re.compile(r"\S")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


def read_sexpr(text: str):
    """Parse exactly one expression from `text`."""
    opens = []  # positions of the unclosed "(", innermost last
    outer = []  # items of the enclosing unclosed lists, innermost last
    items = []
    # with trailing whitespace cut off, a token follows every run of it, so
    # the leading \s* of the token regex never has to backtrack
    for m in _TOKENS.finditer(text, 0, len(text.rstrip())):
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
                value = _ESCAPE.sub(r"\1", value)
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
    garbage = _NON_SPACE.search(text, m.end())
    if garbage:
        raise ParseError("trailing garbage after expression", garbage.start())
    return value
