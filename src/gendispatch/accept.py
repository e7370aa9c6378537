"""Dispatch on HTTP Accept headers: methods specialize on a concrete media
type and are ordered by the client's quality values.

Parsing is total: elements that do not parse are dropped.  Quality values are
kept as exact decimals (at most three fractional digits), never floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .model import Request
from .core import Generalizer, GenericFunction, Method, NoApplicableMethod, Specializer

_TOKEN_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+$")
_QVALUE_RE = re.compile(r"(0(\.\d{0,3})?|1(\.0{0,3})?)$")


@dataclass(frozen=True)
class MediaRange:
    type: str
    subtype: str
    q: Fraction


@dataclass(frozen=True)
class AcceptTree:
    """Parsed Accept header: media ranges in header order."""

    ranges: tuple[MediaRange, ...]


def parse_accept_header(header: str) -> AcceptTree:
    """Parse an Accept header.  Malformed elements are dropped, a missing q
    defaults to 1, and parameters other than q are ignored."""
    ranges = []
    for element in header.split(","):
        parsed = _parse_media_range(element.strip())
        if parsed is not None:
            ranges.append(parsed)
    return AcceptTree(tuple(ranges))


def _parse_media_range(element: str) -> MediaRange | None:
    if not element:
        return None
    parts = element.split(";")
    range_part = parts[0].strip().lower()
    if range_part.count("/") != 1:
        return None
    type_, subtype = (piece.strip() for piece in range_part.split("/"))
    if type_ == "*" and subtype != "*":
        return None
    if type_ != "*" and not _TOKEN_RE.match(type_):
        return None
    if subtype != "*" and not _TOKEN_RE.match(subtype):
        return None
    q = Fraction(1)
    for param in parts[1:]:
        name, _, value = param.partition("=")
        if name.strip().lower() == "q":
            value = value.strip()
            if not _QVALUE_RE.match(value):
                return None
            q = Fraction(value)
            break  # q ends the media range; later parameters are extensions
    return MediaRange(type_, subtype, q)


def quality(media_type: str, tree: AcceptTree) -> Fraction | None:
    """The client's preference for a concrete media type, or None when no
    range matches.  An exact match beats type/*, which beats */*; among
    equally specific ranges the first in the header wins."""
    type_, _, subtype = media_type.lower().partition("/")
    best = None
    best_rank = 0
    for r in tree.ranges:
        if r.type == type_ and r.subtype == subtype:
            rank = 3
        elif r.type == type_ and r.subtype == "*":
            rank = 2
        elif r.type == "*":
            rank = 1
        else:
            continue
        if rank > best_rank:
            best_rank = rank
            best = r.q
    return best


def _header_of(obj) -> str | None:
    if isinstance(obj, Request):
        return obj.accept
    if isinstance(obj, str):
        return obj
    return None


class AcceptSpecializer(Specializer):
    """Accepts requests (or bare header strings) that give the stored media
    type a positive quality."""

    def __init__(self, media_type: str):
        media_type = media_type.lower()
        if media_type.count("/") != 1 or "*" in media_type:
            raise ValueError("media type must be concrete: %r" % media_type)
        self.media_type = media_type

    def accepts(self, obj) -> bool:
        header = _header_of(obj)
        if header is None:
            return False
        q = quality(self.media_type, parse_accept_header(header))
        return q is not None and q > 0

    def __eq__(self, other):
        return isinstance(other, AcceptSpecializer) and self.media_type == other.media_type

    def __repr__(self):
        return "(accept %s)" % self.media_type


class AcceptGeneralizer(Generalizer):
    """Made per call and keyed by the header text, so the cache does not keep
    the parsed tree alive; `next` is what the argument would have generalized
    to without this extension, so class-specialized methods keep working."""

    __slots__ = ("header", "next", "_tree")

    def __init__(self, header: str, next_generalizer: Generalizer):
        self.header = header
        self.next = next_generalizer
        self._tree = None

    @property
    def tree(self) -> AcceptTree:
        # parsed on first use, at most once per generalizer
        if self._tree is None:
            self._tree = parse_accept_header(self.header)
        return self._tree

    def __repr__(self):
        return "(accept-generalizer %r)" % self.header


class AcceptGenericFunction(GenericFunction):
    kind = "accept"

    def generalizer_of(self, arg, position: int = 0):
        header = _header_of(arg)
        if header is not None:
            return AcceptGeneralizer(header, super().generalizer_of(arg, position))
        return super().generalizer_of(arg, position)

    def generalizer_hash_key(self, g):
        if isinstance(g, AcceptGeneralizer):
            return g.header
        return super().generalizer_hash_key(g)

    def specializer_accepts_generalizer(self, s, g):
        if isinstance(s, AcceptSpecializer):
            # strings and requests always generalize to an AcceptGeneralizer
            # here, so other generalizer kinds exclude media-type methods
            q = quality(s.media_type, g.tree) if isinstance(g, AcceptGeneralizer) else None
            return (q is not None and q > 0, True)
        return super().specializer_accepts_generalizer(s, g)

    def _extension_order(self, s1, s2, g):
        if (
            isinstance(s1, AcceptSpecializer)
            and isinstance(s2, AcceptSpecializer)
            and isinstance(g, AcceptGeneralizer)
        ):
            q1 = quality(s1.media_type, g.tree)
            q2 = quality(s2.media_type, g.tree)
            if q1 == q2:
                return 0
            # the media type the client rates higher is more specific
            return -1 if q1 > q2 else 1
        return super()._extension_order(s1, s2, g)


def make_negotiator(media_types, cache: str = "auto") -> AcceptGenericFunction:
    """A generic function with one method per media type, each returning its
    own media type."""
    gf = AcceptGenericFunction("negotiate", 1, cache=cache)
    for media_type in media_types:
        gf.add_method(Method([AcceptSpecializer(media_type)], _constantly(media_type.lower())))
    return gf


def _constantly(value):
    def body(args, _next):
        return value

    return body


def negotiate(header: str, media_types) -> str | None:
    """Pick the most acceptable of `media_types` for an Accept header, or
    None when nothing is acceptable."""
    gf = make_negotiator(media_types)
    try:
        return gf(header)
    except NoApplicableMethod:
        return None
