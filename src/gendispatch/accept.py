"""Dispatch on HTTP Accept headers: methods specialize on a concrete media
type and are ordered by the client's quality values.

Parsing is total: elements that do not parse are dropped.  Quality values are
exact decimals (at most three fractional digits), never floats: dispatch
ranks on (type, subtype, q in thousandths) tuples, and only
parse_accept_header builds Fractions, for its public view.  The header is
lower-cased once; one findall over it gives each element's range and q.

Dispatch depends on a header only through the client's preference order over
the media types the function's methods name, so that order, not the header
text, is the generalizer and the cache key: every spelling of one preference
shares one cache entry.  Per method set, a match table maps each range that
can match the function's media types to them, so ranking is one probe per
range, a grammar parses only the types and subtypes in that table, and a
bounded memo maps header text to its generalizer, so a repeated header is
not parsed again.  The class states that rule as its generalizer_rule, so
the discriminating function probes that memo inline for a request and calls
_rank only for a header it has not seen; any other argument, a header string
among them, goes through _generalize.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache, lru_cache

from .model import CLASSES, ClassRef, Request, class_of
from .core import DispatchState, Generalizer, GenericFunction, Method, NoApplicableMethod, Specializer

_TOKEN = r"[!#$%&'*+.^_`|~0-9a-z-]+"
_MEDIA_TYPE = re.compile("%s/%s" % (_TOKEN, _TOKEN)).fullmatch
# one element of a lower-cased header, from \A or a comma to before the next
# comma or \Z, with type and subtype patterns in the % slots: type/subtype (a
# type of * needs a subtype of *), then parameters; the first named q must hold
# a valid q value (group 3), and what follows it is ignored.  Other non-empty
# elements are swallowed whole, with empty groups.  \s is what str.strip removes
_GRAMMAR = (
    r"(?:\A|,)\s*(?:(?!\*\s*/\s*(?!\s|\*(?:[\s;,]|\Z)))(%s)\s*/\s*(%s)\s*"
    r"(?:;(?!\s*q\s*(?:[=;,]|\Z))[^;,]*)*"
    r"(?:;\s*q\s*=\s*(0(?:\.\d{0,3})?|1(?:\.0{0,3})?)\s*(?:;[^;,]*)*)?(?=,|\Z)|[^,\s][^,]*)"
)
_FIND_RANGES = re.compile(_GRAMMAR % (_TOKEN, _TOKEN)).findall

MediaRange = namedtuple("MediaRange", ["type", "subtype", "q"])
AcceptTree = namedtuple("AcceptTree", ["ranges"])
AcceptTree.__doc__ = "Parsed Accept header: media ranges in header order."


def _media_ranges(header: str) -> list:
    """(type, subtype, q in thousandths) per well-formed element, in header
    order.  Malformed elements are dropped, a missing q means 1000, and
    parameters other than q are ignored."""
    return [(t, s, _thousandths(q)) for t, s, q in _FIND_RANGES(header.lower()) if t]


def _thousandths(q: str) -> int:
    # q is "" (missing), or "0" or "1", then maybe a point and up to three digits
    return 1000 if not q or q[0] == "1" else int(q[2:].ljust(3, "0"))


def parse_accept_header(header: str) -> AcceptTree:
    """Parse an Accept header.  Malformed elements are dropped, a missing q
    defaults to 1, and parameters other than q are ignored."""
    return AcceptTree(tuple(MediaRange(t, s, _q_value(q)) for t, s, q in _media_ranges(header)))


@cache  # at most 1001 entries; Fraction(str) costs several microseconds
def _q_value(thousandths: int) -> Fraction:
    from fractions import Fraction  # only this public view needs it

    return Fraction(thousandths, 1000)


def quality(media_type: str, tree: AcceptTree) -> Fraction | None:
    """The client's preference for a concrete media type, or None when no
    range matches.  An exact match beats type/*, which beats */*; among
    equally specific ranges the first in the header wins."""
    return _best_q(media_type, tree.ranges)


def _best_q(media_type: str, ranges):
    """quality over (type, subtype, q) triples, whatever q's type."""
    type_, _, subtype = media_type.lower().partition("/")
    best = None
    best_rank = 0
    for r_type, r_subtype, q in ranges:
        if r_type == type_ and r_subtype == subtype:
            rank = 3
        elif r_type == type_ and r_subtype == "*":
            rank = 2
        elif r_type == "*":
            rank = 1
        else:
            continue
        if rank > best_rank:
            best_rank = rank
            best = q
    return best


def _header_of(obj) -> str | None:
    if isinstance(obj, Request):
        return obj.accept
    return obj if isinstance(obj, str) else None


class AcceptSpecializer(Specializer):
    """Accepts requests (or bare header strings) that give the stored media
    type a positive quality."""

    def __init__(self, media_type: str):
        media_type = media_type.lower()
        # what one header element can name exactly: type and subtype tokens
        if "*" in media_type or _MEDIA_TYPE(media_type) is None:
            raise ValueError("media type must be concrete: %r" % media_type)
        self.media_type = media_type

    def accepts(self, obj) -> bool:
        header = _header_of(obj)
        if header is None:
            return False
        return bool(_best_q(self.media_type, _media_ranges(header)))  # None or 0 refuses

    def __eq__(self, other):
        return isinstance(other, AcceptSpecializer) and self.media_type == other.media_type

    def __repr__(self):
        return "(accept %s)" % self.media_type


class AcceptGeneralizer(Generalizer):
    """The client's preference order over one function's media types.

    `ranks` holds, per media type of the function's accept methods in
    definition order, 0 when the client refuses it (no matching range, or
    q=0) and otherwise 1 + the number of distinct higher qualities the header
    gives those media types.  Acceptance only asks whether q > 0 and ordering
    only compares two accepted qs, so the ranks decide both; `next` is the
    class of the argument.  Interned per dispatch state, so it is its own
    cache key; `rank_of` maps the media types it was ranked over to their
    ranks, so it answers only for the methods of that state."""

    __slots__ = ("ranks", "next", "rank_of")

    def __init__(self, ranks: tuple, next_generalizer: ClassRef, media_index: dict):
        self.ranks = ranks
        self.next = next_generalizer
        self.rank_of = dict(zip(media_index, ranks))

    def __repr__(self):
        return "(accept-generalizer %s)" % " ".join(map(str, self.ranks))


# header texts and interned preference orders per method set.  Clients repeat a
# few headers; a full table starts afresh, so neither grows without bound
MEMO_LIMIT = 1024


class _AcceptState(DispatchState):
    """Also the tables an Accept function's generalizers are ranked from and
    interned in, and `find`, their own grammar, compiled on first use."""

    __slots__ = ("media_index", "matches", "generalizers", "memo", "find")

    def __init__(self, methods, cache_mode: str):
        super().__init__(methods, cache_mode)
        named = (s.media_type for m in methods for s in m.specializers if isinstance(s, AcceptSpecializer))
        self.media_index = {t: i for i, t in enumerate(dict.fromkeys(named))}  # media type -> index into ranks
        # (type, subtype) of a range -> (specificity, indexes of the media
        # types it matches): 3 for the exact type, 2 for type/*, 1 for */*
        matches = self.matches = {}
        for media_type, i in self.media_index.items():
            type_, _, subtype = media_type.partition("/")
            matches[type_, subtype] = (3, (i,))
            for key, specificity in (((type_, "*"), 2), (("*", "*"), 1)):
                matches[key] = (specificity, matches.get(key, (0, ()))[1] + (i,))
        self.generalizers = {}  # (ranks, next) -> the interned generalizer
        self.memo = {}  # (header, next) -> generalizer
        self.find = None

    def compile_find(self):
        # only the table's ranges parse; the engine swallows other elements unparsed
        alternatives = ("|".join(sorted({re.escape(key[i]) for key in self.matches})) for i in (0, 1))
        self.find = re.compile(_GRAMMAR % tuple(alternatives)).findall
        return self.find


def _weight(q: str) -> int:
    # 0 when q refuses, else 1001 - thousandths: a higher q weighs less
    return (1001 - _thousandths(q)) % 1001


# every ASCII q spelling _GRAMMAR admits, and "" for a missing q
_WEIGHTS = {q: _weight(q) for q in ["", "0", "0.", "1", "1.", "1.0", "1.00", "1.000"]
            + ["0.%0*d" % (n, i) for n in (1, 2, 3) for i in range(10**n)]}
_REQUEST = CLASSES["request"]


def _rank(state, header: str, next_generalizer: ClassRef) -> AcceptGeneralizer:
    """The generalizer of a header that state's memo lacks, interned and memoized there."""
    # each media type's weight from its most specific range, the first of equals
    matches = state.matches
    weights = [0] * len(state.media_index)
    specificities = weights[:]
    for type_, subtype, q in (state.find or state.compile_find())(header.lower()):
        specificity, indexes = matches.get((type_, subtype), (0, ()))
        for i in indexes:
            if specificity > specificities[i]:
                specificities[i] = specificity
                # a q of other Unicode digits is weighed, not stored: the table stays bounded
                weights[i] = _WEIGHTS[q] if q in _WEIGHTS else _weight(q)
    ranks = tuple(map(sorted({0, *weights}).index, weights))  # dense, 0 for refused
    generalizers = state.generalizers
    g = generalizers.get((ranks, next_generalizer))
    if g is None:
        # bounded as the memo is; a generalizer the memo or cache holds still answers
        if len(generalizers) >= MEMO_LIMIT:
            generalizers.clear()
        g = generalizers[ranks, next_generalizer] = AcceptGeneralizer(ranks, next_generalizer, state.media_index)
    memo = state.memo
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[header, next_generalizer] = g
    return g


def _generalize(state, arg):
    # the rule for an argument that is not exactly a request
    header, next_generalizer = _header_of(arg), class_of(arg)
    if header is None:
        return next_generalizer
    return state.memo.get((header, next_generalizer)) or _rank(state, header, next_generalizer)


class AcceptGenericFunction(GenericFunction):
    kind = "accept"
    _state_class = _AcceptState

    # a request by its header's memoized generalizer, ranked on a miss, and any
    # other value, a header string among them, by _generalize
    generalizer_rule = (
        "(state.memo.get((header := arg.accept, _REQUEST)) or _rank(state, header, _REQUEST))"
        " if arg.__class__ is Request else _generalize(state, arg)")

    def specializer_accepts_generalizer(self, s, g):
        if isinstance(s, AcceptSpecializer):
            # strings and requests always generalize to an AcceptGeneralizer
            # here, so other generalizer kinds exclude media-type methods; one
            # ranked for other methods (they changed meanwhile) cannot say
            if isinstance(g, AcceptGeneralizer):
                rank = g.rank_of.get(s.media_type)
                return (bool(rank), rank is not None)
            return (False, True)
        return super().specializer_accepts_generalizer(s, g)

    def specializer_order(self, s1, s2, g):
        if (isinstance(s1, AcceptSpecializer) and isinstance(s2, AcceptSpecializer)
                and isinstance(g, AcceptGeneralizer)):
            # the media type the client rates higher (a lower rank) is more
            # specific; a generalizer ranked for other methods ties them
            r1, r2 = g.rank_of.get(s1.media_type), g.rank_of.get(s2.media_type)
            if r1 is not None and r2 is not None:
                return (r1 > r2) - (r1 < r2)
        return super().specializer_order(s1, s2, g)


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


_negotiator = lru_cache(maxsize=64)(make_negotiator)  # by media-type tuple, so its grammar compiles once


def negotiate(header: str, media_types) -> str | None:
    """Pick the most acceptable of `media_types` for an Accept header, or
    None when nothing is acceptable."""
    gf = _negotiator(tuple(media_types))
    try:
        return gf(header)
    except NoApplicableMethod:
        return None
