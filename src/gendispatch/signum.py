"""Dispatch on the sign of a number, and the three-method factorial that
motivates it: one method for sign 0, one for sign 1.
"""

from __future__ import annotations

from .model import class_of
from .core import Generalizer, GenericFunction, Method, Specializer


def signum(x):
    """Sign of a real number, preserving its numeric kind."""
    cls = x.__class__
    if cls is int:
        return 1 if x > 0 else (-1 if x < 0 else 0)
    if cls is float:
        # NaN has no sign: it comes back as itself, equal to no signum value
        return 1.0 if x > 0 else (-1.0 if x < 0 else x)
    raise TypeError("signum of a non-real: %r" % (x,))


def _is_real(x) -> bool:
    cls = x.__class__
    return cls is int or cls is float


class SignumSpecializer(Specializer):
    """Accepts reals whose signum equals the stored one under numeric =."""

    def __init__(self, value):
        if not _is_real(value) or signum(value) != value:
            raise ValueError("not a signum value: %r" % (value,))
        self.value = value

    def accepts(self, obj) -> bool:
        return _is_real(obj) and signum(obj) == self.value

    def __eq__(self, other):
        # numeric comparison: (signum 1) and (signum 1.0) are one specializer
        return isinstance(other, SignumSpecializer) and self.value == other.value

    def __repr__(self):
        return "(signum %s)" % (self.value,)


class SignumGeneralizer(Generalizer):
    """Carries the type-preserving signum of the argument, so integer and
    float arguments of equal sign share methods but not cache entries.
    Dispatch uses the six instances below; `next` is integer or float."""

    __slots__ = ("value", "next")

    def __init__(self, value):
        self.value = value
        self.next = class_of(value)

    def __repr__(self):
        return "(signum-generalizer %s)" % (self.value,)


_PLUS, _ZERO, _MINUS = (SignumGeneralizer(v) for v in (1, 0, -1))
_PLUS_F, _ZERO_F, _MINUS_F = (SignumGeneralizer(v) for v in (1.0, 0.0, -1.0))


class SignumGenericFunction(GenericFunction):
    kind = "signum"

    # an int or a float by its sign, and NaN or any other value by its class
    generalizer_rule = (
        "(_PLUS if arg > 0 else _MINUS if arg < 0 else _ZERO) if arg.__class__ is int"
        " else (_PLUS_F if arg > 0 else _ZERO_F if arg == 0 else _MINUS_F if arg < 0 else class_of(arg))"
        " if arg.__class__ is float else class_of(arg)")

    def specializer_accepts_generalizer(self, s, g):
        if isinstance(s, SignumSpecializer):
            # reals always generalize to a SignumGeneralizer here, so any
            # other generalizer kind excludes sign methods outright
            return (isinstance(g, SignumGeneralizer) and s.value == g.value, True)
        return super().specializer_accepts_generalizer(s, g)


def make_fact(cache: str = "auto") -> SignumGenericFunction:
    """The factorial generic function: (signum 0) => 1, (signum 1) => n*(n-1)!."""
    fact = SignumGenericFunction("fact", 1, cache=cache)
    recurse = fact.discriminating_function

    def base_case(args, _next):
        return 1

    # no local beyond the parameters, and the call first, so the frame is small
    def general_case(args, _next):
        return recurse(args[0] - 1) * args[0]

    fact.add_method(Method([SignumSpecializer(0)], base_case))
    fact.add_method(Method([SignumSpecializer(1)], general_case))
    return fact
