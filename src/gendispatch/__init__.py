"""Generic functions with user-extensible dispatch.

The core protocol lives in `core`; `model` supplies the value universe and
class graph; `walker`, `signum`, and `accept` are the bundled dispatch
extensions; `httpd`, `bench`, and `cli` build on them.

Importing the package loads only `model`, `reader`, `core` and `signum`.  The
names from `walker`, `accept`, `httpd` and `bench`, and those submodules
themselves, are loaded on first access (PEP 562), so a process that only
dispatches does not pay for the walker, the HTTP layer or the benchmark.
"""

from importlib import import_module

from .model import (
    CLASSES, NIL, ClassRegistry, Cons, DuplicateClassError, Instance, LinearizationError, Request,
    Symbol, UndefinedClassError, class_of, cons_list, eql, format_value, intern, iter_list,
    subclass_p,
)
from .reader import ParseError, read_sexpr
from .core import (
    ANY, ClassSpecializer, DispatchError, EffectiveMethod, EqlSpecializer, Generalizer,
    GenericFunction, Method, MethodNotFound, NoApplicableMethod, NoPrimaryMethod, Specializer,
)

# the package attribute `signum` is the function, so this import stays eager:
# a lazy one would leave the submodule bound to that name
from .signum import SignumGeneralizer, SignumGenericFunction, SignumSpecializer, make_fact, signum

_LAZY = {
    "walker": ["ConsGeneralizer", "ConsGenericFunction", "ConsSpecializer", "Diagnostic", "Walker",
               "walk_check"],
    "accept": ["AcceptGeneralizer", "AcceptGenericFunction", "AcceptSpecializer", "AcceptTree",
               "MediaRange", "make_negotiator", "negotiate", "parse_accept_header", "quality"],
    "httpd": ["HttpParseError", "Response", "handle_raw", "make_responder", "parse_http_request",
              "respond"],
    "bench": ["BenchResult", "bench_cons", "bench_signum", "time_per_call"],
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    # submodules
    "accept", "bench", "core", "httpd", "model", "reader", "walker",
    # model and reader
    "CLASSES", "NIL", "ClassRegistry", "Cons", "DuplicateClassError", "Instance",
    "LinearizationError", "ParseError", "Request", "Symbol", "UndefinedClassError",
    "class_of", "cons_list", "eql", "format_value", "intern", "iter_list", "read_sexpr",
    "subclass_p",
    # core
    "ANY", "ClassSpecializer", "DispatchError", "EffectiveMethod", "EqlSpecializer",
    "Generalizer", "GenericFunction", "Method", "MethodNotFound", "NoApplicableMethod",
    "NoPrimaryMethod", "Specializer",
    # signum
    "SignumGeneralizer", "SignumGenericFunction", "SignumSpecializer", "make_fact", "signum",
    # loaded on first access
    *_LAZY_SOURCE,
]


def __getattr__(name):
    if name in _LAZY:
        return import_module("." + name, __name__)  # binds the package attribute too
    if name not in _LAZY_SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _LAZY_SOURCE[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
