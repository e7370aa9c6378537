"""Generic functions with user-extensible dispatch.

The core protocol lives in `core`; `model` supplies the value universe and
class graph; `walker`, `signum`, and `accept` are the bundled dispatch
extensions; `httpd`, `bench`, and `cli` build on them.
"""

from .model import (
    CLASSES,
    NIL,
    ClassRegistry,
    Cons,
    DuplicateClassError,
    Instance,
    LinearizationError,
    Request,
    Symbol,
    UndefinedClassError,
    class_of,
    cons_list,
    eql,
    format_value,
    intern,
    iter_list,
    subclass_p,
)
from .reader import ParseError, read_sexpr
from .core import (
    ANY,
    ClassGeneralizer,
    ClassSpecializer,
    DispatchError,
    EffectiveMethod,
    EqlSpecializer,
    Generalizer,
    GenericFunction,
    Method,
    MethodNotFound,
    NoApplicableMethod,
    NoPrimaryMethod,
    Specializer,
)
from .walker import (
    ConsGeneralizer,
    ConsGenericFunction,
    ConsSpecializer,
    Diagnostic,
    Walker,
    walk_check,
)
from .signum import (
    SignumGeneralizer,
    SignumGenericFunction,
    SignumSpecializer,
    make_fact,
    signum,
)
from .accept import (
    AcceptGeneralizer,
    AcceptGenericFunction,
    AcceptSpecializer,
    AcceptTree,
    MediaRange,
    make_negotiator,
    negotiate,
    parse_accept_header,
    quality,
)
from .httpd import (
    HttpParseError,
    Response,
    handle_raw,
    make_responder,
    parse_http_request,
    respond,
)
from .bench import BenchResult, bench_cons, bench_signum, time_per_call

__all__ = [name for name in dir() if not name.startswith("_")]
