"""The package's public names."""

from __future__ import annotations

import gendispatch

# public names change only on purpose: a change here is noted in CHANGES.md
PUBLIC_NAMES = {
    # submodules
    "accept", "bench", "core", "httpd", "model", "reader", "walker",
    # model and reader
    "CLASSES", "NIL", "ClassRegistry", "Cons", "DuplicateClassError", "Instance",
    "LinearizationError", "ParseError", "Request", "Symbol", "UndefinedClassError",
    "class_of", "cons_list", "eql", "format_value", "intern", "iter_list",
    "read_sexpr", "subclass_p",
    # core
    "ANY", "ClassGeneralizer", "ClassSpecializer", "DispatchError", "EffectiveMethod",
    "EqlSpecializer", "Generalizer", "GenericFunction", "Method", "MethodNotFound",
    "NoApplicableMethod", "NoPrimaryMethod", "Specializer",
    # extensions
    "ConsGeneralizer", "ConsGenericFunction", "ConsSpecializer", "Diagnostic", "Walker",
    "walk_check", "SignumGeneralizer", "SignumGenericFunction", "SignumSpecializer",
    "make_fact", "signum", "AcceptGeneralizer", "AcceptGenericFunction",
    "AcceptSpecializer", "AcceptTree", "MediaRange", "make_negotiator", "negotiate",
    "parse_accept_header", "quality",
    # server and benchmark
    "HttpParseError", "Response", "handle_raw", "make_responder", "parse_http_request",
    "respond", "BenchResult", "bench_cons", "bench_signum", "time_per_call",
}


def test_public_names_are_pinned() -> None:
    assert sorted(gendispatch.__all__) == sorted(PUBLIC_NAMES)
    assert len(gendispatch.__all__) == len(PUBLIC_NAMES)  # no name listed twice
