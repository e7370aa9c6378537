"""Accept-header parsing, quality lookup, and negotiation dispatch tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gendispatch import (
    CLASSES,
    AcceptGeneralizer,
    AcceptGenericFunction,
    AcceptSpecializer,
    ClassGeneralizer,
    ClassSpecializer,
    EqlSpecializer,
    Method,
    Request,
    make_negotiator,
    negotiate,
    parse_accept_header,
    quality,
)

from conftest import random_header


def ranges(header: str):
    return [(r.type, r.subtype, r.q) for r in parse_accept_header(header).ranges]


def test_parse_simple_header() -> None:
    assert ranges("text/html") == [("text", "html", Fraction(1))]
    assert ranges("text/html;q=0.8") == [("text", "html", Fraction(4, 5))]
    assert ranges("text/*;q=0.5, */*;q=0.1") == [
        ("text", "*", Fraction(1, 2)),
        ("*", "*", Fraction(1, 10)),
    ]


def test_parse_folds_case_and_ignores_other_parameters() -> None:
    assert ranges("TEXT/HTML") == [("text", "html", Fraction(1))]
    assert ranges("text/html;level=1;q=0.5") == [("text", "html", Fraction(1, 2))]
    # q terminates the media range; later parameters are accept extensions
    assert ranges("text/html;q=0.5;version=9") == [("text", "html", Fraction(1, 2))]


def test_quality_values_are_exact_decimals() -> None:
    (r,) = parse_accept_header("text/html;q=0.1").ranges
    assert r.q == Fraction(1, 10)  # not the float 0.1
    (r,) = parse_accept_header("text/html;q=0.125").ranges
    assert r.q == Fraction(1, 8)


def test_malformed_elements_are_dropped_not_fatal() -> None:
    assert ranges("texthtml") == []
    assert ranges("*/html") == []
    assert ranges("text/html;q=1.5") == []
    assert ranges("text/html;q=0.8888") == []
    assert ranges("text/html;q=abc") == []
    assert ranges("te xt/html") == []
    assert ranges("bogus, text/plain") == [("text", "plain", Fraction(1))]
    assert ranges("") == []
    assert ranges(",,,") == []


def test_quality_prefers_the_most_specific_range() -> None:
    tree = parse_accept_header("text/*;q=0.3, text/html;q=0.7, */*;q=0.1")
    assert quality("text/html", tree) == Fraction(7, 10)
    assert quality("text/plain", tree) == Fraction(3, 10)
    assert quality("image/png", tree) == Fraction(1, 10)
    tree = parse_accept_header("text/html")
    assert quality("image/png", tree) is None


def test_quality_ties_go_to_the_first_occurrence() -> None:
    tree = parse_accept_header("text/html;q=0.8, text/html;q=0.2")
    assert quality("text/html", tree) == Fraction(4, 5)


def test_accept_specializer_requires_a_concrete_media_type() -> None:
    AcceptSpecializer("text/html")
    for bad in ("text/*", "*/*", "texthtml", "a/b/c"):
        with pytest.raises(ValueError):
            AcceptSpecializer(bad)


def test_accept_specializer_accepts_headers_and_requests() -> None:
    s = AcceptSpecializer("text/html")
    assert s.accepts("text/html")
    assert s.accepts("text/*")
    assert s.accepts(Request("GET", "/", {"Accept": "text/html;q=0.2"}))
    assert s.accepts(Request("GET", "/"))  # missing header means */*
    assert not s.accepts("application/xml")
    assert not s.accepts(42)
    # a zero quality is an explicit refusal
    assert not s.accepts("text/html;q=0")
    assert not s.accepts("*/*;q=0")


def test_accept_specializers_compare_case_folded() -> None:
    assert AcceptSpecializer("Text/HTML") == AcceptSpecializer("text/html")


def test_accept_generalizer_wraps_the_class_generalizer() -> None:
    gf = AcceptGenericFunction("f", 1)
    g = gf.generalizer_of("text/html")
    assert isinstance(g, AcceptGeneralizer)
    assert g.header == "text/html"
    assert g.next is ClassGeneralizer(CLASSES["string"])
    # keyed by the header text, so the cache does not hold the generalizer
    assert gf.generalizer_hash_key(g) == "text/html"
    assert gf.generalizer_hash_key(gf.generalizer_of("text/html")) == "text/html"

    req = Request("GET", "/", {"Accept": "text/plain"})
    g = gf.generalizer_of(req)
    assert g.header == "text/plain"
    assert g.next.cls.name == "request"

    g = gf.generalizer_of(42)
    assert isinstance(g, ClassGeneralizer)


def test_generalizer_answers_for_accept_dispatch() -> None:
    gf = AcceptGenericFunction("f", 1)
    g = gf.generalizer_of("text/html;q=0.5, application/xml;q=0")
    html = AcceptSpecializer("text/html")
    xml = AcceptSpecializer("application/xml")
    assert gf.specializer_accepts_generalizer(html, g) == (True, True)
    assert gf.specializer_accepts_generalizer(xml, g) == (False, True)
    # class methods see the plain string argument through g.next
    strings = ClassSpecializer(CLASSES["string"])
    assert gf.specializer_accepts_generalizer(strings, g) == (True, True)
    # the class alone cannot resolve an eql specializer on some string
    assert gf.specializer_accepts_generalizer(EqlSpecializer("x"), g) == (False, False)
    # media-type methods never match arguments without a header
    assert gf.specializer_accepts_generalizer(html, ClassGeneralizer(CLASSES["integer"])) == (False, True)


def test_methods_order_by_client_preference() -> None:
    gf = make_negotiator(["text/html", "text/plain"])
    g = gf.generalizer_of("text/html;q=0.5, text/plain;q=0.9")
    html = AcceptSpecializer("text/html")
    plain = AcceptSpecializer("text/plain")
    assert gf.specializer_order(plain, html, g) == -1
    assert gf.specializer_order(html, plain, g) == 1
    assert gf.specializer_order(html, html, g) == 0
    assert gf("text/html;q=0.5, text/plain;q=0.9") == "text/plain"

    browserish = gf.generalizer_of("text/html,application/xml;q=0.9,*/*;q=0.8")
    xml = AcceptSpecializer("application/xml")
    assert gf.specializer_order(html, xml, browserish) == -1


def test_negotiate_examples() -> None:
    types = ["text/html", "application/xml", "text/plain"]
    assert negotiate("text/html", types) == "text/html"
    assert negotiate("application/xml;q=0.9", types) == "application/xml"
    assert negotiate("text/html;q=0.8, text/plain", types) == "text/plain"
    assert negotiate("image/png", types) is None
    assert negotiate("text/html;q=0", ["text/html"]) is None
    assert negotiate("", types) is None


def test_wildcard_ties_fall_back_to_definition_order() -> None:
    assert negotiate("*/*", ["text/html", "text/plain"]) == "text/html"
    assert negotiate("*/*", ["text/plain", "text/html"]) == "text/plain"


def test_negotiator_mixes_with_class_methods() -> None:
    gf = make_negotiator(["text/html"])
    gf.add_method(Method([ClassSpecializer(CLASSES["string"])], lambda a, _n: "some string"))
    assert gf("text/html") == "text/html"  # media-type method is more specific
    assert gf("application/xml") == "some string"
    assert len(gf._cache) == 2  # both outcomes were definitive


def test_negotiated_choice_has_maximal_quality() -> None:
    rng = random.Random(99)
    types = ["text/html", "application/xml", "text/plain", "image/png"]
    for _ in range(100):
        header = random_header(rng)
        tree = parse_accept_header(header)
        chosen = negotiate(header, types)
        qualities = {t: quality(t, tree) for t in types}
        acceptable = {t: q for t, q in qualities.items() if q is not None and q > 0}
        if chosen is None:
            assert acceptable == {}
        else:
            assert chosen in acceptable
            assert all(acceptable[chosen] >= q for q in acceptable.values())


def test_parsing_is_total_over_junk() -> None:
    rng = random.Random(123)
    alphabet = 'abc/;=,.*" \t01q'
    for _ in range(300):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        tree = parse_accept_header(junk)
        quality("text/html", tree)
        negotiate(junk, ["text/html", "text/plain"])


def test_request_ordering_uses_the_wrapped_class_chain() -> None:
    gf = AcceptGenericFunction("f", 1)
    req = Request("GET", "/", {"Accept": "text/html"})
    g = gf.generalizer_of(req)
    request = ClassSpecializer(CLASSES["request"])
    standard_object = ClassSpecializer(CLASSES["standard-object"])
    t = ClassSpecializer(CLASSES["t"])
    assert gf.specializer_order(request, standard_object, g) == -1
    assert gf.specializer_order(standard_object, request, g) == 1
    assert gf.specializer_order(standard_object, t, g) == -1
