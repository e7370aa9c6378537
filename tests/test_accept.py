"""Accept-header parsing, quality lookup, and negotiation dispatch tests."""

from __future__ import annotations

import functools
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from gendispatch import (
    CLASSES,
    AcceptGeneralizer,
    AcceptGenericFunction,
    AcceptSpecializer,
    ClassSpecializer,
    EqlSpecializer,
    Method,
    NoApplicableMethod,
    Request,
    make_negotiator,
    negotiate,
    parse_accept_header,
    quality,
)
from gendispatch import accept
from gendispatch.accept import _FIND_RANGES, MEMO_LIMIT, AcceptTree, MediaRange, _media_ranges, _negotiator
from gendispatch.httpd import make_responder, respond
from gendispatch.model import ClassRef, class_of

from conftest import invoke_outcome, oracle_media_ranges, random_config, random_header


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
    bad_types = ("text/*", "*/*", "texthtml", "a/b/c")
    # a type or subtype that is empty, or holds a space, comma or parameter
    bad_types += ("text/", "/html", "text /html", "te,xt/html", "text/html;q=1")
    for bad in bad_types:
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
    gf = make_negotiator(["text/html", "text/plain"])
    g = gf.generalizer_of("text/html")
    assert isinstance(g, AcceptGeneralizer)
    assert g.ranks == (1, 0)  # html accepted and preferred, plain refused
    assert repr(g) == "(accept-generalizer 1 0)"
    assert g.next is CLASSES["string"]
    # interned per preference order: another spelling of the same order is
    # the same object, and that object is its own cache key
    assert gf.generalizer_of("TEXT/HTML;q=0.7 , text/plain;q=0.000") is g
    assert gf("text/html") == "text/html"
    (key,) = gf._state.cache
    assert key is g
    assert gf.generalizer_of("text/html;q=0.5, text/plain").ranks == (2, 1)

    req = Request("GET", "/", {"Accept": "text/html"})
    g_req = gf.generalizer_of(req)
    assert g_req.ranks == (1, 0)
    assert g_req.next.name == "request"
    assert g_req is not g  # same order, different class
    assert gf.generalizer_of(Request("GET", "/", {"Accept": "text/html;q=0.2"})) is g_req

    g = gf.generalizer_of(42)
    assert isinstance(g, ClassRef)


def test_generalizer_answers_for_accept_dispatch() -> None:
    gf = make_negotiator(["text/html", "application/xml"])
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
    assert gf.specializer_accepts_generalizer(html, CLASSES["integer"]) == (False, True)


def test_methods_order_by_client_preference() -> None:
    gf = make_negotiator(["text/html", "text/plain", "application/xml"])
    g = gf.generalizer_of("text/html;q=0.5, text/plain;q=0.9")
    html = AcceptSpecializer("text/html")
    plain = AcceptSpecializer("text/plain")
    assert gf.specializer_order(plain, html, g) == -1
    assert gf.specializer_order(html, plain, g) == 1
    assert gf.specializer_order(html, html, g) == 0
    assert gf("text/html;q=0.5, text/plain;q=0.9") == "text/plain"

    browserish = gf.generalizer_of("text/html,application/xml;q=0.9,*/*;q=0.8")
    assert browserish.ranks == (1, 3, 2)
    xml = AcceptSpecializer("application/xml")
    assert gf.specializer_order(html, xml, browserish) == -1
    assert gf.specializer_order(plain, xml, browserish) == 1
    # equal qualities are one rank, so the order leaves them tied
    tied = gf.generalizer_of("text/html;q=0.3, text/plain;q=0.3, application/xml")
    assert tied.ranks == (2, 2, 1)
    assert gf.specializer_order(html, plain, tied) == 0


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


def test_negotiate_reuses_one_negotiator_per_media_type_list() -> None:
    # a negotiator compiles its grammar on its first miss, so negotiate keeps
    # one per tuple of media types rather than building one per call
    types = ["text/html", "application/xml"]
    gf = _negotiator(tuple(types))
    assert negotiate("application/xml", types) == "application/xml"
    assert negotiate("text/html, application/xml;q=0.5", list(types)) == "text/html"
    assert _negotiator(tuple(types)) is gf
    assert {"application/xml", "text/html, application/xml;q=0.5"} <= {header for header, _ in gf._state.memo}


def test_negotiator_mixes_with_class_methods() -> None:
    gf = make_negotiator(["text/html"])
    gf.add_method(Method([ClassSpecializer(CLASSES["string"])], lambda a, _n: "some string"))
    assert gf("text/html") == "text/html"  # media-type method is more specific
    assert gf("application/xml") == "some string"
    assert len(gf._state.cache) == 2  # both outcomes were definitive


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


def q_spellings(thousandths: int) -> list[str]:
    """Every spelling the grammar allows for a q of thousandths/1000."""
    whole, digits = divmod(thousandths, 1000)
    digits = "%03d" % digits
    shortest = len(digits.rstrip("0"))
    spellings = ["%d.%s" % (whole, digits[:n]) for n in range(max(shortest, 1), 4)]
    if shortest == 0:
        spellings += ["%d" % whole, "%d." % whole]
    return spellings


def test_every_q_spelling_parses_to_the_exact_decimal() -> None:
    assert q_spellings(500) == ["0.5", "0.50", "0.500"]
    assert q_spellings(1000) == ["1.0", "1.00", "1.000", "1", "1."]
    for thousandths in range(1001):
        for text in q_spellings(thousandths):
            (r,) = parse_accept_header("text/html;q=" + text).ranges
            assert r.q == Fraction(text) == Fraction(thousandths, 1000)
            assert type(r.q) is Fraction
    (r,) = parse_accept_header("text/html; Q = 0.٥").ranges  # \d admits other digits
    assert r.q == Fraction("0.٥")
    for bad in ("1.5", "0.8888", "abc", "1.001", "1.0000", ".5", "00.5", "2", "-0", "+0.5", "0.5x", ""):
        assert ranges("text/html;q=" + bad) == [], bad


MEDIA_SPELLINGS = {
    "text/html": ["text/html", "TEXT/HTML", "Text/Html"],
    "application/xml": ["application/xml", "Application/XML"],
    "text/plain": ["text/plain", "TEXT/plain"],
    "text/*": ["text/*", "TEXT/*"],
    "*/*": ["*/*"],
    "image/png": ["image/png"],
}


def random_spelling(rng: random.Random) -> str:
    """A random Accept header: varied ranges, q values and their spellings,
    whitespace, case and extension parameters."""
    elements = []
    for _ in range(rng.randint(1, 5)):
        element = rng.choice(MEDIA_SPELLINGS[rng.choice(list(MEDIA_SPELLINGS))])
        if rng.random() < 0.3:
            element += ";level=%d" % rng.randint(1, 3)
        if rng.random() < 0.8:
            q = rng.choice(q_spellings(rng.choice([0, 0, 100, 250, 500, 800, 900, 1000, rng.randint(0, 1000)])))
            element += rng.choice([";q=", "; q=", ";Q = "]) + q
        if rng.random() < 0.2:
            element += ";ext=%d" % rng.randint(0, 9)
        elements.append(element)
    return rng.choice([",", ", ", " ,  "]).join(elements)


def preference_order(header: str) -> tuple:
    """Reference for the order a header puts on the responder's media types:
    each type's q, replaced by its place among the distinct positive qs."""
    tree = parse_accept_header(header)
    qs = [quality(media_type, tree) for media_type in ("text/html", "application/xml", "text/plain")]
    positive = sorted({q for q in qs if q}, reverse=True)
    return tuple(positive.index(q) + 1 if q else 0 for q in qs)


def test_header_spellings_share_cache_entries_within_bounds() -> None:
    rng = random.Random(5)
    headers = set()
    while len(headers) < 4000:
        headers.add(random_spelling(rng))
    cached = make_responder()
    uncached = AcceptGenericFunction("respond", 1, cache="none")
    for method in cached.methods:
        uncached.add_method(method)
    orders = set()
    for header in sorted(headers):
        arg = Request("GET", "/", {"Accept": header}) if rng.random() < 0.5 else header
        assert respond(cached, arg) == respond(uncached, arg)
        assert len(cached._state.memo) <= MEMO_LIMIT
        orders.add((type(arg), preference_order(header)))
    assert len(headers) > MEMO_LIMIT  # the memo started afresh at least once
    assert 0 < len(cached._state.cache) <= len(orders) < len(headers) // 50
    # a repeated header is answered from the memo without parsing
    header = next(iter(headers))
    g = cached.generalizer_of(header)
    assert cached._state.memo[header, g.next] is g


def test_interned_preference_orders_stay_within_bounds(monkeypatch) -> None:
    limit = 16
    monkeypatch.setattr(accept, "MEMO_LIMIT", limit)
    types = ["text/html", "text/plain", "application/json", "application/xml", "image/png", "image/gif"]
    cached, uncached = make_negotiator(types), make_negotiator(types, cache="none")
    rng = random.Random(28)
    orders = set()
    for _ in range(400):
        header = ", ".join("%s;q=0.%d" % (t, rng.randint(0, 9)) for t in rng.sample(types, rng.randint(1, 6)))
        arg = Request("GET", "/", {"Accept": header}) if rng.random() < 0.5 else header
        assert invoke_outcome(cached, (arg,)) == invoke_outcome(uncached, (arg,))
        assert len(cached._state.generalizers) <= limit
        orders.add(cached.generalizer_of(arg).ranks)
    assert len(orders) > 4 * limit  # the table started afresh several times


class WrappedNegotiator(AcceptGenericFunction):
    """Accept's rule behind a wrapper, so its discriminating function calls it."""

    generalizer_of = functools.wraps(AcceptGenericFunction.generalizer_of)(
        lambda self, arg, position=0: AcceptGenericFunction.generalizer_of(self, arg, position))


class SubclassedHeader(str):
    pass


def dispatched_generalizer(gf, arg):
    """The outcome of dispatching `arg` from an empty cache, and the one key
    the discriminating function stored: the generalizer it computed."""
    gf._state.cache.clear()
    outcome = invoke_outcome(gf, (arg,))
    (g,) = gf._state.cache
    return outcome, g


AGREEMENT_Q_HEADERS = {
    "text/html;q=1, application/xml;q=1., text/plain;q=1.000": (1, 1, 1),
    "text/html;q=0.5, application/xml;q=0.50, text/plain;q=0.500": (1, 1, 1),
    "text/html;q=0, application/xml;q=0.000, text/plain;q=0.": (0, 0, 0),
    "text/html;q=1., application/xml;q=0.50, text/plain;q=0.": (1, 2, 0),
    "text/html;q=0.500, application/xml;q=0.000, text/plain;q=1": (2, 0, 1),
    "text/html;q=0.\u0665, text/plain": (2, 0, 1),  # an Arabic-Indic five ranks as q=0.5
    "text/html;q=0.\u0665, application/xml;q=0.5": (1, 1, 0),
}


def test_the_compiled_rule_and_the_called_rule_intern_the_same_generalizers() -> None:
    # the discriminating function inlines Accept's rule; a wrapped copy of
    # the rule is called instead, and both must key the cache alike
    media_types = ["text/html", "application/xml", "text/plain"]
    compiled, called = make_negotiator(media_types), WrappedNegotiator("negotiate", 1)
    for method in compiled.methods:
        called.add_method(method)
    assert "generalizer_of" not in compiled.discriminating_function.__code__.co_names
    assert "generalizer_of" in called.discriminating_function.__code__.co_names
    weights = len(accept._WEIGHTS)
    rng = random.Random(33)
    cases = [(header, preference_order(header)) for header in (random_spelling(rng) for _ in range(300))]
    cases += list(AGREEMENT_Q_HEADERS.items())
    cases += [(Request("GET", "/"), (1, 1, 1)), (Request("GET", "/", {"Accept": ""}), (0, 0, 0)), (42, None)]
    for header, ranks in cases:
        arg_kinds = [header] if not isinstance(header, str) else [
            header, Request("GET", "/", {"Accept": header}), SubclassedHeader(header)]
        for arg in arg_kinds:
            outcome, g = dispatched_generalizer(compiled, arg)
            other_outcome, other = dispatched_generalizer(called, arg)
            assert outcome == other_outcome, arg
            assert g is compiled.generalizer_of(arg) and other is called.generalizer_of(arg)
            if ranks is None:  # not a header: its class
                assert g is other is CLASSES["integer"]
                continue
            expected = (AcceptGeneralizer, ranks, class_of(arg))
            assert (type(g), g.ranks, g.next) == (type(other), other.ranks, other.next) == expected, arg
            for gf, interned in ((compiled, g), (called, other)):
                assert gf._state.generalizers[interned.ranks, interned.next] is interned
    assert len(accept._WEIGHTS) == weights == 1118  # each ASCII q spelling and ""; other digits are not stored


def test_add_method_reranks_a_known_header() -> None:
    for arg in ("text/html;q=0.5, image/png", Request("GET", "/", {"Accept": "text/html;q=0.5, image/png"})):
        gf = make_negotiator(["text/html"])
        assert gf(arg) == "text/html"
        assert gf.generalizer_of(arg).ranks == (1,)
        png = gf.add_method(Method([AcceptSpecializer("image/png")], lambda args, _next: "image/png"))
        assert gf(arg) == "image/png"
        assert gf.generalizer_of(arg).ranks == (2, 1)
        gf.remove_method(png)
        assert gf(arg) == "text/html"
        assert gf.generalizer_of(arg).ranks == (1,)


@pytest.mark.parametrize("change", ["add", "remove"])
def test_a_negotiation_that_straddles_a_method_change_answers_for_one_method_set(change) -> None:
    entered, release = threading.Event(), threading.Event()

    class StallingHeader(str):
        stall = True

        def lower(self):
            # ranking has read the function's tables: block once, while the methods change
            if StallingHeader.stall:
                StallingHeader.stall = False
                entered.set()
                release.wait(5)
            return super().lower()

    header = "text/html;q=0.5, text/plain;q=0.8, application/json"
    old_types = ["text/html", "text/plain"]
    new_types = old_types + ["application/json"] if change == "add" else ["text/html"]
    gf = make_negotiator(old_types)
    outcomes = []

    def call():
        try:
            outcomes.append(invoke_outcome(gf, (StallingHeader(header),)))
        except Exception as exc:  # reported by the assertion below
            outcomes.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    assert entered.wait(5)
    if change == "add":
        gf.add_method(Method([AcceptSpecializer("application/json")], lambda args, _next: "application/json"))
    else:
        gf.remove_method(gf.methods[1])
    release.set()
    caller.join(5)
    assert not caller.is_alive()
    answers = {invoke_outcome(make_negotiator(types, cache="none"), (header,)) for types in (old_types, new_types)}
    assert outcomes[0] in answers | {"no-applicable-method"}, outcomes
    assert invoke_outcome(gf, (header,)) == invoke_outcome(make_negotiator(new_types, cache="none"), (header,))
    state = gf._state
    assert all(len(g.ranks) == len(state.media_index) for g in state.generalizers.values())


def test_accept_cache_modes_agree_on_random_configurations() -> None:
    # random accept methods mixed with class and eql methods
    rng = random.Random(77)
    for _ in range(150):
        seed = rng.getrandbits(32)
        outcomes = []
        for mode in ("auto", "list", "none"):
            gf, arglists = random_config(random.Random(seed), cache=mode, calls=12, kind="accept")
            outcomes.append([invoke_outcome(gf, args) for args in arglists])
        assert outcomes[0] == outcomes[1] == outcomes[2]


class CountingNegotiator(AcceptGenericFunction):
    """Counts the selection work done on cache misses."""

    accepts_calls = 0

    def specializer_accepts_generalizer(self, s, g):
        self.accepts_calls += 1
        return super().specializer_accepts_generalizer(s, g)


def test_all_refused_order_is_cached_and_raises_for_each_spelling() -> None:
    gf = CountingNegotiator("negotiate", 1)
    reference = make_negotiator(["text/html", "application/xml"], cache="none")
    for media_type in ("text/html", "application/xml"):
        gf.add_method(Method([AcceptSpecializer(media_type)], lambda args, _next: "chosen"))
    first = "text/html;q=0, application/xml;q=0"
    again = "Application/XML ; q=0.000,text/html;q=0.0, image/png"
    for header in (first, again):
        with pytest.raises(NoApplicableMethod) as cached:
            gf(header)
        with pytest.raises(NoApplicableMethod) as uncached:
            reference(header)
        # the message is built from the actual argument, not the first spelling
        assert type(cached.value) is type(uncached.value)
        assert str(cached.value) == str(uncached.value)
        assert header in str(cached.value)
        if header is first:
            assert gf.accepts_calls > 0
            gf.accepts_calls = 0
    assert gf.accepts_calls == 0  # the second spelling hit the cached outcome
    assert len(gf._state.cache) == 1


@pytest.mark.parametrize(
    "header", ["", ",", "," * 5, ",text/html", "text/html,", "text/html,,,text/plain", " ,", "\t, ,", "text/html, ,text/plain"]
)
def test_empty_elements_yield_nothing(header) -> None:
    # an empty or blank element is not one more match of empty groups, so a
    # header of commas and blanks costs findall no tuple per comma
    gf = make_negotiator(["text/html", "text/plain"])
    for find in (_FIND_RANGES, gf._state.compile_find()):
        assert all(t for t, _, _ in find(header)), header


# every character str.strip removes, and some it keeps that look blank
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
NOT_WHITESPACE = ["\u200b", "\ufeff", "\u180e"]


def assert_parses_like_the_oracle(header: str) -> None:
    expected = oracle_media_ranges(header)
    assert ranges(header) == expected, header
    assert all(type(r.q) is Fraction for r in parse_accept_header(header).ranges)
    assert _media_ranges(header) == [(t, s, int(q * 1000)) for t, s, q in expected], header


EDGE_CASES = [
    "*/html", "*/*", "* / *", "*/ *x", "**/html", "*x/html", "a/b/c", " text / html ", "text/",
    "/html", "texthtml", "te xt/html", "text/ht ml", "TEXT/HTML", "Text/*;Q=0.5",
    "text/html;q=0.5;q=0.1", "text/html;level=1;q=0.5", "text/html;q=0.5;level=1",
    "text/html;q=0.5;garbage=;;=", "text/html;level=1;q=abc", "text/html;q=0.5=1",
    "text/html;q", "text/html;q;level=1", "text/html; q x=1", "text/html;qx=1",
    "text/html;q=", "text/html;q=1.0001", "text/html;q=.5", "text/html; Q = 0.\u0665",
    "text/html;q=0.\u0665\u0665\u0665", "text/html;q=1.\u0660", "text/\u212a", "\u212a/html",
    "text/\u0130", "\u0130mage/png", "text/html;\u212a=1;q=0.2", "text/html;q=0.2;\u0130",
    ",,text/html,,", ",", ",,", ",text/html", "text/html,", "text/html,,text/plain", " , ,",
    "text/html;", "text/html ;", "text/html\n;q=0.5\n", "text/html;q=0.5\n",
    'text/html;x="a,b";q=0.5', "text/html;x=\"a;q=0.1\";q=0.5", "",
]


@pytest.mark.parametrize("header", EDGE_CASES)
def test_one_pass_parser_agrees_with_the_oracle_on_edge_cases(header) -> None:
    assert_parses_like_the_oracle(header)


# each blank between every token of one element, and around a later element
BLANK_HEADERS = [
    header
    for c in WHITESPACE + NOT_WHITESPACE
    for header in (
        c + "text" + c + "/" + c + "html" + c + ";" + c + "q" + c + "=" + c + "0.5" + c,
        "text/html;q=0.5" + c + ";level=1," + c + "*/*" + c,
    )
]


def test_one_pass_parser_agrees_with_the_oracle_on_every_blank() -> None:
    for header in BLANK_HEADERS:
        assert_parses_like_the_oracle(header)


FUZZ_TYPES = ["text", "text", "application", "image", "*", "*", "**", "te xt", "", "a/b", 'x"y', "\u212aind", "\u0130mage"]
FUZZ_SUBTYPES = ["html", "html", "plain", "xhtml+xml", "*", "*", "*x", "", "ht ml", "b/c", "\u212a", "\u0130", "\u0665"]
FUZZ_PARAMS = [
    "q=0.5", "q=1", "q=1.000", "q=0", "q=0.", "q=0.25", "q=0.\u0665", "q=1.001", "q=0.8888", "q=", "q",
    "q=abc", "q=.5", "q=0.5=1", "q=-0", "level=1", "v=b3", "", "=", "qx=1", "q x=1", 'x="a', "\u212a=1",
]


def fuzz_case(rng: random.Random, text: str) -> str:
    return "".join(c.upper() if rng.random() < 0.3 else c for c in text)


def fuzz_blank(rng: random.Random) -> str:
    if rng.random() < 0.6:
        return ""
    return "".join(rng.choice(WHITESPACE + NOT_WHITESPACE) for _ in range(rng.randint(1, 2)))


def fuzz_element(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return ""
    parts = [rng.choice(FUZZ_TYPES), "/", rng.choice(FUZZ_SUBTYPES)]
    if rng.random() < 0.05:
        parts = [rng.choice(FUZZ_TYPES)]  # no slash at all
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        name, eq, value = rng.choice(FUZZ_PARAMS).partition("=")
        parts += [";", fuzz_blank(rng), name, fuzz_blank(rng), eq, fuzz_blank(rng), value]
    return "".join(fuzz_blank(rng) + fuzz_case(rng, part) for part in parts) + fuzz_blank(rng)


def fuzz_header(rng: random.Random) -> str:
    return ",".join(fuzz_element(rng) for _ in range(rng.randint(0, 4)))


def test_one_pass_parser_agrees_with_the_oracle_on_fuzzed_headers() -> None:
    rng = random.Random(2024)
    parsed = qs = 0
    for _ in range(4000):
        header = fuzz_header(rng)
        assert_parses_like_the_oracle(header)
        expected = oracle_media_ranges(header)
        parsed += len(expected)
        qs += sum(q not in (0, 1) for _, _, q in expected)
    # the fuzz reaches both outcomes, and q values other than 0 and 1
    assert parsed > 1000 and qs > 80


FAMILIES = ["text/html", "text/plain", "text/csv", "application/xml", "application/json", "image/png", "video/mp4"]
RANGES = FAMILIES + ["text/*", "application/*", "image/*", "*/*", "audio/ogg", "audio/*"]


def oracle_ranks(header: str, media_types) -> tuple:
    """Dense ranks from quality() over the oracle's parse: 0 for a refused
    type, else 1 + the number of distinct higher qualities."""
    tree = AcceptTree(tuple(MediaRange(*r) for r in oracle_media_ranges(header)))
    qs = [quality(media_type, tree) or 0 for media_type in media_types]
    positive = sorted({q for q in qs if q}, reverse=True)
    return tuple(positive.index(q) + 1 if q else 0 for q in qs)


def test_match_table_ranks_equal_dense_ranks_from_quality() -> None:
    rng = random.Random(8)
    for _ in range(200):
        media_types = rng.sample(FAMILIES, rng.randint(1, 5))
        gf = make_negotiator(media_types)
        extra = rng.choice([t for t in FAMILIES if t not in media_types] or [None])
        headers = []
        for _ in range(8):
            elements = []
            for _ in range(rng.randint(0, 6)):
                element = fuzz_case(rng, rng.choice(RANGES))
                if rng.random() < 0.8:
                    element += ";q=%s" % rng.choice(["0", "0.3", "0.5", "0.50", "0.8", "1", "0.%03d" % rng.randint(0, 999)])
                elements.append(element)
            headers.append(", ".join(elements))
        for header in headers + headers:  # the second pass answers from the memo
            assert gf.generalizer_of(header).ranks == oracle_ranks(header, media_types), header
        for header in headers:  # the specializer alone agrees on acceptance
            for media_type, rank in zip(FAMILIES, oracle_ranks(header, FAMILIES)):
                assert AcceptSpecializer(media_type).accepts(header) == (rank > 0), (media_type, header)
        if extra is not None:
            # adding a method rebuilds the table: the same headers rank the new type too
            gf.add_method(Method([AcceptSpecializer(extra)], lambda args, _next: extra))
            for header in headers:
                assert gf.generalizer_of(header).ranks == oracle_ranks(header, media_types + [extra]), header


# media types whose names hold regex metacharacters, and kind/x and kind/k,
# which the Kelvin sign (U+212A) spells too: it lower-cases to an ASCII k
GRAMMAR_MEDIA_TYPES = [
    ["text/html", "application/xml", "text/plain"],
    ["application/xhtml+xml", "application/vnd.api+json", "text/x-c++", "text/html"],
    ["kind/x", "kind/k", "image/png"],
    ["text/x-c++", "text/x-c"],
]
GRAMMAR_HEADERS = [
    "\u212aind/x", "\u212aIND/X;q=0.5, kind/k;q=0.7", "text/\u212a, \u212aind/*;q=0.3", "kind/x;q=0.2, \u212aind/\u212a",
    "application/xhtml+xml;q=0.9, application/vnd.api+json", "application/xhtmlxxml, application/vnd.apixjson",
    "text/x-c++;q=0.4, text/x-c;q=0.6", "text/x-cxx, text/x-c+, text/*;q=0.1", "TEXT/X-C++ ; Q = 0.5 , */*;q=0.01",
]


def assert_ranks_match_the_oracle(gf, media_types, headers) -> None:
    for header in headers:
        assert gf.generalizer_of(header).ranks == oracle_ranks(header, media_types), (media_types, header)


def test_per_function_grammar_ranks_agree_with_the_oracle() -> None:
    # each function parses only its own types and subtypes; what it skips
    # must never change a rank, before or after its methods change
    rng = random.Random(1403)
    headers = [fuzz_header(rng) for _ in range(3000)] + EDGE_CASES + BLANK_HEADERS + GRAMMAR_HEADERS
    for media_types in GRAMMAR_MEDIA_TYPES:
        gf = make_negotiator(media_types)
        assert_ranks_match_the_oracle(gf, media_types, headers)
        extra = next(t for t in ("text/x-c++", "kind/x") if t not in media_types)
        method = gf.add_method(Method([AcceptSpecializer(extra)], lambda args, _next: extra))
        assert_ranks_match_the_oracle(gf, media_types + [extra], headers)
        gf.remove_method(method)
        assert_ranks_match_the_oracle(gf, media_types, headers)
    # a function with only class methods ranks nothing
    gf = AcceptGenericFunction("f", 1)
    gf.add_method(Method([ClassSpecializer(CLASSES["string"])], lambda args, _next: "string"))
    assert_ranks_match_the_oracle(gf, [], headers[:200] + GRAMMAR_HEADERS)


# 64 KiB each: runs of spaces, commas, semicolons, ;q then blanks, one long
# parameter, and repeated valid elements
HOSTILE_HEADERS = [
    " " * 65536,
    "text" + " " * 65527 + "/html",
    "," * 65536,
    ("text/html" + ";" * 65536)[:65536],
    ("text/html;q" + " " * 65536)[:65536],
    ("text/html;level=" + "a" * 65536)[:65536],
    ("text/html;q=0.5, " * 4096)[:65536],
]


@pytest.mark.parametrize("header", HOSTILE_HEADERS, ids=["spaces", "spaced-range", "commas", "semicolons", "q-blanks", "long-parameter", "repeated"])
def test_hostile_headers_parse_in_linear_time(header) -> None:
    # each takes milliseconds; backtracking that grew with the length would
    # take far longer than the generous bound
    gf = make_negotiator(["text/html", "application/xml", "text/plain"])
    for parse in (gf.generalizer_of, parse_accept_header):
        start = time.perf_counter()
        parse(header)
        assert time.perf_counter() - start < 0.5
