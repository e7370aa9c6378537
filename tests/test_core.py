"""Dispatch engine tests: applicability, ordering, combination, caching."""

from __future__ import annotations

import gc
import inspect
import itertools
import random
import sys
import threading
import weakref

import pytest

from gendispatch import (
    ANY,
    CLASSES,
    NIL,
    AcceptGenericFunction,
    AcceptSpecializer,
    ClassRegistry,
    ClassSpecializer,
    Cons,
    ConsGenericFunction,
    ConsSpecializer,
    DispatchError,
    EqlSpecializer,
    GenericFunction,
    Instance,
    Method,
    MethodNotFound,
    NoApplicableMethod,
    NoPrimaryMethod,
    Request,
    SignumGenericFunction,
    SignumSpecializer,
    Specializer,
    class_of,
    intern,
    make_fact,
    make_negotiator,
    read_sexpr,
)
from gendispatch import core
from gendispatch.core import freeze_key
from gendispatch.model import ClassRef

from conftest import combination_outcome, invoke_outcome, random_config, value_kinds


def cls_spec(name: str) -> ClassSpecializer:
    return ClassSpecializer(CLASSES[name])


def tagged(tag: str):
    def body(args, next_call):
        return tag

    return body


def chained(tag: str, log: list):
    def body(args, next_call):
        log.append(tag)
        return next_call(args) if next_call is not None else tag

    return body


def test_most_specific_class_wins() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("number")], tagged("number")))
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    gf.add_method(Method([ANY], tagged("t")))
    assert gf(3) == "integer"
    assert gf(2.5) == "number"
    assert gf("s") == "t"


def test_eql_beats_class() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    gf.add_method(Method([EqlSpecializer(5)], tagged("five")))
    assert gf(5) == "five"
    assert gf(6) == "integer"


def test_eql_is_exact_about_numeric_kind() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([EqlSpecializer(5)], tagged("five")))
    gf.add_method(Method([ANY], tagged("other")))
    assert gf(5) == "five"
    assert gf(5.0) == "other"


def test_no_applicable_method() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    with pytest.raises(NoApplicableMethod):
        gf("not a number")


def test_no_applicable_method_on_a_deeply_nested_form() -> None:
    # the error message prints the argument, nesting level by nesting level
    form = NIL
    for _ in range(100_000):
        form = Cons(form, NIL)
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    with pytest.raises(NoApplicableMethod) as err:
        gf(form)
    assert str(err.value) == "no applicable method for f on (%s)" % ("(" * 100_000 + "()" + ")" * 100_000)


def test_no_primary_method_raised_at_call_time() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([ANY], chained("before", []), qualifier="before"))
    effective = gf.compute_effective_method(gf.compute_applicable_methods((1,)))
    # building the effective method succeeds; applying it fails
    with pytest.raises(NoPrimaryMethod):
        effective((1,))
    with pytest.raises(NoPrimaryMethod):
        gf(1)


def test_standard_combination_order() -> None:
    log: list[str] = []
    gf = GenericFunction("f", 1)

    def note(tag, result=None):
        def body(args, next_call):
            log.append(tag)
            if next_call is not None:
                return next_call(args)
            return result

        return body

    gf.add_method(Method([cls_spec("number")], note("around-number"), qualifier="around"))
    gf.add_method(Method([cls_spec("integer")], note("around-integer"), qualifier="around"))
    gf.add_method(Method([cls_spec("number")], note("before-number"), qualifier="before"))
    gf.add_method(Method([cls_spec("integer")], note("before-integer"), qualifier="before"))
    gf.add_method(Method([cls_spec("number")], note("after-number"), qualifier="after"))
    gf.add_method(Method([cls_spec("integer")], note("after-integer"), qualifier="after"))
    gf.add_method(Method([cls_spec("number")], note("primary-number", "r")))
    gf.add_method(Method([cls_spec("integer")], note("primary-integer")))

    assert gf(3) == "r"
    assert log == [
        "around-integer",
        "around-number",
        "before-integer",
        "before-number",
        "primary-integer",
        "primary-number",
        "after-number",
        "after-integer",
    ]


def test_primary_chain_stops_without_next() -> None:
    log: list[str] = []
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], chained("integer", log)))
    gf.add_method(Method([cls_spec("number")], chained("number", log)))
    gf.add_method(Method([ANY], chained("t", log)))
    assert gf(1) == "t"
    assert log == ["integer", "number", "t"]

    log.clear()
    gf.add_method(Method([cls_spec("number")], tagged("stop")))  # replaces chained number
    assert gf(1) == "stop"
    assert log == ["integer"]


def test_add_method_replaces_on_same_specializers_and_qualifier() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], tagged("one")))
    gf.add_method(Method([cls_spec("integer")], tagged("two")))
    assert len(gf.methods) == 1
    assert gf(1) == "two"
    gf.add_method(Method([cls_spec("integer")], tagged("b"), qualifier="before"))
    assert len(gf.methods) == 2  # different qualifier is a different method


def test_a_replacement_keeps_the_replaced_method_s_place() -> None:
    # definition order breaks ties between methods and sets the Accept media
    # index, so a replacement must not move to the end
    class Universal(Specializer):
        def accepts(self, obj) -> bool:
            return True

    first, second = Universal(), Universal()  # distinct, and tied in any order
    gf = GenericFunction("f", 1)
    gf.add_method(Method([first], tagged("first")))
    kept = gf.add_method(Method([second], tagged("second")))
    assert gf(1) == "first"
    replacement = gf.add_method(Method([first], tagged("replacement")))
    assert gf.methods == [replacement, kept]
    assert gf(1) == "replacement"

    negotiator = make_negotiator(["text/html", "application/json"])
    negotiator.add_method(Method([AcceptSpecializer("text/html")], tagged("html again")))
    assert negotiator("*/*") == "html again"  # tied ranks: the first media type wins


def test_methods_is_a_copy() -> None:
    gf = GenericFunction("f", 1)
    kept = gf.add_method(Method([ANY], tagged("t")))
    gf.methods.append(Method([cls_spec("integer")], tagged("integer")))
    assert gf.methods == [kept]
    assert gf(1) == "t"
    gf.add_method(Method([cls_spec("float")], tagged("float")))
    assert gf(1) == "t"
    assert gf(1.5) == "float"
    with pytest.raises(AttributeError):
        gf.methods = []


def test_remove_method_is_by_identity() -> None:
    gf = GenericFunction("f", 1)
    kept = gf.add_method(Method([ANY], tagged("kept")))
    doomed = gf.add_method(Method([cls_spec("integer")], tagged("doomed")))
    assert gf(1) == "doomed"
    gf.remove_method(doomed)
    assert gf(1) == "kept"
    with pytest.raises(MethodNotFound):
        gf.remove_method(Method([ANY], tagged("kept")))  # equal shape, distinct object
    gf.remove_method(kept)
    assert gf.methods == []


def test_arity_is_checked() -> None:
    gf = GenericFunction("f", 2)
    with pytest.raises(ValueError):
        gf.add_method(Method([ANY], tagged("x")))
    gf.add_method(Method([ANY, ANY], tagged("x")))
    with pytest.raises(TypeError):
        gf(1)
    with pytest.raises(TypeError):
        gf.compute_applicable_methods((1,))
    with pytest.raises(TypeError):
        gf.compute_applicable_methods_using_generalizers([CLASSES["t"]])


def test_bad_qualifier_and_cache_mode_rejected() -> None:
    with pytest.raises(ValueError):
        Method([ANY], tagged("x"), qualifier="sometimes")
    with pytest.raises(ValueError):
        GenericFunction("f", 1, cache="maybe")


def test_eql_method_makes_class_generalizer_non_definitive() -> None:
    # a class generalizer cannot separate the one eql object from the rest
    # of its class, so the answer for that class is not definitive
    gf = GenericFunction("f", 1)
    eql5 = gf.add_method(Method([EqlSpecializer(5)], tagged("five")))
    methods, definitive = gf.compute_applicable_methods_using_generalizers([CLASSES["integer"]])
    assert methods == []
    assert definitive is False
    # but a class that can never hold the eql object is definitive
    methods, definitive = gf.compute_applicable_methods_using_generalizers([CLASSES["string"]])
    assert methods == []
    assert definitive is True
    assert gf.compute_applicable_methods((5,)) == [eql5]
    assert gf.compute_applicable_methods((6,)) == []


def test_definitiveness_ignores_method_order() -> None:
    body = tagged("x")
    eql5 = Method([EqlSpecializer(5)], body)
    on_int = Method([cls_spec("integer")], body)
    g = [CLASSES["integer"]]
    for ms in ([eql5, on_int], [on_int, eql5]):
        gf = GenericFunction("f", 1)
        for m in ms:
            gf.add_method(m)
        methods, definitive = gf.compute_applicable_methods_using_generalizers(g)
        assert methods == [on_int]
        assert definitive is False


def test_generalizer_defaults() -> None:
    gf = GenericFunction("f", 1)
    assert repr(gf) == "#<standard-generic-function f/1>"
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    g = gf.generalizer_of(3)
    assert isinstance(g, ClassRef)
    assert g is CLASSES["integer"]
    # equal arguments get their class, which is its own generalizer and key
    assert gf.generalizer_of(-7) is g
    assert g.next is g
    gf(-7)
    (key,) = gf._state.cache
    assert key is g
    assert gf.generalizer_of(3.0) is not g


def test_generalizer_table_agrees_with_class_of() -> None:
    gf = GenericFunction("f", 1)
    for v in value_kinds():
        assert gf.generalizer_of(v) is class_of(v), v


def test_accepts_generalizer_examples() -> None:
    gf = GenericFunction("f", 1)
    integer = CLASSES["integer"]
    assert gf.specializer_accepts_generalizer(cls_spec("integer"), integer) == (True, True)
    assert gf.specializer_accepts_generalizer(cls_spec("number"), integer) == (True, True)
    assert gf.specializer_accepts_generalizer(cls_spec("integer"), CLASSES["number"]) == (False, True)
    assert gf.specializer_accepts_generalizer(EqlSpecializer(5), integer) == (False, False)
    assert gf.specializer_accepts_generalizer(EqlSpecializer(5), CLASSES["string"]) == (False, True)


def test_same_specializer_comparisons() -> None:
    assert cls_spec("integer") == cls_spec("integer")
    assert cls_spec("integer") != cls_spec("number")
    assert EqlSpecializer(5) == EqlSpecializer(5)
    assert EqlSpecializer(5) != EqlSpecializer(5.0)  # eql keeps numeric kinds apart
    assert EqlSpecializer("a") == EqlSpecializer("a")
    assert cls_spec("integer") != EqlSpecializer(5)


def test_specializer_order_examples() -> None:
    gf = GenericFunction("f", 1)
    g = CLASSES["integer"]
    assert gf.specializer_order(cls_spec("integer"), cls_spec("number"), g) == -1
    assert gf.specializer_order(cls_spec("number"), cls_spec("integer"), g) == 1
    assert gf.specializer_order(cls_spec("integer"), cls_spec("integer"), g) == 0
    assert gf.specializer_order(EqlSpecializer(5), cls_spec("integer"), g) == -1
    assert gf.specializer_order(EqlSpecializer(5), EqlSpecializer(5), g) == 0


def test_specializer_order_is_antisymmetric_and_transitive() -> None:
    gf = GenericFunction("f", 1)
    g = CLASSES["integer"]
    pool = [
        EqlSpecializer(5),
        cls_spec("integer"),
        cls_spec("real"),
        cls_spec("number"),
        cls_spec("t"),
    ]
    for a, b in itertools.product(pool, repeat=2):
        assert gf.specializer_order(a, b, g) == -gf.specializer_order(b, a, g)
    for a, b, c in itertools.product(pool, repeat=3):
        if gf.specializer_order(a, b, g) < 0 and gf.specializer_order(b, c, g) < 0:
            assert gf.specializer_order(a, c, g) < 0


def test_dispatch_positions_track_non_universal_specializers() -> None:
    gf = GenericFunction("f", 3)
    gf.add_method(Method([ANY, cls_spec("integer"), ANY], tagged("x")))
    assert gf._state.positions == (1,)
    gf.add_method(Method([cls_spec("string"), ANY, ANY], tagged("y")))
    assert gf._state.positions == (0, 1)
    assert gf("s", "s", "anything") == "y"
    assert gf(0, 0, "anything") == "x"


def test_cache_fills_and_hits() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    assert gf._state.cache == {}
    gf(1)
    assert len(gf._state.cache) == 1
    first = next(iter(gf._state.cache.values()))
    gf(2)
    assert len(gf._state.cache) == 1
    assert next(iter(gf._state.cache.values())) is first  # same effective method reused
    with pytest.raises(NoApplicableMethod):
        gf("s")
    assert len(gf._state.cache) == 2  # a definitive empty outcome is cached, as an entry that raises


def test_non_definitive_outcomes_are_not_cached() -> None:
    # one test id over the three cache modes
    for mode in ("auto", "list", "none"):
        gf = GenericFunction("f", 1, cache=mode)
        gf.add_method(Method([EqlSpecializer(5)], tagged("five")))
        gf.add_method(Method([cls_spec("integer")], tagged("integer")))
        assert gf(5) == "five"
        assert gf(6) == "integer"
        assert gf._state.cache == {}
        gf.add_method(Method([cls_spec("string")], tagged("string")))
        assert gf("x") == "string"
        # the string class answer is definitive, so cached where caching is on
        assert len(gf._state.cache) == (0 if mode == "none" else 1), mode

        # an empty outcome that is not definitive raises on every call
        only_eql = GenericFunction("f", 1, cache=mode)
        only_eql.add_method(Method([EqlSpecializer(5)], tagged("five")))
        for _ in range(2):
            with pytest.raises(NoApplicableMethod) as raised:
                only_eql(6)
            assert str(raised.value) == "no applicable method for f on (6)"
            assert raised.value.gf_name == "f"
        assert only_eql(5) == "five"
        assert only_eql._state.cache == {}, mode


def test_methods_changed_flushes_cache() -> None:
    gf = GenericFunction("f", 1)
    m = gf.add_method(Method([cls_spec("integer")], tagged("one")))
    gf(1)
    assert len(gf._state.cache) == 1
    gf.add_method(Method([cls_spec("number")], tagged("wide")))
    assert gf._state.cache == {}
    gf(1)
    gf.remove_method(m)
    assert gf._state.cache == {}
    assert gf(1) == "wide"


def test_a_miss_that_straddles_a_method_change_is_not_cached() -> None:
    entered, release = threading.Event(), threading.Event()

    class Stalling(GenericFunction):
        stall = False

        def compute_effective_method(self, methods):
            # selection is done: block once, while the methods change
            if self.stall:
                self.stall = False
                entered.set()
                release.wait(5)
            return super().compute_effective_method(methods)

    gf = Stalling("f", 1)
    gf.add_method(Method([cls_spec("number")], tagged("number")))
    gf.stall = True
    caller = threading.Thread(target=gf, args=(1,), daemon=True)
    caller.start()
    assert entered.wait(5)
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    release.set()
    caller.join(5)
    assert not caller.is_alive()
    assert gf(1) == "integer"  # not the entry selected from the old methods


def chain(tag: str):
    # each body's tag, then those of the next methods: the whole ordering
    def body(args, next_call):
        return (tag,) + (next_call(args) if next_call is not None else ())

    return body


# (kind, base specializer, the specializer each thread toggles, arguments called)
CONCURRENT_CASES = [
    (GenericFunction, cls_spec("number"), [cls_spec("integer"), EqlSpecializer(5)], [5, 6, 2.5, "s"]),
    (SignumGenericFunction, cls_spec("number"), [SignumSpecializer(1), cls_spec("integer")], [5, -5, 0, 2.5]),
    (ConsGenericFunction, cls_spec("cons"), [ConsSpecializer(intern("f")), ConsSpecializer(intern("g"))],
     [read_sexpr("(f 1)"), read_sexpr("(g 1)"), read_sexpr("(h)"), 3]),
    (AcceptGenericFunction, AcceptSpecializer("text/html"),
     [AcceptSpecializer("application/json"), AcceptSpecializer("text/plain")],
     ["text/html;q=0.5, text/plain;q=0.8, application/json", "text/*",
      Request("GET", "/", {"Accept": "text/plain, application/json;q=0.1"}), "image/png"]),
]


def test_method_changes_under_concurrent_calls_answer_for_one_method_set() -> None:
    # two threads each own one function of every kind, and repeatedly add a
    # method to it, call, remove the method and call again, calling both
    # their own and the other thread's functions.  A call on its own function
    # answers exactly as a cache="none" twin of the new method set does; one
    # on the other's answers as the twin of the old or of the new set
    owned = [[], []]
    for kind, base, toggled, arguments in CONCURRENT_CASES:
        for t in range(2):
            answers = []
            for methods in ([base], [base, toggled[t]]):
                twin = kind("f", 1, cache="none")
                for s in methods:
                    twin.add_method(Method([s], chain(repr(s))))
                answers.append([invoke_outcome(twin, (arg,)) for arg in arguments])
            gf = kind("f", 1)
            gf.add_method(Method([base], chain(repr(base))))
            owned[t].append((gf, Method([toggled[t]], chain(repr(toggled[t]))), arguments, answers))

    failures = []

    def work(t):
        try:
            for _ in range(150):
                for own, other in zip(owned[t], owned[1 - t]):
                    gf, method, arguments, answers = own
                    for present, change in ((1, gf.add_method), (0, gf.remove_method)):
                        change(method)
                        for i, arg in enumerate(arguments):
                            if invoke_outcome(gf, (arg,)) != answers[present][i]:
                                failures.append((gf.kind, t, arg, present))
                        gf_other, _, arguments_other, answers_other = other
                        for i, arg in enumerate(arguments_other):
                            if invoke_outcome(gf_other, (arg,)) not in (answers_other[0][i], answers_other[1][i]):
                                failures.append((gf_other.kind, 1 - t, arg, "either"))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_concurrent_method_changes_lose_no_update() -> None:
    # the first thread's add_method blocks while its state is built (which
    # compares every specializer with ANY) as a second thread adds a method
    armed, entered, release = threading.local(), threading.Event(), threading.Event()

    class Stalling(Specializer):
        def accepts(self, obj) -> bool:
            return True

        def __eq__(self, other):
            if getattr(armed, "on", False):
                armed.on = False
                entered.set()
                release.wait(5)
            return self is other

    gf = GenericFunction("f", 2)
    first = Method([Stalling(), ANY], chain("first"))
    second = Method([ANY, cls_spec("integer")], chain("second"))

    def add_first():
        armed.on = True
        gf.add_method(first)

    adders = [threading.Thread(target=add_first, daemon=True),
              threading.Thread(target=gf.add_method, args=(second,), daemon=True)]
    adders[0].start()
    try:
        assert entered.wait(5)
        adders[1].start()
        adders[1].join(0.2)  # it waits for the first change to publish
    finally:
        release.set()
    for thread in adders:
        thread.join(5)
    assert not any(thread.is_alive() for thread in adders)
    assert gf.methods == [first, second]  # each once, in the order the lock let them in
    assert gf("s", 0) == ("first", "second")
    assert gf("s", "t") == ("first",)

def test_cache_key_shape_single_versus_list() -> None:
    auto = GenericFunction("f", 2, cache="auto")
    auto.add_method(Method([cls_spec("integer"), ANY], tagged("x")))
    auto(1, "ignored")
    (key,) = auto._state.cache.keys()
    bare = CLASSES["integer"]
    assert key is bare  # bare key, no outer tuple

    listy = GenericFunction("f", 2, cache="list")
    listy.add_method(Method([cls_spec("integer"), ANY], tagged("x")))
    listy(1, "ignored")
    (key,) = listy._state.cache.keys()
    assert type(key) is tuple and len(key) == 1 and key[0] is bare  # one-element key tuple

    off = GenericFunction("f", 2, cache="none")
    off.add_method(Method([cls_spec("integer"), ANY], tagged("x")))
    off(1, "ignored")
    assert off._state.cache == {}


def test_auto_key_uses_tuple_for_two_dispatch_positions() -> None:
    gf = GenericFunction("f", 2, cache="auto")
    gf.add_method(Method([cls_spec("integer"), cls_spec("string")], tagged("x")))
    gf(1, "s")
    (key,) = gf._state.cache.keys()
    assert type(key) is tuple and len(key) == 2
    assert key[0] is CLASSES["integer"]
    assert key[1] is CLASSES["string"]
    gf(2, "t")
    assert len(gf._state.cache) == 1  # equal generalizers make an equal key tuple


def test_same_named_classes_of_two_registries_keep_separate_cache_entries() -> None:
    # the cache key is the class's own generalizer, not the class name
    a, b = ClassRegistry(), ClassRegistry()
    point_a, point_b = a.define("point"), b.define("point")
    gf = GenericFunction("f", 1)
    gf.add_method(Method([ClassSpecializer(point_a)], tagged("a-point")))
    assert gf(Instance(point_a)) == "a-point"
    with pytest.raises(NoApplicableMethod):
        gf(Instance(point_b))


@pytest.mark.parametrize("mode", ["auto", "list", "none"])
def test_diamond_of_user_classes_runs_methods_in_c3_order(mode) -> None:
    registry = ClassRegistry()
    a = registry.define("a")
    b = registry.define("b", ["a"])
    c = registry.define("c", ["a"])
    d = registry.define("d", ["b", "c"])
    log = []
    gf = GenericFunction("f", 1, cache=mode)
    for cls in (a, b, c, registry["t"]):
        gf.add_method(Method([ClassSpecializer(cls)], chained(cls.name, log)))
    for instance, order in ((Instance(d), ["b", "c", "a", "t"]), (Instance(c), ["c", "a", "t"])):
        for _ in range(2):  # a miss, then a hit where the mode caches
            log.clear()
            assert gf(instance) == "t"
            assert log == order
    methods, definitive = gf.compute_applicable_methods_using_generalizers([d])
    assert definitive is True
    assert methods == gf.compute_applicable_methods((Instance(d),))
    assert [m.specializers[0].cls.name for m in methods] == ["b", "c", "a", "t"]


def _dispatch_on_a_class_of_a_fresh_registry():
    cls = ClassRegistry().define("thing")
    gf = GenericFunction("f", 1)
    gf.add_method(Method([ClassSpecializer(cls)], tagged("thing")))
    assert gf(Instance(cls)) == "thing"


def _live_classes() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, ClassRef))


def test_dropped_class_registries_leave_no_classes_behind() -> None:
    before = _live_classes()
    for _ in range(200):
        _dispatch_on_a_class_of_a_fresh_registry()
    assert _live_classes() == before


def test_freeze_key_separates_numeric_kinds() -> None:
    assert freeze_key(1) != freeze_key(1.0)
    table = {freeze_key(1): "int", freeze_key(1.0): "float"}
    assert table[freeze_key(1)] == "int"
    assert table[freeze_key(1.0)] == "float"
    assert freeze_key([1, ("a", 2.0)]) == ((int, 1), ("a", (float, 2.0)))
    assert freeze_key("s") == "s"


def _assert_cache_modes_agree(seed, traced=False, **config):
    """Run one random configuration under each cache mode: every mode gives
    the same outcomes and, when traced, runs the same bodies in the same
    order.  Returns the configuration's dispatch positions."""
    runs = []
    for mode in ("auto", "list", "none"):
        trace = [] if traced else None
        gf, arglists = random_config(random.Random(seed), cache=mode, calls=8, trace=trace, **config)
        outcome = combination_outcome if traced else invoke_outcome
        runs.append(([outcome(gf, args) for args in arglists], trace))
    assert runs[0] == runs[1] == runs[2]
    return gf._state.positions


def test_cache_modes_agree_on_random_traces() -> None:
    rng = random.Random(2024)
    for _ in range(60):
        _assert_cache_modes_agree(rng.getrandbits(32))


def test_cache_modes_agree_on_random_three_argument_traces() -> None:
    # misses select from the key tuple alone, whichever positions it covers
    rng = random.Random(2025)
    positions = {_assert_cache_modes_agree(rng.getrandbits(32), nargs=3) for _ in range(60)}
    assert {(0, 2), (1, 2), (1,), (2,)} <= positions


@pytest.mark.parametrize("kind", ["standard", "cons", "signum", "accept"])
def test_cache_modes_agree_on_random_method_combinations(kind) -> None:
    # befores, afters and arounds mixed with primaries: every cached entry,
    # (first body, next call) or an empty outcome, must run the same bodies
    # in the same order as uncached dispatch
    rng = random.Random(515)
    for _ in range(300):
        _assert_cache_modes_agree(rng.getrandbits(32), traced=True, kind=kind)


@pytest.mark.parametrize("kind", ["standard", "cons", "signum", "accept"])
def test_cache_modes_agree_on_random_three_argument_method_combinations(kind) -> None:
    rng = random.Random(516)
    positions = {
        _assert_cache_modes_agree(rng.getrandbits(32), traced=True, kind=kind, nargs=3)
        for _ in range(300)
    }
    assert {(0, 2), (1, 2), (1,), (2,)} <= positions


def test_full_cache_starts_afresh_with_identical_results(monkeypatch) -> None:
    monkeypatch.setattr(core, "CACHE_LIMIT", 2)
    rng = random.Random(31)
    clears = 0
    for _ in range(80):
        seed = rng.getrandbits(32)
        gf, arglists = random_config(random.Random(seed), cache="auto", calls=12)
        reference, _ = random_config(random.Random(seed), cache="none", calls=12)
        for args in arglists:
            before = len(gf._state.cache)
            assert invoke_outcome(gf, args) == invoke_outcome(reference, args)
            assert len(gf._state.cache) <= 2
            clears += len(gf._state.cache) < before
    assert clears > 10


def test_effective_method_exposes_its_methods() -> None:
    gf = GenericFunction("f", 1)
    m1 = gf.add_method(Method([cls_spec("integer")], chained("a", [])))
    m2 = gf.add_method(Method([cls_spec("number")], chained("b", [])))
    effective = gf.compute_effective_method(gf.compute_applicable_methods((1,)))
    assert effective.methods == (m1, m2)


def test_a_cached_empty_outcome_does_not_keep_its_function_alive() -> None:
    # the entry that raises for an empty outcome refers back to its function;
    # were that a strong reference, the function would be cyclic garbage that
    # only a full collection frees, with its whole cache
    gf = GenericFunction("f", 1)
    gf.add_method(Method([ClassSpecializer(CLASSES["integer"])], lambda args, _next: "integer"))
    for _ in range(2):  # a miss stores the empty outcome, then a hit raises from it
        try:
            gf("not an integer")
        except NoApplicableMethod as exc:
            assert str(exc) == 'no applicable method for f on ("not an integer")'
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = weakref.ref(gf)
        del gf
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_the_discriminating_function_is_one_object_across_method_changes() -> None:
    gf = GenericFunction("f", 1)
    df = gf.discriminating_function
    m = gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    assert gf.discriminating_function is df
    assert df(1) == "integer"
    gf.remove_method(m)
    assert gf.discriminating_function is df
    with pytest.raises(NoApplicableMethod):
        df(1)


def _call_outcome(call, args):
    try:
        return call(*args)
    except DispatchError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("mode", ["auto", "list", "none"])
def test_the_discriminating_function_returns_what_calling_the_function_does(mode) -> None:
    # three copies of one random configuration, one called through its
    # discriminating function, one as gf(...) and one through invoke: same
    # results, and the same bodies run in the same order
    rng = random.Random(1313)
    for _ in range(150):
        seed = rng.getrandbits(32)
        trace, reference_trace, invoke_trace = [], [], []
        gf, arglists = random_config(random.Random(seed), cache=mode, calls=8, trace=trace)
        reference, _ = random_config(random.Random(seed), cache=mode, calls=8, trace=reference_trace)
        invoked, _ = random_config(random.Random(seed), cache=mode, calls=8, trace=invoke_trace)
        df = gf.discriminating_function
        for args in arglists:
            expected = _call_outcome(reference, args)
            assert _call_outcome(df, args) == expected
            assert _call_outcome(lambda *a: invoked.invoke(a), args) == expected
        assert trace == reference_trace == invoke_trace


@pytest.mark.parametrize("nargs", range(5))
def test_the_discriminating_function_takes_exactly_its_arguments_positionally(nargs) -> None:
    # a fixed arity, not *args, so that CPython can run a call from a method
    # body in the caller's interpreter loop; the signature checks the count
    gf = GenericFunction("sized", nargs)
    gf.add_method(Method([ANY] * nargs, lambda args, _next: args))
    df = gf.discriminating_function
    code = df.__code__
    assert code.co_argcount == code.co_posonlyargcount == nargs
    assert not code.co_flags & inspect.CO_VARARGS
    assert df(*range(nargs)) == tuple(range(nargs))
    for wrong in (nargs - 1, nargs + 1):
        if wrong >= 0:
            with pytest.raises(TypeError, match=r"^sized\(\) (takes|missing)"):
                df(*range(wrong))
            with pytest.raises(TypeError, match=r"^sized\(\) (takes|missing)"):
                gf(*range(wrong))
    with pytest.raises(TypeError, match=r"^sized\(\) got"):
        df(*range(nargs - 1), **{"a%d" % max(nargs - 1, 0): 0})


def test_a_discriminating_function_outliving_its_function_names_it() -> None:
    # it holds its function weakly, so a caller that keeps only the
    # discriminating function gets an error that says what is gone
    gf = GenericFunction("lost", 1)
    gf.add_method(Method([ANY], tagged("any")))
    df = gf.discriminating_function
    assert df(1) == "any"
    del gf
    gc.collect()
    with pytest.raises(ReferenceError, match="generic function lost"):
        df(1)


@pytest.mark.parametrize("mode", ["auto", "list", "none"])
def test_functions_of_one_class_and_arity_share_code_but_not_state(mode) -> None:
    # the code is compiled once per arity and rule; each function's dispatch
    # state lives in its own discriminating function's globals
    a, b = GenericFunction("a", 1, cache=mode), GenericFunction("b", 1, cache=mode)
    assert a.discriminating_function.__code__ is b.discriminating_function.__code__
    a.add_method(Method([cls_spec("integer")], tagged("a integer")))
    for _ in range(2):  # a miss, then (but for "none") a hit
        assert a(1) == "a integer"
        with pytest.raises(NoApplicableMethod):
            b(1)
    b.add_method(Method([cls_spec("number")], tagged("b number")))
    for _ in range(2):
        assert (a(1), b(1), b(1.5)) == ("a integer", "b number", "b number")
        with pytest.raises(NoApplicableMethod):
            a(1.5)
    assert a._state is not b._state
    assert [m.body(None, None) for m in a.methods] == ["a integer"]


class _HandwrittenSignum(SignumGenericFunction):
    def generalizer_of(self, arg, position=0):
        return super().generalizer_of(arg, position)


class _HandwrittenAccept(AcceptGenericFunction):
    def generalizer_of(self, arg, position=0):
        return super().generalizer_of(arg, position)


def _accepting(media_type):
    return Request("GET", "/", {"Accept": media_type})


# (kind, class, specializer, an argument it hits, one it never saw): the
# signum, cons and Accept rules are inlined, a hand-written one called
_OUTLIVING_CASES = [
    ("signum", SignumGenericFunction, SignumSpecializer(1), 5, 0),
    ("cons", ConsGenericFunction, ConsSpecializer(intern("f")), Cons(intern("f"), NIL), Cons(intern("g"), NIL)),
    ("accept", AcceptGenericFunction, AcceptSpecializer("text/html"), _accepting("text/html"), _accepting("image/png")),
    ("handwritten", _HandwrittenSignum, SignumSpecializer(1), 5, 0),
]
# the call path, taken by hand-written rules: an Accept-shaped one and a signum one
_CALL_PATH_CASES = [("accept", _HandwrittenAccept) + _OUTLIVING_CASES[2][2:], _OUTLIVING_CASES[3]]


@pytest.mark.parametrize("kind, cls, specializer, hit, unseen", _OUTLIVING_CASES, ids=[c[0] for c in _OUTLIVING_CASES])
def test_an_outliving_discriminating_function_names_its_function_on_hits_and_misses(
    kind, cls, specializer, hit, unseen
) -> None:
    # a collected function's state is replaced by one that no call can hit,
    # so an argument that hit before raises the same ReferenceError as a miss
    gf = cls("lost", 1)
    gf.add_method(Method([specializer], tagged(kind)))
    df = gf.discriminating_function
    assert df(hit) == df(hit) == kind
    gone = weakref.ref(gf)
    del gf
    gc.collect()
    assert gone() is None
    for args in (hit, unseen, hit):
        with pytest.raises(ReferenceError, match="generic function lost"):
            df(args)


@pytest.mark.parametrize("kind, cls, specializer, hit, unseen", _CALL_PATH_CASES, ids=["accept", "handwritten"])
def test_the_call_path_names_a_function_collected_after_the_state_was_read(
    kind, cls, specializer, hit, unseen
) -> None:
    # another thread may drop the last reference between reading a live STATE
    # and calling generalizer_of through ref; a dead ref stands in for that
    gf = cls("lost", 1)
    gf.add_method(Method([specializer], tagged(kind)))
    df = gf.discriminating_function
    assert df(hit) == kind
    dropped = _Float(0.0)
    dead, dropped = weakref.ref(dropped), None
    df.__globals__["ref"] = dead
    for args in (hit, unseen):
        with pytest.raises(ReferenceError, match="generic function lost"):
            df(args)


class _Float(float):
    pass


# per generalizer rule: (kind, generic function class, a method specializer
# that makes position 0 the one dispatch position)
_RULE_CASES = [
    ("standard", GenericFunction, cls_spec("number")),
    ("signum", SignumGenericFunction, SignumSpecializer(0)),
    ("cons", ConsGenericFunction, ConsSpecializer(intern("f"))),
]


def _recording_misses(gf):
    """Record (args, key) for every miss of gf, as its discriminating function
    hands them to _dispatch."""
    misses = []
    dispatch = gf._dispatch

    def recording(args, key, state):
        misses.append((args, key))
        return dispatch(args, key, state)

    gf._dispatch = recording
    return misses


@pytest.mark.parametrize("kind, cls, specializer", _RULE_CASES)
def test_the_compiled_hit_path_and_generalizer_of_give_one_object(kind, cls, specializer) -> None:
    # the single-position hit path computes the generalizer by the rule's
    # fragment inlined; the key it probes with is generalizer_of's own object
    f = intern("f")
    values = value_kinds() + [
        0, 7, -4, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2.5, _Float(1.5),
        Cons(intern("g"), NIL), Cons(Cons(f, NIL), NIL), Cons(f, 3),
    ]
    gf = cls("probe", 1)
    method = gf.add_method(Method([specializer], tagged(kind)))
    misses = _recording_misses(gf)
    for v in values:
        gf.add_method(method)  # a fresh state, so the first call misses
        first = _call_outcome(gf, (v,))
        assert _call_outcome(gf, (v,)) == first  # the hit
        (args, (key,)), = misses
        misses.clear()
        assert args[0] is v
        assert key is gf.generalizer_of(v), (kind, v)


@pytest.mark.parametrize("kind", ["standard", "cons", "signum"])
def test_compiled_rules_agree_with_generalizer_of_on_random_configurations(kind) -> None:
    rng = random.Random(3131)
    for _ in range(150):
        seed = rng.getrandbits(32)
        runs = []
        for mode in ("auto", "list", "none"):
            gf, arglists = random_config(random.Random(seed), cache=mode, calls=10, kind=kind)
            misses = _recording_misses(gf)
            runs.append([invoke_outcome(gf, args) for args in arglists])
            positions = gf._state.positions
            for args, key in misses:
                expected = tuple(gf.generalizer_of(args[i], i) for i in positions)
                assert len(key) == len(expected) and all(a is b for a, b in zip(key, expected)), (seed, args)
        assert runs[0] == runs[1] == runs[2], seed


def test_only_a_class_with_a_rule_built_generalizer_of_inlines_it() -> None:
    # an inherited rule is inlined, so an instance attribute named
    # generalizer_of is never called; a hand-written one is called per dispatch
    calls = []

    class Inheriting(SignumGenericFunction):
        pass

    class Handwritten(SignumGenericFunction):
        def generalizer_of(self, arg, position=0):
            calls.append(arg)
            return super().generalizer_of(arg, position)

    def fact_of(cls):
        fact = cls("fact", 1)
        recurse = fact.discriminating_function
        fact.add_method(Method([SignumSpecializer(0)], lambda args, _next: 1))
        fact.add_method(Method([SignumSpecializer(1)], lambda args, _next: args[0] * recurse(args[0] - 1)))
        return fact

    inheriting = fact_of(Inheriting)
    inheriting.generalizer_of = lambda arg, position=0: calls.append(arg)
    assert inheriting(5) == 120
    assert calls == []
    assert fact_of(Handwritten)(5) == 120
    assert calls == [5, 4, 3, 2, 1, 0]


_RULE_ARGS = []


def _rule_of_this_module(arg, state):
    # a generalizer rule's helper that only this test module defines
    _RULE_ARGS.append(arg)
    return class_of(arg)


class _StatedRule(GenericFunction):
    generalizer_rule = "_rule_of_this_module(arg, state)"


def test_a_rule_stated_outside_the_package_is_inlined_in_its_own_module() -> None:
    # the rule is read from the class and resolved in the globals of the
    # module that states it, also for a subclass made in another namespace
    elsewhere = {"__name__": "elsewhere", "StatedRule": _StatedRule}
    exec("class Inheriting(StatedRule):\n    pass\n", elsewhere)
    inheriting = elsewhere["Inheriting"]
    assert inheriting.__module__ not in sys.modules and "generalizer_rule" not in vars(inheriting)
    for cls in (_StatedRule, inheriting):
        gf = cls("stated", 1)
        gf.add_method(Method([cls_spec("integer")], tagged("integer")))
        gf.generalizer_of = lambda arg, position=0: pytest.fail("an instance attribute was called")
        code = gf.discriminating_function.__code__
        assert "_rule_of_this_module" in code.co_names and "generalizer_of" not in code.co_names
        _RULE_ARGS.clear()
        for v in (3, 4, "x"):
            first = _call_outcome(gf, (v,))
            assert _call_outcome(gf, (v,)) == first  # a miss, then a hit
        assert _RULE_ARGS == [3, 3, 4, 4, "x", "x"]
        # the keys the hit path stored are generalizer_of's own objects
        assert set(gf._state.cache) == {CLASSES["integer"], CLASSES["string"]}
        for v in (3, 4, "x"):
            assert type(gf).generalizer_of(gf, v) is class_of(v), (cls, v)


def test_each_fact_level_keeps_two_small_frames() -> None:
    # deep recursion pays on every call for each 16 KiB frame-stack chunk
    # it crosses, so each word a level's frames hold moves the crossings
    # shallower: no argument tuple, no copy of the argument and no self,
    # whether the rule is inlined or, for a hand-written one, called
    for cls in (GenericFunction, SignumGenericFunction, ConsGenericFunction, AcceptGenericFunction):
        assert cls.generalizer_of is core._GENERALIZER_OF, cls  # its stated rule is inlined
    assert _HandwrittenSignum.generalizer_of is not core._GENERALIZER_OF
    for cls in (GenericFunction, SignumGenericFunction, ConsGenericFunction, AcceptGenericFunction, _HandwrittenSignum):
        code = cls("small", 1).discriminating_function.__code__
        assert not {"a0", "args", "self"} & set(code.co_varnames), (cls, code.co_varnames)
        assert not code.co_cellvars and not code.co_freevars, cls
        assert code.co_stacksize <= 5, cls
    fact = make_fact()
    general_case = next(m.body for m in fact.methods if m.specializers == (SignumSpecializer(1),))
    assert general_case.__code__.co_varnames == ("args", "_next")
