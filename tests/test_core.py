"""Dispatch engine tests: applicability, ordering, combination, caching."""

from __future__ import annotations

import itertools
import random

import pytest

from gendispatch import (
    ANY,
    CLASSES,
    ClassGeneralizer,
    ClassRegistry,
    ClassSpecializer,
    EqlSpecializer,
    GenericFunction,
    Instance,
    Method,
    MethodNotFound,
    NoApplicableMethod,
    NoPrimaryMethod,
)
from gendispatch.core import freeze_key

from conftest import invoke_outcome, random_config


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
        gf.compute_applicable_methods_using_generalizers([ClassGeneralizer(CLASSES["t"])])


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
    methods, definitive = gf.compute_applicable_methods_using_generalizers(
        [ClassGeneralizer(CLASSES["integer"])]
    )
    assert methods == []
    assert definitive is False
    # but a class that can never hold the eql object is definitive
    methods, definitive = gf.compute_applicable_methods_using_generalizers(
        [ClassGeneralizer(CLASSES["string"])]
    )
    assert methods == []
    assert definitive is True
    assert gf.compute_applicable_methods((5,)) == [eql5]
    assert gf.compute_applicable_methods((6,)) == []


def test_definitiveness_ignores_method_order() -> None:
    body = tagged("x")
    eql5 = Method([EqlSpecializer(5)], body)
    on_int = Method([cls_spec("integer")], body)
    g = [ClassGeneralizer(CLASSES["integer"])]
    for ms in ([eql5, on_int], [on_int, eql5]):
        gf = GenericFunction("f", 1)
        for m in ms:
            gf.add_method(m)
        methods, definitive = gf.compute_applicable_methods_using_generalizers(g)
        assert methods == [on_int]
        assert definitive is False


def test_generalizer_defaults() -> None:
    gf = GenericFunction("f", 1)
    g = gf.generalizer_of(3)
    assert isinstance(g, ClassGeneralizer)
    assert g.cls is CLASSES["integer"]
    # equal arguments get the one interned generalizer, which is its own key
    assert gf.generalizer_of(-7) is g
    assert ClassGeneralizer(CLASSES["integer"]) is g
    assert g.next is g
    assert gf.generalizer_hash_key(g) is g
    assert gf.generalizer_of(3.0) is not g


def test_accepts_generalizer_examples() -> None:
    gf = GenericFunction("f", 1)
    integer = ClassGeneralizer(CLASSES["integer"])
    assert gf.specializer_accepts_generalizer(cls_spec("integer"), integer) == (True, True)
    assert gf.specializer_accepts_generalizer(cls_spec("number"), integer) == (True, True)
    assert gf.specializer_accepts_generalizer(
        cls_spec("integer"), ClassGeneralizer(CLASSES["number"])
    ) == (False, True)
    assert gf.specializer_accepts_generalizer(EqlSpecializer(5), integer) == (False, False)
    assert gf.specializer_accepts_generalizer(
        EqlSpecializer(5), ClassGeneralizer(CLASSES["string"])
    ) == (False, True)


def test_same_specializer_comparisons() -> None:
    assert cls_spec("integer") == cls_spec("integer")
    assert cls_spec("integer") != cls_spec("number")
    assert EqlSpecializer(5) == EqlSpecializer(5)
    assert EqlSpecializer(5) != EqlSpecializer(5.0)  # eql keeps numeric kinds apart
    assert EqlSpecializer("a") == EqlSpecializer("a")
    assert cls_spec("integer") != EqlSpecializer(5)


def test_specializer_order_examples() -> None:
    gf = GenericFunction("f", 1)
    g = ClassGeneralizer(CLASSES["integer"])
    assert gf.specializer_order(cls_spec("integer"), cls_spec("number"), g) == -1
    assert gf.specializer_order(cls_spec("number"), cls_spec("integer"), g) == 1
    assert gf.specializer_order(cls_spec("integer"), cls_spec("integer"), g) == 0
    assert gf.specializer_order(EqlSpecializer(5), cls_spec("integer"), g) == -1
    assert gf.specializer_order(EqlSpecializer(5), EqlSpecializer(5), g) == 0


def test_specializer_order_is_antisymmetric_and_transitive() -> None:
    gf = GenericFunction("f", 1)
    g = ClassGeneralizer(CLASSES["integer"])
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
    assert gf._dispatch_positions == (1,)
    gf.add_method(Method([cls_spec("string"), ANY, ANY], tagged("y")))
    assert gf._dispatch_positions == (0, 1)
    assert gf("s", "s", "anything") == "y"
    assert gf(0, 0, "anything") == "x"


def test_cache_fills_and_hits() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    assert gf._cache == {}
    gf(1)
    assert len(gf._cache) == 1
    first = next(iter(gf._cache.values()))
    gf(2)
    assert len(gf._cache) == 1
    assert next(iter(gf._cache.values())) is first  # same effective method reused
    with pytest.raises(NoApplicableMethod):
        gf("s")
    assert len(gf._cache) == 1  # empty outcomes are not cached


def test_non_definitive_outcomes_are_not_cached() -> None:
    gf = GenericFunction("f", 1)
    gf.add_method(Method([EqlSpecializer(5)], tagged("five")))
    gf.add_method(Method([cls_spec("integer")], tagged("integer")))
    assert gf(5) == "five"
    assert gf(6) == "integer"
    assert gf._cache == {}
    gf.add_method(Method([cls_spec("string")], tagged("string")))
    assert gf("x") == "string"
    assert len(gf._cache) == 1  # the string class answer is definitive


def test_methods_changed_flushes_cache() -> None:
    gf = GenericFunction("f", 1)
    m = gf.add_method(Method([cls_spec("integer")], tagged("one")))
    gf(1)
    assert len(gf._cache) == 1
    gf.add_method(Method([cls_spec("number")], tagged("wide")))
    assert gf._cache == {}
    gf(1)
    gf.remove_method(m)
    assert gf._cache == {}
    assert gf(1) == "wide"


def test_cache_key_shape_single_versus_list() -> None:
    auto = GenericFunction("f", 2, cache="auto")
    auto.add_method(Method([cls_spec("integer"), ANY], tagged("x")))
    auto(1, "ignored")
    (key,) = auto._cache.keys()
    bare = ClassGeneralizer(CLASSES["integer"])
    assert key is bare  # bare key, no outer tuple

    listy = GenericFunction("f", 2, cache="list")
    listy.add_method(Method([cls_spec("integer"), ANY], tagged("x")))
    listy(1, "ignored")
    (key,) = listy._cache.keys()
    assert type(key) is tuple and len(key) == 1 and key[0] is bare  # one-element key tuple

    off = GenericFunction("f", 2, cache="none")
    off.add_method(Method([cls_spec("integer"), ANY], tagged("x")))
    off(1, "ignored")
    assert off._cache == {}


def test_auto_key_uses_tuple_for_two_dispatch_positions() -> None:
    gf = GenericFunction("f", 2, cache="auto")
    gf.add_method(Method([cls_spec("integer"), cls_spec("string")], tagged("x")))
    gf(1, "s")
    (key,) = gf._cache.keys()
    assert type(key) is tuple and len(key) == 2
    assert key[0] is ClassGeneralizer(CLASSES["integer"])
    assert key[1] is ClassGeneralizer(CLASSES["string"])
    gf(2, "t")
    assert len(gf._cache) == 1  # equal generalizers make an equal key tuple


def test_same_named_classes_of_two_registries_keep_separate_cache_entries() -> None:
    # the cache key is the class's own generalizer, not the class name
    a, b = ClassRegistry(), ClassRegistry()
    point_a, point_b = a.define("point"), b.define("point")
    gf = GenericFunction("f", 1)
    gf.add_method(Method([ClassSpecializer(point_a)], tagged("a-point")))
    assert gf(Instance(point_a)) == "a-point"
    with pytest.raises(NoApplicableMethod):
        gf(Instance(point_b))


def test_freeze_key_separates_numeric_kinds() -> None:
    assert freeze_key(1) != freeze_key(1.0)
    table = {freeze_key(1): "int", freeze_key(1.0): "float"}
    assert table[freeze_key(1)] == "int"
    assert table[freeze_key(1.0)] == "float"
    assert freeze_key([1, ("a", 2.0)]) == ((int, 1), ("a", (float, 2.0)))
    assert freeze_key("s") == "s"


def test_cache_modes_agree_on_random_traces() -> None:
    rng = random.Random(2024)
    for _ in range(60):
        seed = rng.getrandbits(32)
        outcomes = []
        for mode in ("auto", "list", "none"):
            gf, arglists = random_config(random.Random(seed), cache=mode, calls=8)
            outcomes.append([invoke_outcome(gf, args) for args in arglists])
        assert outcomes[0] == outcomes[1] == outcomes[2]


def test_effective_method_exposes_its_methods() -> None:
    gf = GenericFunction("f", 1)
    m1 = gf.add_method(Method([cls_spec("integer")], chained("a", [])))
    m2 = gf.add_method(Method([cls_spec("number")], chained("b", [])))
    effective = gf.compute_effective_method(gf.compute_applicable_methods((1,)))
    assert effective.methods == (m1, m2)
