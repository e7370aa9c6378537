"""Value universe and class graph tests."""

from __future__ import annotations

import random

import pytest

from gendispatch import (
    CLASSES,
    NIL,
    ClassRegistry,
    Cons,
    DuplicateClassError,
    Instance,
    LinearizationError,
    Request,
    UndefinedClassError,
    class_of,
    cons_list,
    eql,
    format_value,
    intern,
    iter_list,
    subclass_p,
)
from gendispatch.model import compute_precedence_list


def names(classes) -> list[str]:
    return [c.name for c in classes]


def test_symbols_are_interned() -> None:
    assert intern("foo") is intern("foo")
    assert intern("FOO") is intern("foo")
    assert intern("foo") is not intern("bar")


def test_nil_is_the_interned_nil_symbol() -> None:
    assert intern("nil") is NIL
    assert intern("NIL") is NIL


def test_class_of_builtin_values() -> None:
    cases = [
        (3, "integer"),
        (2.5, "float"),
        ("hi", "string"),
        (intern("x"), "symbol"),
        (NIL, "null"),
        (Cons(1, NIL), "cons"),
        (Request("GET", "/"), "request"),
        # a subclass of a known type is classed by its nearest known base
        (type("Text", (str,), {})("hi"), "string"),
        (type("Real", (float,), {})(2.5), "float"),
        (type("Get", (Request,), {})("GET", "/"), "request"),
    ]
    for value, expected in cases:
        assert class_of(value).name == expected


def test_class_of_is_total_over_host_objects() -> None:
    assert class_of(object()).name == "t"
    assert class_of(True).name == "t"


def test_class_of_instance_uses_its_class() -> None:
    registry = ClassRegistry()
    point = registry.define("point", ["standard-object"])
    assert class_of(Instance(point)) is point


def test_instances_compare_by_fields_and_are_unhashable() -> None:
    point = ClassRegistry().define("point", ["standard-object"])
    a, b = Instance(point), Instance(point)
    assert a == b and a.slots is not b.slots
    a.slots["x"] = 1
    assert a != b and a == Instance(point, {"x": 1})
    assert Instance(point) != object()
    with pytest.raises(TypeError):
        hash(a)
    assert repr(a) == "Instance(class_ref=<class point>, slots={'x': 1})"
    a.slots["self"] = a
    assert repr(a) == "Instance(class_ref=<class point>, slots={'x': 1, 'self': ...})"


def test_builtin_precedence_lists() -> None:
    assert names(CLASSES["integer"].precedence_list) == ["integer", "real", "number", "t"]
    assert names(CLASSES["null"].precedence_list) == ["null", "symbol", "list", "t"]
    assert names(CLASSES["t"].precedence_list) == ["t"]
    assert names(CLASSES["request"].precedence_list) == ["request", "standard-object", "t"]


def test_diamond_linearization() -> None:
    # d < (b c), b < a, c < a: hand-run C3 gives [d b c a t]
    registry = ClassRegistry()
    registry.define("a")
    registry.define("b", ["a"])
    registry.define("c", ["a"])
    d = registry.define("d", ["b", "c"])
    assert names(d.precedence_list) == ["d", "b", "c", "a", "t"]


def test_local_super_order_is_respected() -> None:
    registry = ClassRegistry()
    registry.define("a")
    registry.define("b")
    c = registry.define("c", ["a", "b"])
    assert names(c.precedence_list) == ["c", "a", "b", "t"]


def test_linearization_is_deterministic() -> None:
    cls = CLASSES["null"]
    assert compute_precedence_list(cls) == compute_precedence_list(cls)
    assert compute_precedence_list(cls) == cls.precedence_list


def test_duplicate_class_name_rejected() -> None:
    registry = ClassRegistry()
    registry.define("a")
    with pytest.raises(DuplicateClassError):
        registry.define("a")


def test_undefined_superclass_rejected() -> None:
    registry = ClassRegistry()
    with pytest.raises(UndefinedClassError):
        registry.define("x", ["x"])  # self-reference: the name is not defined yet


def test_inconsistent_local_orders_rejected_with_pair() -> None:
    registry = ClassRegistry()
    registry.define("a")
    registry.define("b")
    registry.define("p", ["a", "b"])
    registry.define("q", ["b", "a"])
    with pytest.raises(LinearizationError) as err:
        registry.define("r", ["p", "q"])
    assert set(err.value.conflict) == {"a", "b"}


def test_subclass_p() -> None:
    assert subclass_p(CLASSES["integer"], CLASSES["number"])
    assert subclass_p(CLASSES["integer"], CLASSES["integer"])
    assert not subclass_p(CLASSES["number"], CLASSES["integer"])
    assert subclass_p(CLASSES["string"], CLASSES["t"])


def test_random_hierarchies_linearize_consistently() -> None:
    rng = random.Random(7)
    for trial in range(50):
        registry = ClassRegistry()
        defined = ["t"]
        for i in range(rng.randint(1, 10)):
            name = "c%d" % i
            supers = rng.sample(defined, k=min(len(defined), rng.randint(1, 2)))
            try:
                cls = registry.define(name, supers)
            except LinearizationError:
                continue
            cpl = cls.precedence_list
            assert cpl[0] is cls
            assert cpl[-1].name == "t"
            # direct superclasses appear in the list in local order
            positions = [cpl.index(s) for s in cls.direct_superclasses]
            assert positions == sorted(positions)
            defined.append(name)


def test_eql_distinguishes_numeric_kinds() -> None:
    assert eql(1, 1)
    assert not eql(1, 1.0)
    assert eql(1.0, 1.0)
    assert eql("a", "a")
    assert eql(intern("a"), intern("a"))
    assert not eql(intern("a"), "a")
    pair = Cons(1, NIL)
    assert eql(pair, pair)
    assert not eql(pair, Cons(1, NIL))  # cons identity, not structure


def test_request_headers_case_insensitive_and_accept_default() -> None:
    req = Request("GET", "/", {"Accept": "text/html", "Host": "h"})
    assert req.header("accept") == "text/html"
    assert req.header("ACCEPT") == "text/html"
    assert req.accept == "text/html"
    assert Request("GET", "/").accept == "*/*"


def test_format_value_and_lists() -> None:
    form = cons_list(intern("let"), cons_list(cons_list(intern("x"), 1)), intern("x"))
    assert format_value(form) == "(let ((x 1)) x)"
    assert format_value(NIL) == "()"
    assert format_value(Cons(1, 2)) == "(1 . 2)"
    assert format_value("a\"b") == '"a\\"b"'
    assert list(iter_list(cons_list(1, 2, 3))) == [1, 2, 3]
    with pytest.raises(ValueError):
        list(iter_list(Cons(1, 2)))


def test_cons_equality_is_structural_with_eql_leaves() -> None:
    assert cons_list(1, cons_list("a", intern("b")), 2.5) == cons_list(1, cons_list("a", intern("b")), 2.5)
    assert cons_list(1) != cons_list(1.0)  # 1 and 1.0 are not eql
    assert cons_list(1, 2) != cons_list(1, 2, 3)
    assert Cons(1, 2) == Cons(1, 2)
    assert Cons(1, 2) != Cons(1, 3)
    assert cons_list(cons_list(1)) != cons_list(1)
    assert (Cons(1, NIL) == 1) is False


def test_long_lists_compare_without_recursion() -> None:
    n = 50_000
    assert cons_list(*range(n)) == cons_list(*range(n))
    assert cons_list(*range(n)) != cons_list(*range(n - 1), -1)


def test_deep_car_nesting_formats_and_compares_without_recursion() -> None:
    depth = 100_000
    form = other = NIL
    for _ in range(depth):
        form, other = Cons(form, NIL), Cons(other, NIL)
    text = "(" * depth + "()" + ")" * depth
    assert format_value(form) == text
    assert repr(form) == text
    assert form == other
    innermost = other
    while innermost.car is not NIL:
        innermost = innermost.car
    innermost.car = 1
    assert form != other
    assert format_value(other).endswith("(1" + ")" * depth)
