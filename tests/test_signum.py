"""Sign-based dispatch tests and the recursive factorial built on it."""

from __future__ import annotations

import pytest

from gendispatch import (
    CLASSES,
    ClassSpecializer,
    EqlSpecializer,
    Method,
    NoApplicableMethod,
    SignumGeneralizer,
    SignumGenericFunction,
    SignumSpecializer,
    make_fact,
    signum,
)
from gendispatch.model import ClassRef
from conftest import fact_oracle


def test_signum_values_preserve_numeric_kind() -> None:
    assert signum(-7) == -1 and isinstance(signum(-7), int)
    assert signum(0) == 0
    assert signum(3) == 1
    assert signum(-2.5) == -1.0 and isinstance(signum(-2.5), float)
    assert signum(0.0) == 0.0
    assert signum(4.25) == 1.0


def test_signum_rejects_non_reals() -> None:
    for bad in ("3", None, True, [1]):
        with pytest.raises(TypeError):
            signum(bad)


def test_signum_specializer_validates_its_value() -> None:
    for ok in (-1, 0, 1, -1.0, 0.0, 1.0):
        SignumSpecializer(ok)
    for bad in (5, 0.5, "1", True):
        with pytest.raises(ValueError):
            SignumSpecializer(bad)


def test_signum_specializer_accepts_by_sign() -> None:
    positive = SignumSpecializer(1)
    assert positive.accepts(7)
    assert positive.accepts(7.5)  # numeric =, the kind does not matter here
    assert not positive.accepts(0)
    assert not positive.accepts(-2)
    assert not positive.accepts("7")


def test_integer_and_float_signum_specializers_are_the_same_method_slot() -> None:
    assert SignumSpecializer(1) == SignumSpecializer(1.0)
    gf = SignumGenericFunction("f", 1)
    gf.add_method(Method([SignumSpecializer(1)], lambda a, _n: "int flavour"))
    gf.add_method(Method([SignumSpecializer(1.0)], lambda a, _n: "float flavour"))
    assert len(gf.methods) == 1  # the second add replaced the first
    assert gf(3) == "float flavour"


def test_signum_generalizer_and_hash_key() -> None:
    gf = SignumGenericFunction("f", 1)
    g = gf.generalizer_of(7)
    assert isinstance(g, SignumGeneralizer)
    assert g.value == 1 and isinstance(g.value, int)
    assert gf.generalizer_of(3) is g  # equal signs share one generalizer
    assert gf.generalizer_of(7.0) is not g  # but integer and float do not
    assert g.next is CLASSES["integer"]
    g = gf.generalizer_of(-2.5)
    assert g.value == -1.0 and isinstance(g.value, float)
    assert gf.generalizer_of(-0.5) is g
    assert g.next is CLASSES["float"]
    gf.add_method(Method([SignumSpecializer(-1)], lambda args, _next: "negative"))
    assert gf(-0.5) == "negative"
    (key,) = gf._cache
    assert key is g
    g = gf.generalizer_of("not a number")
    assert isinstance(g, ClassRef)
    assert g.name == "string"


def test_class_specializer_sees_through_the_signum_generalizer() -> None:
    gf = SignumGenericFunction("f", 1)
    float_spec = ClassSpecializer(CLASSES["float"])
    assert gf.specializer_accepts_generalizer(float_spec, SignumGeneralizer(1.0)) == (True, True)
    assert gf.specializer_accepts_generalizer(float_spec, SignumGeneralizer(1)) == (False, True)
    number_spec = ClassSpecializer(CLASSES["number"])
    assert gf.specializer_accepts_generalizer(number_spec, SignumGeneralizer(0)) == (True, True)
    # an eql specializer on an integer cannot be settled by the sign alone
    assert gf.specializer_accepts_generalizer(EqlSpecializer(5), SignumGeneralizer(1)) == (False, False)


def test_sign_methods_are_excluded_for_non_real_arguments() -> None:
    gf = SignumGenericFunction("f", 1)
    s = SignumSpecializer(1)
    assert gf.specializer_accepts_generalizer(s, CLASSES["string"]) == (False, True)


def test_sign_specializers_order_before_class_specializers() -> None:
    gf = SignumGenericFunction("f", 1)
    g = SignumGeneralizer(1)
    sign = SignumSpecializer(1)
    wide = ClassSpecializer(CLASSES["integer"])
    assert gf.specializer_order(sign, wide, g) == -1
    assert gf.specializer_order(wide, sign, g) == 1
    assert gf.specializer_order(EqlSpecializer(5), sign, g) == -1
    gf.add_method(Method([sign], lambda a, _n: "sign"))
    gf.add_method(Method([wide], lambda a, _n: "class"))
    assert gf(5) == "sign"


def test_fact_method_selection() -> None:
    fact = make_fact()
    (base,) = fact.compute_applicable_methods((0,))
    assert base.specializers[0].value == 0
    (general,) = fact.compute_applicable_methods((7,))
    assert general.specializers[0].value == 1
    assert fact.compute_applicable_methods((-2,)) == []
    methods, definitive = fact.compute_applicable_methods_using_generalizers(
        [SignumGeneralizer(1)]
    )
    assert definitive is True
    assert methods == [general]


def test_fact_small_values_match_oracle() -> None:
    fact = make_fact()
    for n in range(0, 21):
        assert fact(n) == fact_oracle(n)


def test_fact_20_exact_value() -> None:
    # 20! carried by hand from the iterative oracle
    assert make_fact()(20) == 2432902008176640000


def test_fact_has_no_method_for_negatives() -> None:
    fact = make_fact()
    with pytest.raises(NoApplicableMethod):
        fact(-3)


def test_fact_cache_keeps_integer_and_float_entries_apart() -> None:
    fact = make_fact()
    assert fact(3) == 6
    assert len(fact._cache) == 2
    assert fact(3.0) == 6.0  # same methods, distinct cache entries
    assert len(fact._cache) == 4
    assert set(fact._cache) == {fact.generalizer_of(x) for x in (1, 0, 1.0, 0.0)}


def test_fact_works_without_a_cache() -> None:
    fact = make_fact(cache="none")
    assert fact(10) == fact_oracle(10)
    assert fact._cache == {}


def test_fact_recursion_sees_methods_added_after_make_fact() -> None:
    # the method bodies recurse through the discriminating function taken
    # when fact was made; it reads the method set on every call
    fact = make_fact()
    recurse = fact.discriminating_function
    assert recurse(5) == 120
    with pytest.raises(NoApplicableMethod):
        recurse(-3)
    negative = fact.add_method(Method([SignumSpecializer(-1)], lambda args, _next: "negative"))
    assert recurse(-3) == "negative"
    assert recurse(5) == 120
    three = fact.add_method(Method([EqlSpecializer(3)], lambda args, _next: 100))
    assert fact(5) == 5 * 4 * 100
    fact.remove_method(three)
    fact.remove_method(negative)
    assert fact(5) == 120
    with pytest.raises(NoApplicableMethod):
        recurse(-3)
