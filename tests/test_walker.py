"""Code walker tests: head dispatch, scope tracking, diagnostic order."""

from __future__ import annotations

import copy
import gc
import os
import random
import sys

import pytest

from gendispatch import (
    ANY,
    CLASSES,
    NIL,
    Cons,
    ConsGeneralizer,
    ConsGenericFunction,
    ConsSpecializer,
    Diagnostic,
    Method,
    Walker,
    class_of,
    cons_list,
    intern,
    iter_list,
    read_sexpr,
    walk_check,
)
from gendispatch.bench import StandardWalker, monolithic_check
from gendispatch.walker import UNBOUND_VARIABLE, UNUSED_BINDING, Environment

from conftest import WALKER_FIXTURES, _Cons, diagnostic_pairs, value_kinds

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("source,expected", WALKER_FIXTURES)
def test_fixture_diagnostics_in_source_order(source: str, expected) -> None:
    assert diagnostic_pairs(walk_check(source)) == expected


def test_multiple_bindings_report_before_body_references() -> None:
    # binding occurrences precede references textually, so unused reports
    # for a scope come before reports raised from within it
    got = diagnostic_pairs(walk_check("(let ((a 1) (b a)) b)"))
    assert got == [("unused-binding", "a"), ("unbound-variable", "a")]


def test_nested_scopes_interleave_correctly() -> None:
    got = diagnostic_pairs(walk_check("(lambda (a) (let ((b a)) c))"))
    assert got == [("unused-binding", "b"), ("unbound-variable", "c")]


def test_shadowing_marks_only_the_inner_binding_used() -> None:
    got = diagnostic_pairs(walk_check("(let ((x 1)) (let ((x 2)) x))"))
    assert got == [("unused-binding", "x")]


def test_empty_list_is_self_evaluating() -> None:
    assert diagnostic_pairs(walk_check("(lambda (x) ())")) == [("unused-binding", "x")]
    assert diagnostic_pairs(walk_check("(lambda (x) nil)")) == [("unused-binding", "x")]


def test_call_head_symbol_is_not_a_variable_reference() -> None:
    assert diagnostic_pairs(walk_check("(let ((x 1)) (f x))")) == []
    # a non-symbol head is an expression and is walked
    assert diagnostic_pairs(walk_check("((g y) 1)")) == [("unbound-variable", "y")]


def test_atoms_need_no_diagnostics() -> None:
    assert walk_check("42") == []
    assert walk_check('"str"') == []
    assert diagnostic_pairs(walk_check("x")) == [("unbound-variable", "x")]


@pytest.mark.parametrize(
    "source,head",
    [
        ("(lambda)", "lambda"),
        ("(lambda x x)", "lambda"),
        ("(lambda (3) x)", "lambda"),
        ("(lambda (nil) x)", "lambda"),
        ("(let)", "let"),
        ("(let (x) x)", "let"),
        ("(let ((x)) x)", "let"),
        ("(let ((x 1 2)) x)", "let"),
        ("(let ((1 2)) x)", "let"),
    ],
)
def test_malformed_special_forms(source: str, head: str) -> None:
    assert diagnostic_pairs(walk_check(source)) == [("malformed-form", head)]


def test_malformed_improper_call_form() -> None:
    walker = Walker()
    got = diagnostic_pairs(walker.check_form(Cons(intern("f"), 3)))
    assert got == [("malformed-form", "f")]
    got = diagnostic_pairs(walker.check_form(Cons(Cons(1, NIL), 3)))
    assert got == [("malformed-form", "?")]
    got = diagnostic_pairs(walker.check_form(Cons(intern("let"), 3)))
    assert got == [("malformed-form", "let")]


def _improper(*items):
    """A list of `items` whose last pair ends in 3, not NIL."""
    tail = 3
    for item in reversed(items):
        tail = Cons(item, tail)
    return tail


@pytest.mark.parametrize(
    "form,head",
    [
        # (f y . 3), (g (h y) . 3) and ((lambda () y) y . 3)
        (_improper(intern("f"), intern("y")), "f"),
        (_improper(intern("g"), cons_list(intern("h"), intern("y"))), "g"),
        (_improper(read_sexpr("(lambda () y)"), intern("y")), "?"),
        # (lambda () y . 3) and (lambda (x . 3) y)
        (_improper(intern("lambda"), NIL, intern("y")), "lambda"),
        (cons_list(intern("lambda"), _improper(intern("x")), intern("y")), "lambda"),
        # (let () y . 3), (let ((a y) . 3) a) and (let ((a y) (b)) a)
        (_improper(intern("let"), NIL, intern("y")), "let"),
        (cons_list(intern("let"), _improper(read_sexpr("(a y)")), intern("a")), "let"),
        (read_sexpr("(let ((a y) (b)) a)"), "let"),
    ],
)
def test_a_malformed_form_walks_none_of_its_subforms(form, head: str) -> None:
    # the whole form is checked before any subform is walked, so the unbound
    # y in its well-formed prefix is never reported
    for walker in (Walker(), Walker(cache="none")):
        assert diagnostic_pairs(walker.check_form(form)) == [("malformed-form", head)]
    assert diagnostic_pairs(monolithic_check(form)) == [("malformed-form", head)]


def test_diagnostic_string_and_context() -> None:
    form = read_sexpr("(lambda (x) y)")
    walker = Walker()
    unused, unbound = walker.check_form(form)
    assert str(unused) == "unused-binding x"
    assert str(unbound) == "unbound-variable y"
    assert unused.context[-1] is form
    assert unbound.context[0] is intern("y")
    assert unbound.context[-1] is form


def test_diagnostics_compare_by_fields_and_are_unhashable() -> None:
    x = intern("x")
    assert Diagnostic(UNUSED_BINDING, x).context == ()
    assert Diagnostic(UNUSED_BINDING, x) == Diagnostic(UNUSED_BINDING, x, ())
    assert Diagnostic(UNUSED_BINDING, x) != Diagnostic(UNBOUND_VARIABLE, x)
    with pytest.raises(TypeError):
        hash(Diagnostic(UNUSED_BINDING, x))
    assert repr(walk_check("(lambda (x) y)")[0]) == (
        "Diagnostic(kind='unused-binding', variable=x, context=((lambda (x) y),))"
    )
    form = read_sexpr("(f y)")
    match Diagnostic(UNBOUND_VARIABLE, intern("y"), (form,)):
        case Diagnostic(kind, variable, (enclosing,)):
            assert (kind, variable, enclosing) == (UNBOUND_VARIABLE, intern("y"), form)
        case _:
            pytest.fail("a diagnostic destructures by position")

    class Finding(Diagnostic):
        pass

    assert Finding(UNUSED_BINDING, x) == Finding(UNUSED_BINDING, x)
    assert Finding(UNUSED_BINDING, x) != Diagnostic(UNUSED_BINDING, x)
    assert Diagnostic(UNUSED_BINDING, x) != Finding(UNUSED_BINDING, x)
    looped = Diagnostic(UNUSED_BINDING, x)
    looped.context = (looped,)
    assert repr(looped) == "Diagnostic(kind='unused-binding', variable=x, context=(...,))"


def test_a_walked_context_is_built_once_on_first_read() -> None:
    form = read_sexpr("(lambda (x) (let ((z 1)) (f y)))")
    unused_x, unused_z, unbound_y = Walker().check_form(form)
    assert unbound_y.context is unbound_y.context
    assert type(unbound_y.context) is tuple and unbound_y.context[0] is intern("y")
    # assigned before the first read, and after it
    unused_x.context = ("before",)
    assert unused_x.context == ("before",)
    assert unused_z.context[-1] is form
    unused_z.context = ("after",)
    assert unused_z.context == ("after",)


def test_a_walked_diagnostic_agrees_with_one_built_from_its_fields() -> None:
    form = read_sexpr("(lambda (x) (let ((z 1)) (f y)))")
    for copy_before_reading in (True, False):
        for d in Walker().check_form(form):
            copied = copy.copy(d) if copy_before_reading else None
            rebuilt = Diagnostic(d.kind, d.variable, d.context)
            for same in (d, copied or copy.copy(d)):
                assert same == rebuilt and rebuilt == same
                assert repr(same) == repr(rebuilt)


def test_walk_gf_selection_order_for_a_let_form() -> None:
    walker = Walker()
    form = read_sexpr("(let ((x 1)) x)")
    methods = walker.gf.compute_applicable_methods((form, Environment(walker.gf), (form,)))
    kinds = [type(m.specializers[0]).__name__ for m in methods]
    assert kinds == ["ConsSpecializer", "ClassSpecializer", "ClassSpecializer"]
    assert methods[0].specializers[0].car is intern("let")
    assert methods[1].specializers[0].cls.name == "cons"
    assert methods[2].specializers[0].cls.name == "t"


def test_walk_gf_generalizer_answers_are_definitive() -> None:
    walker = Walker()
    t = CLASSES["t"]
    methods, definitive = walker.gf.compute_applicable_methods_using_generalizers(
        [ConsGeneralizer(intern("let")), t, t]
    )
    assert definitive is True
    assert len(methods) == 3
    methods, definitive = walker.gf.compute_applicable_methods_using_generalizers(
        [CLASSES["symbol"], t, t]
    )
    assert definitive is True
    assert [m.specializers[0].cls.name for m in methods] == ["symbol", "t"]


def test_cons_generalizer_used_only_for_symbol_heads() -> None:
    gf = ConsGenericFunction("g", 1)
    cons = CLASSES["cons"]
    assert gf.generalizer_of(read_sexpr("(f 1)")) is cons  # no method names f yet
    gf.add_method(Method([ConsSpecializer(intern("f"))], lambda args, _next: "f form"))
    g = gf.generalizer_of(read_sexpr("(f 1)"))
    assert isinstance(g, ConsGeneralizer)
    assert g.car is intern("f")
    assert g.next is cons
    assert repr(g) == "(cons-generalizer f)"
    assert gf.generalizer_of(read_sexpr("(f 2 3)")) is g  # one per named head
    assert gf.generalizer_of(read_sexpr("(h 1)")) is cons
    assert gf(read_sexpr("(f)")) == "f form"
    # a car that is no symbol, an unhashable cons included, is never probed
    assert gf.generalizer_of(cons_list(1, 2)) is cons
    assert gf.generalizer_of(cons_list(cons_list(intern("f")), 2)) is cons


def test_walk_function_generalizes_cons_subclasses_by_head() -> None:
    gf = Walker().gf
    named = (intern("lambda"), intern("let"))
    for v in value_kinds() + [_Cons(intern("let"), NIL), _Cons(intern("lambda"), NIL)]:
        if isinstance(v, Cons) and any(v.car is head for head in named):
            g = gf.generalizer_of(v)
            assert isinstance(g, ConsGeneralizer) and g.car is v.car, v
            assert gf.generalizer_of(cons_list(v.car)) is g, v
        else:
            # the standard function's class generalizer: a head the walker's
            # methods do not name, such as f, decides nothing
            assert gf.generalizer_of(v) is class_of(v), v


def test_heads_no_method_names_share_the_cons_class_generalizer() -> None:
    cons = CLASSES["cons"]
    for gf in (Walker().gf, ConsGenericFunction("g", 1)):
        for text in ("(f)", "(g 1 2)", "(quote x)", "(nil)", "((lambda (x) x) 1)", "(1 . 2)"):
            assert gf.generalizer_of(read_sexpr(text)) is cons, text


def test_each_named_head_has_one_generalizer_per_function() -> None:
    first, second = Walker().gf, Walker().gf
    for head in ("lambda", "let"):
        g = first.generalizer_of(read_sexpr("(%s ((x 1)) x)" % head))
        assert isinstance(g, ConsGeneralizer) and g.car is intern(head)
        assert first.generalizer_of(read_sexpr("(%s)" % head)) is g
        assert first.generalizer_of(Cons(intern(head), 3)) is g
        assert second.generalizer_of(read_sexpr("(%s)" % head)) is not g
    assert first.generalizer_of(read_sexpr("(let)")) is not first.generalizer_of(read_sexpr("(lambda)"))


@pytest.mark.parametrize("mode", ["auto", "list", "none"])
def test_a_new_head_method_takes_its_forms_and_gives_them_back(mode) -> None:
    walker = Walker(cache=mode)
    form = read_sexpr("(quote x)")
    cons = CLASSES["cons"]
    assert diagnostic_pairs(walker.check_form(form)) == [("unbound-variable", "x")]
    assert walker.gf.generalizer_of(form) is cons
    method = walker.gf.add_method(Method([ConsSpecializer(intern("quote")), ANY, ANY], lambda args, _next: None))
    assert walker.gf.generalizer_of(form).car is intern("quote")
    assert walker.check_form(form) == []
    assert walker.check_form(form) == []
    assert diagnostic_pairs(walker.check_source("(f y)")) == [("unbound-variable", "y")]
    walker.gf.remove_method(method)
    assert walker.gf.generalizer_of(form) is cons
    assert diagnostic_pairs(walker.check_form(form)) == [("unbound-variable", "x")]
    assert diagnostic_pairs(walker.check_form(form)) == [("unbound-variable", "x")]


def test_walking_distinct_heads_leaves_no_generalizers_behind() -> None:
    def live_cons_generalizers():
        gc.collect()
        return sum(isinstance(o, ConsGeneralizer) for o in gc.get_objects())

    walker = Walker()
    walker.check_source("(lambda (x) (let ((y x)) (f y)))")
    before = live_cons_generalizers()
    assert before >= 2  # the walker's own, for lambda and let
    for i in range(10000):
        assert walker.check_form(cons_list(intern("distinct-head-%d" % i), 1)) == []
    assert live_cons_generalizers() <= before


def test_cons_specializer_requires_a_symbol() -> None:
    with pytest.raises(TypeError):
        ConsSpecializer("f")


def test_cons_specializer_identity_is_the_head_symbol() -> None:
    assert ConsSpecializer(intern("let")) == ConsSpecializer(intern("let"))
    assert ConsSpecializer(intern("let")) != ConsSpecializer(intern("lambda"))


def test_at_most_one_cons_method_applies() -> None:
    # distinct head symbols are disjoint, so no argument can ever see two
    # cons-specialized methods at once
    rng = random.Random(5)
    heads = [intern(s) for s in ("f", "g", "let", "lambda", "h")]
    for _ in range(100):
        gf = ConsGenericFunction("g", 1)
        for _ in range(rng.randint(1, 6)):
            gf.add_method(
                Method([ConsSpecializer(rng.choice(heads))], lambda args, _n: None)
            )
        form = cons_list(rng.choice(heads), rng.randint(0, 3))
        applicable = gf.compute_applicable_methods((form,))
        assert len(applicable) <= 1
        methods, definitive = gf.compute_applicable_methods_using_generalizers(
            [gf.generalizer_of(form)]
        )
        assert definitive is True
        assert methods == applicable


def test_walker_results_agree_across_cache_modes() -> None:
    for source, expected in WALKER_FIXTURES:
        for mode in ("auto", "list", "none"):
            walker = Walker(cache=mode)
            assert diagnostic_pairs(walker.check_source(source)) == expected


def test_walker_reuses_its_dispatch_cache() -> None:
    walker = Walker()
    walker.check_source("(let ((x 1)) x)")
    filled = len(walker.gf._state.cache)
    assert filled > 0
    walker.check_source("(let ((y 2)) y)")
    assert len(walker.gf._state.cache) == filled  # same shapes, no new entries


def test_diagnostics_are_fresh_per_check() -> None:
    walker = Walker()
    first = walker.check_source("(lambda (x) y)")
    second = walker.check_source("(let ((x 1)) x)")
    assert len(first) == 2
    assert second == []


def test_a_walk_started_inside_a_walker_method_keeps_both_results_apart() -> None:
    # a (quote form) method checks its form as a walk of its own; the outer
    # walk's diagnostics must neither leak into it nor be lost
    walker = Walker()
    inner = []

    def check_quoted(args, _next):
        inner.append(diagnostic_pairs(walker.check_form(args[0].cdr.car)))

    walker.gf.add_method(Method([ConsSpecializer(intern("quote")), ANY, ANY], check_quoted))
    outer = walker.check_source("(lambda (x) (quote (let ((z 1)) w)) y)")
    assert diagnostic_pairs(outer) == [("unused-binding", "x"), ("unbound-variable", "y")]
    assert inner == [[("unused-binding", "z"), ("unbound-variable", "w")]]


def _bound_names(scope):
    # the names a well-formed lambda or let form binds
    second = scope.cdr.car
    if scope.car is intern("lambda"):
        return set(iter_list(second))
    return {binding.car for binding in iter_list(second)}


def test_walker_agrees_with_the_benchmark_generator() -> None:
    # the benchmark's generator computes its expected diagnostics from the
    # structure it chose, without gendispatch
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
    finally:
        sys.path.remove(PERFBENCH)
    programs = [(read_sexpr(text), expected) for text, expected in inputs.walk_inputs(random.Random(23), 300)]
    scopes = (intern("lambda"), intern("let"))
    for mode in ("auto", "list", "none"):
        walker = Walker(cache=mode)
        for form, expected in programs:
            diagnostics = walker.check_form(form)
            assert diagnostic_pairs(diagnostics) == expected
            for d in diagnostics:
                assert d.context[-1] is form
                if d.kind == UNBOUND_VARIABLE:
                    assert d.context[0] is d.variable
                else:
                    assert d.kind == UNUSED_BINDING
                    assert d.context[0].car in scopes
                    assert d.variable in _bound_names(d.context[0])


def _assert_contexts_chain_to(root, diagnostics) -> None:
    # each context is a tuple ending at the root, and each of its forms is an
    # element of the next one, or the init of one of that let form's bindings
    for d in diagnostics:
        assert type(d.context) is tuple
        assert d.context[-1] is root
        for child, parent in zip(d.context, d.context[1:]):
            elements = list(iter_list(parent))
            assert any(e is child for e in elements) or (
                parent.car is intern("let") and any(b.cdr.car is child for b in iter_list(elements[1]))
            )


@pytest.mark.parametrize(
    "text",
    [
        "(f " * 300 + "x" + ")" * 300,
        "(lambda (x) " * 300 + "x" + ")" * 300,
        "(let ((x 1)) " * 300 + "x" + ")" * 300,
        "(let ((x " * 300 + "y" + ")) x)" * 300,
    ],
    ids=["call", "lambda", "let-body", "let-init"],
)
def test_deep_diagnostic_contexts_chain_direct_subforms(text) -> None:
    form = read_sexpr(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)  # two frames per level, whatever the runner's depth
    try:
        diagnostics = Walker().check_form(form)
    finally:
        sys.setrecursionlimit(limit)
    assert max(len(d.context) for d in diagnostics) >= 299
    _assert_contexts_chain_to(form, diagnostics)


def test_generated_program_contexts_chain_direct_subforms() -> None:
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
    finally:
        sys.path.remove(PERFBENCH)
    checks = (Walker().check_form, StandardWalker().check_form, monolithic_check)
    for text, _ in inputs.walk_inputs(random.Random(23), 300):
        form = read_sexpr(text)
        for check in checks:
            _assert_contexts_chain_to(form, check(form))
