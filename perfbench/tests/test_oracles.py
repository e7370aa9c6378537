"""The benchmark's oracles against hand-traced answers."""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402

# the walker fixtures of the package's own tests, as generator trees
WALKER_FIXTURES = [
    (("let", [("x", ("lit", 1))], [("var", "x")]), "(let ((x 1)) x)", []),
    (("let", [("x", ("lit", 1))], [("lit", 2)]), "(let ((x 1)) 2)", [("unused-binding", "x")]),
    (("lambda", ["x"], [("var", "y")]), "(lambda (x) y)", [("unused-binding", "x"), ("unbound-variable", "y")]),
    (("let", [("x", ("lit", 1))], [("call", "+", [("var", "x"), ("var", "x")])]), "(let ((x 1)) (+ x x))", []),
    (("call", ("call", "f", []), [("var", "y")]), "((f) y)", [("unbound-variable", "y")]),
    (("lambda", ["x"], [("lambda", ["y"], [("var", "x")])]), "(lambda (x) (lambda (y) x))", [("unused-binding", "y")]),
]


def test_walker_fixtures():
    for tree, text, expected in WALKER_FIXTURES:
        assert inputs.render_form(tree) == text
        assert inputs.expected_diagnostics(tree) == expected, text


def test_let_reports_its_own_unused_bindings_before_those_of_its_inits():
    tree = ("let", [("x", ("let", [("y", ("lit", 1))], [("lit", 2)]))], [("var", "z")])
    assert inputs.expected_diagnostics(tree) == [
        ("unused-binding", "x"),
        ("unused-binding", "y"),
        ("unbound-variable", "z"),
    ]


def test_readme_negotiation_example():
    # text/html;q=0.8, text/plain -> text/plain
    assert inputs.negotiated([("text/html", 800), ("text/plain", 1000)]) == "text/plain"


def test_negotiation_precedence_and_ties():
    # an exact range overrides a wildcard that lists it at a higher q
    assert inputs.negotiated([("*/*", 900), ("text/html", 100), ("application/xml", 0)]) == "text/plain"
    # equal q: method definition order, html before xml before plain
    assert inputs.negotiated([("text/plain", 500), ("application/*", 500)]) == "application/xml"
    assert inputs.negotiated([("*/*", 0), ("image/png", 1000)]) is None


def test_fact_of_a_float_is_a_float():
    assert inputs.same_value(inputs.fact_expected(3.0), 6.0)
    assert inputs.same_value(inputs.fact_expected(0.0), 1)
    assert not inputs.same_value(inputs.fact_expected(3), 6.0)
    assert inputs.fact_expected(20) == 2432902008176640000


def test_generated_inputs_depend_only_on_the_seed():
    for make in (inputs.fact_inputs, inputs.walk_inputs, inputs.http_inputs, inputs.distinct_headers):
        assert make(random.Random(7), 50) == make(random.Random(7), 50)
    headers = [h for h, _ in inputs.distinct_headers(random.Random(7), 500)]
    assert len(set(headers)) == len(headers)
