"""Command-line interface tests, driven through main(argv)."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading

import pytest

from gendispatch.cli import main

from conftest import fact_oracle

_INT_LIMIT = getattr(sys, "get_int_max_str_digits", None)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_no_command_is_a_usage_error(capsys) -> None:
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_walk_clean_form(tmp_path, capsys) -> None:
    path = tmp_path / "form.sexp"
    path.write_text("(let ((x 1)) x)")
    assert main(["walk", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_walk_prints_diagnostics_in_order(tmp_path, capsys) -> None:
    path = tmp_path / "form.sexp"
    path.write_text("(lambda (x) y)")
    assert main(["walk", str(path)]) == 0
    assert capsys.readouterr().out == "unused-binding x\nunbound-variable y\n"


def test_walk_missing_file(capsys) -> None:
    assert main(["walk", "/no/such/file.sexp"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_walk_file_that_is_not_utf8(tmp_path, capsys) -> None:
    path = tmp_path / "form.sexp"
    path.write_bytes(b"\xff\xfe(lambda (x) y)")
    assert main(["walk", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read %s: " % path)
    assert captured.err.count("\n") == 1


def test_walk_file_that_starts_with_a_byte_order_mark(tmp_path, capsys) -> None:
    path = tmp_path / "form.sexp"
    path.write_bytes(b"\xef\xbb\xbf(lambda (x) y)")
    assert main(["walk", str(path)]) == 0
    assert capsys.readouterr().out == "unused-binding x\nunbound-variable y\n"


def test_walk_unparsable_form(tmp_path, capsys) -> None:
    path = tmp_path / "form.sexp"
    path.write_text("(((")
    assert main(["walk", str(path)]) == 1
    assert capsys.readouterr().err != ""


def test_fact(capsys) -> None:
    assert main(["fact", "6"]) == 0
    assert capsys.readouterr().out == "720\n"
    assert main(["fact", "20"]) == 0
    assert capsys.readouterr().out == "2432902008176640000\n"


def test_fact_negative_has_no_method(capsys) -> None:
    for text in ("-2", "-3", "-1e5", "-2.5"):
        assert main(["fact", text]) == 1
        assert capsys.readouterr().out == "no-applicable-method\n"


def test_fact_rejects_non_numbers(capsys) -> None:
    assert main(["fact", "six"]) == 2
    capsys.readouterr()
    assert main(["fact", "-x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "-NaN"])
def test_fact_rejects_non_finite_numbers(text, capsys) -> None:
    # with and without "--": a leading "-" must not make argparse read
    # "-inf" as an option
    for argv in (["fact", "--", text], ["fact", text]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err


@pytest.mark.parametrize("text", ["500", "1e308"])
def test_fact_too_deep_is_a_one_line_domain_error(text, capsys) -> None:
    # 1e308 - 1 == 1e308, so that recursion never reaches the base case
    assert main(["fact", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "recursion too deep" in captured.err


def test_walk_too_deep_is_a_one_line_domain_error(tmp_path, capsys) -> None:
    path = tmp_path / "deep.sexp"
    path.write_text("(" * 600 + ")" * 600)
    assert main(["walk", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "form nested too deeply\n"


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, whose stack depth does not
    depend on the test runner's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "gendispatch", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_fact_300_fits_the_recursion_limit() -> None:
    result = run_cli("fact", "300")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "%d\n" % fact_oracle(300)


def test_fact_440_fits_the_recursion_limit() -> None:
    # the method body recurses through the discriminating function, a plain
    # function, so no level makes a C-level instance call
    result = run_cli("fact", "440")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "%d\n" % fact_oracle(440)


def test_walk_220_deep_fits_the_recursion_limit(tmp_path) -> None:
    path = tmp_path / "deep.sexp"
    path.write_text("(f " * 220 + "x" + ")" * 220)
    result = run_cli("walk", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "unbound-variable x\n"


@pytest.mark.parametrize(
    "scope",
    ["(lambda (x) ", "(let ((x 1)) "],
)
def test_walk_240_deep_binding_scopes_fit_the_recursion_limit(scope, tmp_path) -> None:
    # each scope's body loop runs in its walk_*_form frame; one more frame
    # per level would bring the limit below 200
    path = tmp_path / "deep.sexp"
    path.write_text(scope * 240 + "x" + ")" * 240)
    result = run_cli("walk", str(path))
    assert result.returncode == 0, result.stderr
    # every x but the innermost is shadowed before it is used
    assert result.stdout == "unused-binding x\n" * 239


@pytest.mark.parametrize(
    "form, stdout",
    [
        ("(f ", "unbound-variable x\n"),
        ("(lambda (x) ", "unused-binding x\n" * 319),
        ("(let ((x 1)) ", "unused-binding x\n" * 319),
    ],
    ids=["call", "lambda", "let"],
)
def test_walk_320_deep_forms_fit_the_recursion_limit(form, stdout, tmp_path) -> None:
    # two frames per nesting level: the walk function and the form's body
    path = tmp_path / "deep.sexp"
    path.write_text(form * 320 + "x" + ")" * 320)
    result = run_cli("walk", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout


@pytest.mark.parametrize(
    "form, stdout",
    [
        ("(f ", "unbound-variable x\n"),
        ("(lambda (x) ", "unused-binding x\n" * 439),
        ("(let ((x 1)) ", "unused-binding x\n" * 439),
    ],
    ids=["call", "lambda", "let"],
)
def test_walk_440_deep_forms_fit_the_recursion_limit(form, stdout, tmp_path) -> None:
    # subforms are walked through the discriminating function, a plain
    # function, so no level makes a C-level instance call
    path = tmp_path / "deep.sexp"
    path.write_text(form * 440 + "x" + ")" * 440)
    result = run_cli("walk", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout


def test_walk_integer_literal_too_long_is_a_one_line_error(tmp_path) -> None:
    path = tmp_path / "long.sexp"
    path.write_text("(f %s)" % ("1" * 5000))
    result = run_cli("walk", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "integer literal too long (at position 3)\n"


def test_walk_100000_deep_fails_in_the_walker_with_one_line(tmp_path) -> None:
    # the reader reads this; the walker's recursion is the limit
    path = tmp_path / "deep.sexp"
    path.write_text("(" * 100_000 + ")" * 100_000)
    result = run_cli("walk", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "form nested too deeply\n"


def test_negotiate_with_explicit_types(capsys) -> None:
    assert main(["negotiate", "text/html;q=0.5, text/plain", "text/html", "text/plain"]) == 0
    assert capsys.readouterr().out == "text/plain\n"


def test_negotiate_default_types(capsys) -> None:
    assert main(["negotiate", "application/xml"]) == 0
    assert capsys.readouterr().out == "application/xml\n"


def test_negotiate_unacceptable_prints_406(capsys) -> None:
    assert main(["negotiate", "image/png", "text/html"]) == 1
    assert capsys.readouterr().out == "406\n"


def test_bench_tiny_run_prints_both_tables(capsys) -> None:
    assert main(["bench", "--runs", "4", "--min-run-time", "0.0001"]) == 0
    out = capsys.readouterr().out
    assert "scenario: signum" in out
    assert "scenario: cons" in out
    assert "implementation" in out
    assert "time (µs/call)" in out
    assert "overhead" in out
    assert "signum-gf/one-arg-cache" in out
    assert "cons-gf/no-cache" in out


def test_bench_single_scenario(capsys) -> None:
    assert main(["bench", "--scenario", "signum", "--runs", "4", "--min-run-time", "0.0001"]) == 0
    out = capsys.readouterr().out
    assert "scenario: signum" in out
    assert "scenario: cons" not in out
    # baseline row has no overhead column entry
    function_row = next(line for line in out.splitlines() if line.startswith("function"))
    assert "%" not in function_row
    gf_rows = [line for line in out.splitlines() if "-gf" in line]
    assert gf_rows and all("%" in line for line in gf_rows)


def test_serve_refuses_a_taken_port(capsys) -> None:
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.bind(("", 0))
    placeholder.listen(1)
    port = placeholder.getsockname()[1]
    try:
        assert main(["serve", "--port", str(port)]) == 1
        assert "cannot bind" in capsys.readouterr().err
    finally:
        placeholder.close()


def test_serve_requires_a_port(capsys) -> None:
    assert main(["serve"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["negotiate", "text/html", "text/*"], "media type must be concrete: 'text/*'"),
        (["negotiate", "text/html", "text/html", "texthtml"], "media type must be concrete: 'texthtml'"),
        (["serve", "--port", "70000"], "port must be in 0..65535: 70000"),
        (["serve", "--port", "-1"], "port must be in 0..65535: -1"),
        (["bench", "--runs", "0"], "--runs must be at least 1: 0"),
        (["bench", "--runs", "-3"], "--runs must be at least 1: -3"),
        (["bench", "--min-run-time", "inf"], "--min-run-time must be finite and at least 0: inf"),
        (["bench", "--min-run-time", "nan"], "--min-run-time must be finite and at least 0: nan"),
        (["bench", "--min-run-time", "-0.5"], "--min-run-time must be finite and at least 0: -0.5"),
        (["negotiate", "*/*", "text/"], "media type must be concrete: 'text/'"),
        (["negotiate", "*/*", "/html"], "media type must be concrete: '/html'"),
        (["negotiate", "*/*", "text /html"], "media type must be concrete: 'text /html'"),
        (["negotiate", "*/*", "te,xt/html"], "media type must be concrete: 'te,xt/html'"),
        (["negotiate", "*/*", "text/html;q=1"], "media type must be concrete: 'text/html;q=1'"),
        # None where the interpreter has no limit on integer digits (before 3.10.7)
        (["fact", "1" * 5000], _INT_LIMIT and "integer too long: 5000 digits (limit %d)" % _INT_LIMIT()),
    ],
)
def test_out_of_range_operands_are_one_line_usage_errors(argv, message, capsys) -> None:
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    if message is None:  # the operand parses, and fact recurses too deep
        assert (code, captured.err.count("\n")) == (1, 1)
        assert "recursion too deep" in captured.err
        return
    assert code == 2
    assert captured.err == "gendispatch: %s\n" % message
