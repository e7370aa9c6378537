"""Command-line interface tests, driven through main(argv)."""

from __future__ import annotations

import socket
import threading

import pytest

from gendispatch.cli import main


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
    assert main(["fact", "-2"]) == 1
    assert capsys.readouterr().out == "no-applicable-method\n"


def test_fact_rejects_non_numbers(capsys) -> None:
    assert main(["fact", "six"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "-NaN"])
def test_fact_rejects_non_finite_numbers(text, capsys) -> None:
    # "--" keeps argparse from reading "-inf" as an option
    assert main(["fact", "--", text]) == 2
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
