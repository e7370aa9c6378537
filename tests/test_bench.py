"""Benchmark harness tests, run with tiny iteration budgets."""

from __future__ import annotations

import pytest

from gendispatch import bench, bench_cons, bench_signum, time_per_call
from gendispatch.bench import (
    FIXTURE_SOURCE,
    StandardWalker,
    fact_function,
    fact_oracle,
    make_fact_standard,
    monolithic_check,
)
from gendispatch import Walker, read_sexpr

# small enough to keep the whole file under a second, large enough to
# exercise the calibration loop
TINY = dict(runs=4, min_run_seconds=0.0001)


def test_time_per_call_measures_something_positive() -> None:
    us = time_per_call(lambda: sum(range(50)), **TINY)
    assert us > 0.0
    assert us < 1e5


def test_time_per_call_orders_cheap_below_expensive() -> None:
    cheap = time_per_call(lambda: None, **TINY)
    expensive = time_per_call(lambda: sum(range(20000)), **TINY)
    assert cheap < expensive


def test_fact_variants_agree_before_timing() -> None:
    assert fact_function(20) == fact_oracle(20)
    assert make_fact_standard()(20) == fact_oracle(20)


def test_walker_variants_agree_before_timing() -> None:
    form = read_sexpr(FIXTURE_SOURCE)
    expected = [(d.kind, d.variable) for d in monolithic_check(form)]
    assert expected == []  # the fixture is clean
    assert [(d.kind, d.variable) for d in StandardWalker().check_form(form)] == expected
    assert [(d.kind, d.variable) for d in Walker().check_form(form)] == expected


def test_monolithic_check_reports_like_the_dispatched_walker() -> None:
    source = "(lambda (x) (let ((y 1)) z))"
    form = read_sexpr(source)
    mono = [(d.kind, d.variable) for d in monolithic_check(form)]
    gf = [(d.kind, d.variable) for d in Walker().check_form(form)]
    assert mono == gf != []


def test_bench_signum_rows() -> None:
    results = bench_signum(**TINY)
    assert [r.implementation for r in results] == [
        "function",
        "standard-gf",
        "signum-gf/one-arg-cache",
        "signum-gf/list-cache",
        "signum-gf/no-cache",
    ]
    assert results[0].overhead_pct is None
    base = results[0].us_per_call
    for row in results[1:]:
        assert row.overhead_pct == pytest.approx((row.us_per_call / base - 1.0) * 100.0)
    assert all(r.us_per_call > 0 for r in results)


def test_bench_cons_rows() -> None:
    results = bench_cons(**TINY)
    assert [r.implementation for r in results] == [
        "function",
        "standard-gf",
        "cons-gf/one-arg-cache",
        "cons-gf/list-cache",
        "cons-gf/no-cache",
    ]
    assert results[0].overhead_pct is None
    assert all(r.us_per_call > 0 for r in results)


def _never_timed(*args, **kwargs):
    raise AssertionError("a row was timed before every row was checked")


def test_a_wrong_signum_row_stops_the_table_before_any_timing(monkeypatch) -> None:
    monkeypatch.setattr(bench, "make_fact_standard", lambda: lambda n: fact_oracle(n) + 1)
    monkeypatch.setattr(bench, "time_per_call", _never_timed)
    with pytest.raises(RuntimeError, match="^standard-gf "):
        bench_signum(**TINY)


class _ReportsOneFinding(Walker):
    def check_form(self, form):
        return super().check_form(read_sexpr("(lambda () x)"))


def test_a_wrong_cons_row_stops_the_table_before_any_timing(monkeypatch) -> None:
    def walker(mode):
        return _ReportsOneFinding(mode) if mode == "list" else Walker(mode)

    monkeypatch.setattr(bench, "Walker", walker)
    monkeypatch.setattr(bench, "time_per_call", _never_timed)
    with pytest.raises(RuntimeError, match="^cons-gf/list-cache "):
        bench_cons(**TINY)
