"""The bisection and the per-interpreter lines of scripts/matrix.py, without
starting another interpreter."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
try:
    import matrix
finally:
    sys.path.remove(os.path.join(ROOT, "scripts"))


def test_bisect_finds_the_last_depth_that_fits() -> None:
    for limit in (100, 101, 493, 3999):
        tried = []

        def fits(n):
            tried.append(n)
            return n <= limit

        assert matrix.bisect(fits, 100, 4000) == limit
        assert len(tried) <= 12


def test_an_interpreter_not_on_the_path_is_skipped_with_its_reason(monkeypatch, capsys) -> None:
    monkeypatch.setattr(matrix, "VERSIONS", ["3.99", "3.98"])
    assert matrix.main([]) == 0
    assert capsys.readouterr().out == "python3.99: skipped: not on PATH\npython3.98: skipped: not on PATH\n"
