"""The benchmark traces named package functions; they must all still exist."""

from __future__ import annotations

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_boundary_is_an_untraced_package_function() -> None:
    # fails when a refactor renames or removes a boundary that
    # perfbench/spans.py wraps, instead of crashing a benchmark run
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    spans.assert_untraced()
