"""The summary and verdict code of scripts/bench_pairs.py, on synthetic and
recorded runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
try:
    import bench_pairs
finally:
    sys.path.remove(os.path.join(ROOT, "scripts"))

METRICS = {"throughput_ops_s": "higher", "latency_p50_us": "lower"}


def run(workload, seed, side, throughput, p50, failed=0):
    metrics = {"throughput_ops_s": {"value": throughput, "unit": "1/s"}, "latency_p50_us": {"value": p50, "unit": "us"}}
    result = {"correct": failed == 0, "attempted": 1000, "failed": failed, "metrics": metrics}
    return {"workload": workload, "seed": seed, "side": side, "first": "parent", "result": result}


def test_summary_of_synthetic_pairs() -> None:
    runs = []
    for seed, (parent, change) in enumerate([(100, 120), (90, 130), (110, 125), (105, 100), (95, 140)], 1):
        runs += [run("w", seed, "parent", parent, 1e6 / parent), run("w", seed, "change", change, 1e6 / change)]
    runs.append(run("w", 6, "parent", 1, 1))  # half a pair is left out
    runs += [run("v", 1, "change", 7, 3, failed=2), run("v", 1, "parent", 5, 4)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert (w["pairs"], w["seeds"], w["failed_ops"], w["correct"]) == (5, [1, 2, 3, 4, 5], {"parent": 0, "change": 0}, True)
    assert w["throughput_ops_s"] == {
        "parent": {"median": 100, "q1": 95, "q3": 105},
        "change": {"median": 125, "q1": 120, "q3": 130},
        "ratio_of_medians": 1.25,
        "change_better_in": "4 of 5",
    }
    # lower is better for latency: the same four pairs win
    assert w["latency_p50_us"]["change_better_in"] == "4 of 5"
    assert w["latency_p50_us"]["ratio_of_medians"] == 0.8
    v = summary["v"]
    assert (v["pairs"], v["failed_ops"], v["correct"]) == (1, {"parent": 0, "change": 2}, False)
    # one pair: both quartiles are the value itself
    assert v["throughput_ops_s"]["change"] == {"median": 7, "q1": 7, "q3": 7}
    assert v["latency_p50_us"]["change_better_in"] == "1 of 1"


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr() -> None:
    def entry(changes):
        runs = []
        for seed, change in enumerate(changes):
            parent = 100 + seed % 3
            runs += [run("w", seed, "parent", parent, 1e4 / parent), run("w", seed, "change", change, 1e4 / change)]
        return bench_pairs.summarize(runs, METRICS)["w"]

    # the parent's throughputs are 100 (4 pairs), 101 and 102: median 101, IQR 1.75
    assert bench_pairs.claim_met(entry([110] * 10), "throughput_ops_s", "higher")
    assert bench_pairs.claim_met(entry([110] * 10), "latency_p50_us", "lower")
    assert bench_pairs.claim_met(entry([110] * 9 + [90]), "throughput_ops_s", "higher")
    assert not bench_pairs.claim_met(entry([110] * 8 + [90] * 2), "throughput_ops_s", "higher")
    assert not bench_pairs.claim_met(entry([102.5] * 10), "throughput_ops_s", "higher")  # within the parent's IQR
    assert not bench_pairs.claim_met(entry([90] * 10), "throughput_ops_s", "higher")


BOUNDS = {"throughput_ops_s": 0.25, "latency_p50_us": 0.25}


def verdicts(pairs):
    """The verdict lists of one workload "w" over (parent, change) throughputs;
    each run's p50 is 1e4 / its throughput."""
    runs = []
    for seed, (parent, change) in enumerate(pairs):
        runs += [run("w", seed, "parent", parent, 1e4 / parent), run("w", seed, "change", change, 1e4 / change)]
    return bench_pairs.verdicts(runs, METRICS, BOUNDS)


def test_a_metric_is_unresolved_when_the_parent_spreads_wider_than_its_bound() -> None:
    # parent 80, 100, 110: (110 - 80) / 100 = 0.3 > 0.25; the p50s spread as widely
    assert verdicts([(80, 100), (100, 100), (110, 100)])["unresolved"] == ["w:throughput_ops_s", "w:latency_p50_us"]
    # parent 90, 100, 110: 0.2, inside the bound
    assert verdicts([(90, 100), (100, 100), (110, 100)])["unresolved"] == []
    # every change run beats every parent run: resolved despite the spread
    assert verdicts([(80, 120), (100, 111), (110, 130)])["unresolved"] == []
    # one change run that only ties the slowest parent run does not beat it
    assert verdicts([(80, 120), (100, 110), (110, 130)])["unresolved"] == ["w:throughput_ops_s", "w:latency_p50_us"]


def test_a_metric_is_beyond_bound_when_its_median_is_worse_by_more_than_the_bound() -> None:
    # throughput median 100 -> 74: 26% worse; p50 100 -> 135: 35% worse
    assert verdicts([(100, 74)] * 3)["beyond_bound"] == ["w:throughput_ops_s", "w:latency_p50_us"]
    # throughput 100 -> 80: 20% worse, inside; p50 100 -> 125: exactly the bound, not beyond
    assert verdicts([(100, 80)] * 3)["beyond_bound"] == []
    # p50 alone: 100 -> 1e4 / 78 = 128.2, 28% worse; throughput 22% worse
    assert verdicts([(100, 78)] * 3)["beyond_bound"] == ["w:latency_p50_us"]
    assert verdicts([(100, 200)] * 3)["beyond_bound"] == []  # better is never beyond


@pytest.mark.parametrize(
    "name, unresolved, beyond_bound",
    [
        ("BENCH_cons_heads.json", ["walk:setup_s"], []),
        ("BENCH_class_generalizer.json", ["fact:setup_s"], []),
        ("BENCH_discriminating_arity.json", ["fact:setup_s", "negotiate-distinct:setup_s"], []),
        ("BENCH_one_miss_path.json", ["walk:setup_s", "fact:setup_s"], ["negotiate-distinct:setup_s"]),
        ("BENCH_one_miss_path_negotiate.json", ["negotiate-distinct:setup_s"], []),
    ],
)
def test_verdicts_of_recorded_files(name, unresolved, beyond_bound) -> None:
    with open(os.path.join(ROOT, name)) as f:
        record = json.load(f)
    found = bench_pairs.verdicts(record["runs"], bench_pairs.end_to_end_metrics(), bench_pairs.end_to_end_bounds())
    assert found == {"unresolved": unresolved, "beyond_bound": beyond_bound}
    if "unresolved" in record:  # written by the recorder since it gives verdicts
        assert {key: record[key] for key in found} == found
        assert bench_pairs.summarize(record["runs"], bench_pairs.end_to_end_metrics()) == record["summary"]


def test_pair_specs_parse() -> None:
    assert bench_pairs.parse_pairs("negotiate-distinct:1301-1303") == ("negotiate-distinct", [1301, 1302, 1303])
    assert bench_pairs.parse_pairs("fact:7,9") == ("fact", [7, 9])
    with pytest.raises(ValueError):
        bench_pairs.parse_pairs("fact:x")


def test_claim_and_claimed_are_optional() -> None:
    base = ["--parent", "HEAD~1", "--change", "HEAD", "--slug", "s", "--pairs", "walk:1-3", "--pairs", "fact:4"]
    args = bench_pairs.parse_args(base)
    assert (args.claim, args.claimed) == (None, None)
    args = bench_pairs.parse_args(base + ["--claim", "faster walks", "--claimed", "walk:throughput_ops_s"])
    assert args.claim == "faster walks"
    assert args.claimed == {"workload": "walk", "metric": "throughput_ops_s", "seeds": [1, 2, 3], "met": False}
    for claimed in ("http:throughput_ops_s", "walk:speed"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(base + ["--claimed", claimed])


def test_an_odd_number_of_seeds_for_a_workload_is_a_usage_error(capsys) -> None:
    base = ["--parent", "HEAD~1", "--change", "HEAD", "--slug", "s"]
    # refused before any revision is extracted or run
    odd = base + ["--pairs", "walk:1-10", "--pairs", "fact:1-3"]
    assert bench_pairs.main(odd) == 2
    assert "even number of seeds" in capsys.readouterr().err
    assert bench_pairs.odd_workloads(bench_pairs.parse_args(odd).pairs) == ["fact"]
    # a workload's seeds count over all its --pairs
    even = base + ["--pairs", "walk:1-3", "--pairs", "fact:4,5", "--pairs", "walk:6"]
    assert bench_pairs.odd_workloads(bench_pairs.parse_args(even).pairs) == []


@pytest.mark.parametrize(
    "name",
    [
        "BENCH_discriminating_function.json",
        "BENCH_walk_op.json",
        "BENCH_discriminating_arity.json",
        "BENCH_cons_heads.json",
        "BENCH_class_generalizer.json",
    ],
)
def test_summary_reproduces_a_recorded_file(name) -> None:
    with open(os.path.join(ROOT, name)) as f:
        record = json.load(f)
    metrics = bench_pairs.end_to_end_metrics()
    assert bench_pairs.summarize(record["runs"], metrics) == record["summary"]
    claimed = record["claimed"]
    if claimed is None:  # recorded to check that nothing got worse
        return
    entry = record["summary"][claimed["workload"]]
    assert bench_pairs.claim_met(entry, claimed["metric"], metrics[claimed["metric"]]) == claimed["met"]


def test_extract_writes_a_revision_into_a_directory(tmp_path) -> None:
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("the tests run outside a git checkout")
    bench_pairs.extract("HEAD", str(tmp_path))
    with open(tmp_path / "BENCHMARK.json") as f:
        assert json.load(f) == bench_pairs.benchmark()
    assert (tmp_path / "perfbench" / "run.py").is_file()
    assert (tmp_path / "src" / "gendispatch" / "accept.py").is_file()
