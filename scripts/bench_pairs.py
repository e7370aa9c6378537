"""Record alternating benchmark pairs of two revisions in a BENCH_<slug>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --slug NAME \\
        --claim "what improves, and why" --claimed negotiate-distinct:throughput_ops_s \\
        --pairs negotiate-distinct:1301-1310 --pairs fact:1401-1403

--claim and --claimed are optional: without --claimed the record's `claimed`
is null, as for a change that claims no gain and only checks that it held.

Each revision is extracted with `git archive` into its own temporary
directory, and `perfbench/run.py --trace 0` runs there, against that
checkout's own src/, for BENCHMARK.json's run_seconds.  A pair is one parent
run and one change run on the same workload and seed; the side that runs
first alternates from pair to pair, so a slow phase of a shared machine does
not fall on one side only.  The file is
rewritten after every pair, so an interrupted recording keeps the pairs it
finished.

The summary gives, per workload and end-to-end metric of BENCHMARK.json, each
side's median and quartiles (inclusive method), the ratio of the medians, and
in how many pairs the change was better.  The claimed metric is met when the
change is better in at least nine of ten pairs and its median beats the
parent's by more than the parent's interquartile range.

Two record-level lists of workload:metric read each metric against its
BENCHMARK.json bound.  `unresolved`: the parent's runs spread, as
(max - min) / median, wider than the bound, and the change's runs do not all
beat every parent run, so the pairs cannot tell the sides apart at that
bound.  `beyond_bound`: the change's median is worse than the parent's by
more than the bound.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    with open(path) as f:
        return json.load(f)


def end_to_end_metrics() -> dict:
    """metric name -> "higher" or "lower", whichever is better."""
    return {m["name"]: m["better"] for m in benchmark()["end_to_end"]}


def end_to_end_bounds() -> dict:
    """metric name -> its bound, a share of the parent's median."""
    return {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}


def spread(values) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def whole_pairs(runs, workload: str):
    """The seeds of the workload's whole pairs, in order, and each side's
    results by seed."""
    sides = {"parent": {}, "change": {}}
    for r in runs:
        if r["workload"] == workload:
            sides[r["side"]][r["seed"]] = r["result"]
    return [seed for seed in sides["parent"] if seed in sides["change"]], sides


def summarize(runs, metrics: dict) -> dict:
    """Per workload, over its whole pairs in seed order: failed ops, whether
    every run was correct, and per metric each side's spread, the ratio of
    medians (change / parent) and "better in k of N"."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds, sides = whole_pairs(runs, workload)
        entry = {
            "pairs": len(seeds),
            "seeds": seeds,
            "failed_ops": {side: sum(results[s]["failed"] for s in seeds) for side, results in sides.items()},
            "correct": all(results[s]["correct"] for results in sides.values() for s in seeds),
        }
        for metric, better in metrics.items():
            parent, change = ([results[s]["metrics"][metric]["value"] for s in seeds] for results in sides.values())
            wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
            entry[metric] = {
                "parent": spread(parent),
                "change": spread(change),
                "ratio_of_medians": round(statistics.median(change) / statistics.median(parent), 4),
                "change_better_in": "%d of %d" % (wins, len(seeds)),
            }
        summary[workload] = entry
    return summary


def verdicts(runs, metrics: dict, bounds: dict) -> dict:
    """The record's "unresolved" and "beyond_bound" lists of workload:metric,
    over whole pairs.  A metric is unresolved when its parent runs spread, as
    (max - min) / median, wider than its bound, unless every change run beats
    every parent run.  It is beyond bound when the change's median is worse
    than the parent's by more than the bound, as a share of the parent's."""
    found = {"unresolved": [], "beyond_bound": []}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds, sides = whole_pairs(runs, workload)
        if not seeds:
            continue
        for metric, better in metrics.items():
            parent, change = ([results[s]["metrics"][metric]["value"] for s in seeds] for results in sides.values())
            sign = 1 if better == "higher" else -1  # sign * (a - b) > 0: a is better
            base = statistics.median(parent)
            name = "%s:%s" % (workload, metric)
            if (max(parent) - min(parent)) / base > bounds[metric] and not all(
                sign * (c - p) > 0 for c in change for p in parent
            ):
                found["unresolved"].append(name)
            if sign * (base - statistics.median(change)) / base > bounds[metric]:
                found["beyond_bound"].append(name)
    return found


def claim_met(entry: dict, metric: str, better: str) -> bool:
    """Better in at least nine of ten pairs, and the medians further apart,
    in the better direction, than the parent's interquartile range."""
    m = entry[metric]
    wins, pairs = map(int, m["change_better_in"].split(" of "))
    gap = m["change"]["median"] - m["parent"]["median"]
    if better == "lower":
        gap = -gap
    return pairs > 0 and 10 * wins >= 9 * pairs and gap > m["parent"]["q3"] - m["parent"]["q1"]


def parse_pairs(text: str):
    """"workload:1301-1310" or "workload:1,5,9" -> (workload, [seeds])."""
    workload, _, seeds = text.rpartition(":")
    if "-" in seeds:
        first, last = map(int, seeds.split("-"))
        return workload, list(range(first, last + 1))
    return workload, [int(s) for s in seeds.split(",")]


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(sha: str, directory: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        # extraction filters came with 3.10.12 and 3.11.4; the archive is this
        # repository's own, so older releases extract it unfiltered
        tar.extractall(directory, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s failed in %s:\n%s" % (" ".join(command), checkout, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_args(argv=None) -> argparse.Namespace:
    """The command line, with `claimed` made into the record's claimed entry,
    or None when no metric is claimed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision measured before")
    parser.add_argument("--change", required=True, help="the revision measured after")
    parser.add_argument("--slug", required=True, help="writes BENCH_<slug>.json at the repository root")
    parser.add_argument("--claim", help="the claim, in words")
    parser.add_argument("--claimed", help="workload:metric that the claim is about")
    parser.add_argument("--pairs", required=True, action="append", type=parse_pairs, help="workload:seeds, repeatable")
    parser.add_argument("--machine", default=platform.platform(), help="a description of the machine")
    args = parser.parse_args(argv)
    if args.claimed is not None:
        workload, _, metric = args.claimed.partition(":")
        seeds = [seeds for w, seeds in args.pairs if w == workload]
        if metric not in end_to_end_metrics() or not seeds:
            parser.error("--claimed must name an end-to-end metric of a workload given to --pairs")
        args.claimed = {"workload": workload, "metric": metric, "seeds": seeds[0], "met": False}
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = end_to_end_metrics()
    bounds = end_to_end_bounds()
    seconds = benchmark()["run_seconds"]
    shas = {side: git("rev-parse", rev + "^{commit}").decode().strip() for side, rev in (("parent", args.parent), ("change", args.change))}
    record = {
        "claim": args.claim,
        "benchmark": "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0, "
        "each side in its own checkout (git archive of the commit)" % seconds,
        "pairing": "one parent run and one change run per seed; the side that runs first alternates from pair to pair",
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": args.machine,
        "claimed": args.claimed,
        "unresolved": [],
        "beyond_bound": [],
        "summary": {},
        "runs": [],
    }
    out = os.path.join(ROOT, "BENCH_%s.json" % args.slug)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: os.path.join(tmp, side) for side in shas}
        for side, sha in shas.items():
            extract(sha, checkouts[side])
        pair = 0
        for workload, seeds in args.pairs:
            for seed in seeds:
                first = ("parent", "change")[pair % 2]
                for side in (first, "change" if first == "parent" else "parent"):
                    result = run_once(checkouts[side], workload, seed, seconds)
                    record["runs"].append({"workload": workload, "seed": seed, "side": side, "first": first, "result": result})
                pair += 1
                record.update(verdicts(record["runs"], metrics, bounds))
                record["summary"] = summarize(record["runs"], metrics)
                claimed = record["claimed"]
                if claimed is not None:
                    entry = record["summary"].get(claimed["workload"])
                    claimed["met"] = entry is not None and claim_met(entry, claimed["metric"], metrics[claimed["metric"]])
                with open(out, "w") as f:
                    json.dump(record, f, indent=1)
                    f.write("\n")
                print("%s seed %d: pair %d written to %s" % (workload, seed, pair, out), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
