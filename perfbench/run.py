"""gendispatch benchmark: one seeded workload per run, against the checkout's
own src/ (the package need not be installed).

    python3 perfbench/run.py --workload fact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

With --trace 0 the run reports the end-to-end metrics, with the program
exactly as shipped.  With --trace 1 it runs the same ops untraced for a third
of the time, then installs the span wrappers of `spans` and runs them again,
and reports per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

import spans
from workloads import OUT, ROOT, SRC, WORKLOADS, Http

SETUP_REPEATS = 11
WARM_OPS = 200

BOUNDARIES = [
    "core.dispatch",
    "core.generalizer_of",
    "core.generalizer_hash_key",
    "core.freeze_key",
    "core.method_body",
    "core.specializer_accepts_generalizer",
    "core.specializer_order",
    "core.compute_effective_method",
    "core.compute_applicable_methods",
    "accept.parse_accept_header",
    "accept.quality",
    "reader.read_sexpr",
    "walker.walk_form",
    "httpd.parse_http_request",
    "httpd.respond",
    "httpd.format_response",
    "httpd.transport",
]


class Segment:
    """Outcome of running ops for a fixed time.

    On a shared machine the speed of the same code can change by 1.5x or
    more, in phases lasting from under a second to tens of seconds (seen on
    a 2-vCPU Xeon VM), so a figure taken over the whole run mostly measures
    which phases it fell in.  Each input is replayed many times in a run,
    and the timing metrics use each input's fastest correct repetition: its
    cost without interference from elsewhere.  A change that slows an op
    slows every repetition of it, so it still shows."""

    def __init__(self, inputs: int):
        self.attempted = 0
        self.failed = 0
        self.op_seconds = 0.0  # summed op latencies
        self.best = array("d", [float("inf")]) * inputs  # fastest latency per input, seconds

    def fastest(self) -> list:
        """Fastest latency of each input that ran correctly, ascending."""
        return sorted(t for t in self.best if t != float("inf"))


def percentile(sorted_values, p: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))]


def run_ops(workload, seconds: float, start_index: int = 0) -> Segment:
    """Closed loop: each op starts when the previous one has been checked."""
    items = workload.items
    n = len(items)
    seg = Segment(n)
    best = seg.best
    i = start_index
    end = perf_counter() + seconds
    while True:
        j = i % n
        if j == 0:
            workload.next_pass()
        x, expected = items[j]
        t0 = perf_counter()
        try:
            out = workload.op(x)
            t1 = perf_counter()
            ok = workload.correct(out, expected)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            t1 = perf_counter()
            ok, out = False, exc
        if not ok:
            seg.failed += 1
            if seg.failed <= 5:
                print("op %d failed on %r: got %r" % (i, x, out), file=sys.stderr)
        seg.attempted += 1
        latency = t1 - t0
        seg.op_seconds += latency
        if ok and latency < best[j]:
            best[j] = latency
        i += 1
        if t1 >= end:
            return seg


def warm(workload):
    """Fill caches and finish lazy set-up before timing."""
    for x, _expected in workload.items[:WARM_OPS]:
        workload.op(x)


def setup_seconds(workload) -> float:
    """Median time from process start to the first correct op, over several
    fresh processes: import, construction and the first op, and for http
    starting the server."""
    x, expected = workload.items[0]
    times = []
    for _ in range(SETUP_REPEATS):
        if isinstance(workload, Http):
            start = perf_counter()
            workload.build()
            try:
                ok = workload.correct(workload.op(x), expected)
                elapsed = perf_counter() - start
            finally:
                workload.stop()
        else:
            env = dict(os.environ, PYTHONPATH=SRC)
            probe = [sys.executable, os.path.join(os.path.dirname(__file__), "probe.py"), workload.name, json.dumps(x)]
            start = perf_counter()
            with subprocess.Popen(probe, env=env, stdout=subprocess.PIPE, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.wait(timeout=60)
            ok = proc.returncode == 0 and bool(line) and workload.correct(json.loads(line), expected)
        if not ok:
            raise RuntimeError("set-up probe for %s gave a wrong first result" % workload.name)
        times.append(elapsed)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float):
    setup = setup_seconds(workload)
    workload.build()
    try:
        warm(workload)
        seg = run_ops(workload, seconds)
        peak = workload.peak_rss_mb()
    finally:
        workload.stop()
    fastest = seg.fastest()
    if not fastest:
        raise RuntimeError("no %s op gave a correct output" % workload.name)
    print(
        "%s: %d ops, %d failed (failed_ratio %.6f); latency percentiles over %d inputs, "
        "each replayed about %d times"
        % (workload.name, seg.attempted, seg.failed, seg.failed / seg.attempted,
           len(fastest), seg.attempted // len(fastest))
    )
    metrics = {
        "throughput_ops_s": metric(len(fastest) / sum(fastest), "1/s"),
        "latency_p50_us": metric(percentile(fastest, 0.5) * 1e6, "us"),
        "latency_p99_us": metric(percentile(fastest, 0.99) * 1e6, "us"),
        "peak_rss_mb": metric(peak, "MB"),
        "setup_s": metric(setup, "s"),
    }
    return seg.attempted, seg.failed, metrics


def per_layer(workload, seconds: float):
    """Untraced then traced, on the same op stream; per-op span totals."""
    workload.build()
    try:
        warm(workload)
        plain = run_ops(workload, seconds / 3)
    finally:
        workload.stop()

    os.makedirs(OUT, exist_ok=True)
    if isinstance(workload, Http):
        workload.traced = True  # spans come from the server process
    else:
        tracer = spans.install()
    workload.build()
    try:
        warm(workload)
        traced = run_ops(workload, seconds * 2 / 3, start_index=plain.attempted)
    finally:
        workload.stop()
    if isinstance(workload, Http):
        totals = workload.server_spans()
    else:
        totals = tracer.totals
        tracer.dump(os.path.join(OUT, "spans-%s.json" % workload.name))

    ops = WARM_OPS + traced.attempted  # every op the traced program ran
    traced_op_s = traced.op_seconds / traced.attempted
    if isinstance(workload, Http):
        calls, _self_ns, total_ns = totals["httpd.handle_raw"]
        totals["httpd.transport"] = [ops, (traced_op_s * 1e9 - total_ns / calls) * ops, 0]
    metrics = {}
    for name in BOUNDARIES:
        calls, self_ns, _total_ns = totals.get(name, (0, 0, 0))
        metrics[name + ".calls_per_op"] = metric(calls / ops, "calls/op")
        metrics[name + ".self_us_per_op"] = metric(self_ns / ops / 1000.0, "us/op")
    dispatches = totals.get("core.generalizer_of", (0,))[0]
    misses = totals.get("core.compute_effective_method", (0,))[0]
    fallbacks = totals.get("core.compute_applicable_methods", (0,))[0]
    metrics["core.cache_hit_ratio"] = metric(1 - misses / dispatches if dispatches else 0.0, "ratio")
    metrics["core.fallback_ratio"] = metric(fallbacks / dispatches if dispatches else 0.0, "ratio")
    overhead = traced_op_s / (plain.op_seconds / plain.attempted)
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    print(
        "%s: traced %d ops (%d warm-up), untraced %d; %d dispatches (base of both ratios), "
        "%d definitive misses, %d fallbacks; tracing makes an op %.2fx slower"
        % (workload.name, ops, WARM_OPS, plain.attempted, dispatches, misses, fallbacks, overhead)
    )
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("%-20s %-40s %16s  %s" % ("workload", "metric", "value", "unit"))
    for name, result in results.items():
        print("%-20s %-40s %16d" % (name, "attempted", result["attempted"]))
        print("%-20s %-40s %16d" % (name, "failed", result["failed"]))
        for key, m in result["metrics"].items():
            print("%-20s %-40s %16.4f  %s" % (name, key, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gendispatch", "__init__.py")):
        print("no gendispatch sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import gendispatch

    if os.path.dirname(os.path.abspath(gendispatch.__file__)) != os.path.join(SRC, "gendispatch"):
        print("imported gendispatch from %s, not %s" % (gendispatch.__file__, SRC), file=sys.stderr)
        return 2
    if not args.trace:
        spans.assert_untraced()

    workload = WORKLOADS[args.workload](args.seed)
    attempted, failed, metrics = (per_layer if args.trace else end_to_end)(workload, args.seconds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
