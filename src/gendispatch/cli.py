"""Command-line front end: walk, fact, negotiate, serve, bench."""

from __future__ import annotations

import argparse
import math
import sys

from .core import NoApplicableMethod
from .reader import ParseError
from .accept import negotiate
from .bench import MIN_RUN_SECONDS, RUNS, bench_cons, bench_signum
from .httpd import open_server_socket, serve_forever
from .signum import make_fact
from .walker import walk_check

_DEMO_TYPES = ["text/html", "application/xml", "text/plain"]


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number: %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gendispatch")
    commands = parser.add_subparsers(dest="command", required=True)

    walk = commands.add_parser("walk", help="report binding diagnostics for a form")
    walk.add_argument("file", help="file containing one s-expression")

    fact = commands.add_parser("fact", help="factorial via sign-dispatched methods")
    fact.add_argument("n", type=_number)

    neg = commands.add_parser("negotiate", help="pick a media type for an Accept header")
    neg.add_argument("header")
    neg.add_argument("types", nargs="*", default=None, help="candidate media types")

    serve = commands.add_parser("serve", help="run the content-negotiating HTTP server")
    serve.add_argument("--port", type=int, required=True)

    bench = commands.add_parser("bench", help="compare dispatch implementations")
    bench.add_argument("--scenario", choices=["signum", "cons"], default=None)
    bench.add_argument("--runs", type=int, default=RUNS)
    bench.add_argument("--min-run-time", type=float, default=MIN_RUN_SECONDS)
    return parser


def _mark_number_operand(argv):
    """argparse reads "-inf", "-nan" and "-1e5" as options, not as fact's
    operand; put "--" before any number so that _number judges it."""
    if len(argv) == 2 and argv[0] == "fact":
        try:
            float(argv[1])
        except ValueError:
            return argv
        return ["fact", "--", argv[1]]
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_mark_number_operand(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "walk":
        return _cmd_walk(args.file)
    if args.command == "fact":
        return _cmd_fact(args.n)
    if args.command == "negotiate":
        return _cmd_negotiate(args.header, args.types or _DEMO_TYPES)
    if args.command == "serve":
        return _cmd_serve(args.port)
    return _cmd_bench(args.scenario, args.runs, args.min_run_time)


def _cmd_walk(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("cannot read %s: %s" % (path, exc), file=sys.stderr)
        return 1
    try:
        diagnostics = walk_check(text)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except RecursionError:
        print("form nested too deeply", file=sys.stderr)
        return 1
    for diagnostic in diagnostics:
        print(diagnostic)
    return 0


def _cmd_fact(n) -> int:
    try:
        print(make_fact()(n))
        return 0
    except NoApplicableMethod:
        print("no-applicable-method")
        return 1
    except RecursionError:
        print("recursion too deep for fact %s" % (n,), file=sys.stderr)
        return 1


def _cmd_negotiate(header: str, types) -> int:
    try:
        selected = negotiate(header, types)
    except ValueError as exc:  # a media type that is not concrete
        print("gendispatch: %s" % exc, file=sys.stderr)
        return 2
    if selected is None:
        print("406")
        return 1
    print(selected)
    return 0


def _cmd_serve(port: int) -> int:
    if not 0 <= port <= 65535:
        print("gendispatch: port must be in 0..65535: %d" % port, file=sys.stderr)
        return 2
    try:
        sock = open_server_socket(port)
    except OSError as exc:
        print("cannot bind port %d: %s" % (port, exc), file=sys.stderr)
        return 1
    print("listening on port %d" % sock.getsockname()[1])
    try:
        serve_forever(sock)
    except KeyboardInterrupt:
        pass
    finally:
        sock.close()
    return 0


def _cmd_bench(scenario, runs, min_run_seconds) -> int:
    if runs < 1:
        print("gendispatch: --runs must be at least 1: %d" % runs, file=sys.stderr)
        return 2
    if not 0 <= min_run_seconds < math.inf:
        message = "--min-run-time must be finite and at least 0: %s" % min_run_seconds
        print("gendispatch: " + message, file=sys.stderr)
        return 2
    scenarios = [scenario] if scenario else ["signum", "cons"]
    try:
        for i, name in enumerate(scenarios):
            results = (bench_signum if name == "signum" else bench_cons)(runs, min_run_seconds)
            if i:
                print()
            print("scenario: %s" % name)
            _print_table(results)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _print_table(results):
    rows = [
        (
            r.implementation,
            "%.2f" % r.us_per_call,
            "" if r.overhead_pct is None else "%+.0f%%" % r.overhead_pct,
        )
        for r in results
    ]
    headers = ("implementation", "time (µs/call)", "overhead")
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


if __name__ == "__main__":
    sys.exit(main())
