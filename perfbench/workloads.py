"""The four workloads.  Each makes its inputs from a seed, builds the program
under test, runs one op on one input and checks the output against the
oracle in `inputs`.

Program functions are looked up through their modules at call time, so
that the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import select
import signal
import socket
import subprocess
import sys

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")


class Workload:
    """Made with a seed, a workload holds its (input, expected output) pairs,
    replayed in order; made without one, it only runs ops."""

    name = ""
    items: list = []

    def build(self):
        """Import and construct the program; repeated after tracing is installed."""

    def next_pass(self):
        """Called before each pass over `items`."""

    def op(self, x):
        raise NotImplementedError

    def correct(self, out, expected) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self):
        pass


class Fact(Workload):
    """make_fact()(n): the core dispatch hit path, n + 1 dispatches per op."""

    name = "fact"

    def __init__(self, seed: int | None = None):
        if seed is not None:
            rng = random.Random(seed)
            self.items = [(n, inputs.fact_expected(n)) for n in inputs.fact_inputs(rng, 2048)]

    def build(self):
        # the package's `signum` attribute is the function, not the module
        self.fact = importlib.import_module("gendispatch.signum").make_fact()

    def op(self, n):
        return self.fact(n)

    def correct(self, out, expected) -> bool:
        return inputs.same_value(out, expected)


class Walk(Workload):
    """read_sexpr then Walker().check_form on one generated program."""

    name = "walk"

    def __init__(self, seed: int | None = None):
        if seed is not None:
            self.items = inputs.walk_inputs(random.Random(seed), 1024)

    def build(self):
        from gendispatch import reader, walker

        self.reader = reader
        self.walker = walker.Walker()

    def op(self, text):
        return [(d.kind, d.variable.name) for d in self.walker.check_form(self.reader.read_sexpr(text))]

    def correct(self, out, expected) -> bool:
        return [tuple(pair) for pair in out] == expected


class NegotiateDistinct(Workload):
    """respond() on headers never seen by the responder: every op misses.

    A responder lives for one pass over the distinct headers, so the cache
    grows to a fixed size however fast the ops run, and peak memory does not
    depend on speed."""

    name = "negotiate-distinct"
    HEADERS_PER_RESPONDER = 10000

    def __init__(self, seed: int | None = None):
        if seed is not None:
            self.items = [
                (header, (200, media) if media else (406, "text/plain"))
                for header, media in inputs.distinct_headers(random.Random(seed), self.HEADERS_PER_RESPONDER)
            ]

    def build(self):
        from gendispatch import httpd, model

        self.httpd = httpd
        self.request = model.Request
        self.responder = httpd.make_responder()

    def next_pass(self):
        self.responder = self.httpd.make_responder()

    def op(self, header):
        response = self.httpd.respond(self.responder, self.request("GET", "/", {"Accept": header}))
        return (response.status, response.content_type)

    def correct(self, out, expected) -> bool:
        return tuple(out) == expected


class Http(Workload):
    """The real server in its own process; one closed-loop client making a
    fresh connection per request."""

    name = "http"

    def __init__(self, seed: int | None = None):
        if seed is not None:
            self.items = inputs.http_inputs(random.Random(seed), 1024)
        self.server = None
        self.traced = False
        self.spans_path = None

    def build(self):
        self.stop()
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
        if self.traced:
            self.spans_path = os.path.join(OUT, "server-spans-%d.json" % os.getpid())
            command = [sys.executable, "-u", os.path.join(HERE, "traced_server.py"), self.spans_path]
        else:
            command = [sys.executable, "-u", "-m", "gendispatch", "serve", "--port", "0"]
        self.server = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, cwd=ROOT)
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        line = self.server.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on port "):
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.split()[-1])

    def op(self, raw):
        with socket.create_connection(("127.0.0.1", self.port), timeout=5) as conn:
            conn.sendall(raw)
            chunks = []
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                chunks.append(data)
        return b"".join(chunks)

    def correct(self, out, expected) -> bool:
        head, sep, body = out.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.lower().split(": ", 1) for line in lines[1:])
        return (
            bool(sep)
            and lines[0].split(" ")[1] == str(expected[0])
            and fields.get("content-type") == expected[1]
            and fields.get("content-length") == str(len(body))
        )

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.server.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self):
        """Interrupt the server and wait until it has exited."""
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def server_spans(self) -> dict:
        """Span totals the traced server wrote when it stopped."""
        with open(self.spans_path) as handle:
            totals = json.load(handle)
        os.remove(self.spans_path)
        return totals


WORKLOADS = {w.name: w for w in (Fact, Walk, Http, NegotiateDistinct)}
