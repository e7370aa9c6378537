"""HTTP parsing, response framing, and end-to-end negotiation tests."""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from gendispatch import (
    HttpParseError,
    Response,
    handle_raw,
    make_responder,
    parse_http_request,
    respond,
)
from gendispatch import httpd
from gendispatch.httpd import format_response, open_server_socket, serve_forever


def request_bytes(accept: str | None, path: str = "/") -> bytes:
    lines = ["GET %s HTTP/1.1" % path, "Host: localhost"]
    if accept is not None:
        lines.append("Accept: %s" % accept)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def test_parse_http_request() -> None:
    req = parse_http_request(request_bytes("text/html"))
    assert req.method == "GET"
    assert req.path == "/"
    assert req.header("host") == "localhost"
    assert req.header("Accept") == "text/html"
    assert req.accept == "text/html"
    # only space and tab are trimmed from a field value (RFC 9110 5.6.3)
    req = parse_http_request(b"GET / HTTP/1.1\r\nAccept: \t \x85text/html\xa0 \t\r\n\r\n")
    assert req.accept == "\x85text/html\xa0"
    assert respond(make_responder(), req).content_type == "text/html"  # the Accept parser trims \s


def test_parse_missing_accept_defaults_to_star_star() -> None:
    req = parse_http_request(request_bytes(None))
    assert req.header("accept") is None
    assert req.accept == "*/*"


def test_parse_ignores_any_body() -> None:
    raw = b"POST /x HTTP/1.1\r\nHost: h\r\n\r\nsome body bytes"
    req = parse_http_request(raw)
    assert req.method == "POST"
    assert req.path == "/x"


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"GET / HTTP/1.1\r\nHost: h\r\n",  # no terminating blank line
        b"GET /\r\n\r\n",  # two-part request line
        b"GET / NOTHTTP\r\n\r\n",
        b"GET / HTTP/1.1\r\nbogus line\r\n\r\n",
        b"GET / HTTP/1.1\r\n: novalue\r\n\r\n",
        b"GET / HTTP/1.1\r\nAccept : text/html\r\n\r\n",  # whitespace before the colon
        b"GET / HTTP/1.1\r\n Accept: text/html\r\n\r\n",  # obs-fold line
    ],
)
def test_parse_rejects_malformed_requests(raw: bytes) -> None:
    with pytest.raises(HttpParseError):
        parse_http_request(raw)


def test_format_response_framing_is_exact() -> None:
    out = format_response(Response(200, "text/plain", b"hello\n"))
    assert out == (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/plain\r\n"
        b"Content-Length: 6\r\n"
        b"\r\n"
        b"hello\n"
    )


def test_respond_negotiates_content_type() -> None:
    responder = make_responder()
    res = respond(responder, parse_http_request(request_bytes("text/html")))
    assert (res.status, res.content_type) == (200, "text/html")
    res = respond(responder, parse_http_request(request_bytes("application/xml;q=0.9")))
    assert (res.status, res.content_type) == (200, "application/xml")
    res = respond(responder, parse_http_request(request_bytes("text/plain, text/html;q=0.5")))
    assert (res.status, res.content_type) == (200, "text/plain")
    res = respond(responder, parse_http_request(request_bytes(None)))
    assert res.status == 200  # */* accepts the first page


def test_respond_406_when_nothing_is_acceptable() -> None:
    responder = make_responder()
    res = respond(responder, parse_http_request(request_bytes("image/png")))
    assert res.status == 406
    res = respond(responder, parse_http_request(request_bytes("text/html;q=0")))
    assert res.status == 406


def test_handle_raw_status_lines() -> None:
    assert handle_raw(request_bytes("text/html")).startswith(b"HTTP/1.1 200 OK\r\n")
    assert handle_raw(request_bytes("image/png")).startswith(b"HTTP/1.1 406 Not Acceptable\r\n")
    assert handle_raw(b"garbage").startswith(b"HTTP/1.1 400 Bad Request\r\n")


def test_repeated_accept_lines_negotiate_as_one_list() -> None:
    raw = b"GET / HTTP/1.1\r\nAccept: text/html\r\nAccept: text/plain;q=0.5\r\n\r\n"
    assert parse_http_request(raw).accept == "text/html, text/plain;q=0.5"
    assert b"Content-Type: text/html\r\n" in handle_raw(raw)


def test_handle_raw_content_negotiation_end_to_end() -> None:
    out = handle_raw(request_bytes("application/xml"))
    head, _, body = out.partition(b"\r\n\r\n")
    assert b"Content-Type: application/xml" in head
    assert body.startswith(b"<?xml")
    assert ("Content-Length: %d" % len(body)).encode() in head


def test_handle_raw_is_total_over_fuzzed_bytes() -> None:
    rng = random.Random(7)
    responder = make_responder()
    for _ in range(500):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
        out = handle_raw(raw, responder)
        assert out.startswith(b"HTTP/1.1 ")
    # structured junk: valid frames around hostile header values
    for _ in range(200):
        accept = "".join(rng.choice('ab/;=,.*"\t q01') for _ in range(rng.randint(0, 40)))
        out = handle_raw(request_bytes(accept), responder)
        assert out.startswith((b"HTTP/1.1 200", b"HTTP/1.1 406"))


def fetch(port: int, raw: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(raw)
        conn.shutdown(socket.SHUT_WR)
        chunks = b""
        while True:
            data = conn.recv(4096)
            if not data:
                return chunks
            chunks += data


def test_server_over_a_real_socket() -> None:
    sock = open_server_socket(0)
    port = sock.getsockname()[1]
    thread = threading.Thread(target=serve_forever, args=(sock, None, 3), daemon=True)
    thread.start()
    try:
        out = fetch(port, request_bytes("text/plain"))
        assert out.startswith(b"HTTP/1.1 200 OK\r\n")
        assert out.endswith(b"hello\n")
        out = fetch(port, request_bytes("image/png"))
        assert out.startswith(b"HTTP/1.1 406 Not Acceptable\r\n")
        out = fetch(port, b"not http at all\r\n\r\n")
        assert out.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    finally:
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()


def test_any_status_is_framed_and_the_server_keeps_serving() -> None:
    # a status without a known reason phrase gets an empty one
    assert format_response(Response(404, "text/plain", b"")).startswith(b"HTTP/1.1 404 \r\n")
    not_found = Response(404, "text/plain", b"not found\n")
    sock = open_server_socket(0)
    port = sock.getsockname()[1]
    thread = threading.Thread(target=serve_forever, args=(sock, lambda request: not_found, 2), daemon=True)
    thread.start()
    try:
        for _ in range(2):
            out = fetch(port, request_bytes("text/plain"))
            assert out == b"HTTP/1.1 404 \r\nContent-Type: text/plain\r\nContent-Length: 10\r\n\r\nnot found\n"
    finally:
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()


def test_a_raising_responder_gets_a_500_and_the_server_keeps_serving() -> None:
    calls = []

    def raising(request):
        calls.append(request)
        if len(calls) == 1:
            raise ValueError("responder bug")
        return respond(make_responder(), request)

    sock = open_server_socket(0)
    port = sock.getsockname()[1]
    thread = threading.Thread(target=serve_forever, args=(sock, raising, 2), daemon=True)
    thread.start()
    try:
        out = fetch(port, request_bytes("text/plain"))
        assert out == format_response(Response(500, "text/plain", b"internal server error\n"))
        assert out.startswith(b"HTTP/1.1 500 Internal Server Error\r\n")
        out = fetch(port, request_bytes("text/plain"))
        assert out.startswith(b"HTTP/1.1 200 OK\r\n")
        assert out.endswith(b"hello\n")
    finally:
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()
    assert len(calls) == 2


def test_an_interrupt_in_the_responder_still_stops_the_server() -> None:
    def interrupted(request):
        raise KeyboardInterrupt

    sock = open_server_socket(0)
    port = sock.getsockname()[1]
    replies = []
    client = threading.Thread(target=lambda: replies.append(fetch(port, request_bytes("text/plain"))), daemon=True)
    client.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            serve_forever(sock, interrupted, 2)
    finally:
        client.join(timeout=5)
        sock.close()
    assert not client.is_alive()
    assert replies == [b""]  # the connection was closed without a reply


@pytest.mark.parametrize(
    "drip_bytes",
    # one byte every 0.2 s, never a whole head: about 13 s in all, far longer
    # than any single recv waits; or an idle client that sends nothing
    [b"GET / HTTP/1.1\r\nX-Slow: " + b"x" * 40, b""],
    ids=["dripping", "idle"],
)
def test_a_slow_client_holds_the_server_only_until_its_deadline(drip_bytes, monkeypatch) -> None:
    monkeypatch.setattr(httpd, "REQUEST_SECONDS", 1.0)
    sock = open_server_socket(0)
    port = sock.getsockname()[1]
    thread = threading.Thread(target=serve_forever, args=(sock, None, 2), daemon=True)
    thread.start()
    stop = threading.Event()
    dripper = socket.create_connection(("127.0.0.1", port), timeout=5)

    def drip():
        for byte in drip_bytes:
            if stop.wait(0.2):
                return
            try:
                dripper.send(bytes([byte]))
            except OSError:
                return

    drip_thread = threading.Thread(target=drip, daemon=True)
    drip_thread.start()
    try:
        time.sleep(0.3)  # the server is reading the slow client
        start = time.monotonic()
        out = fetch(port, request_bytes("text/plain"))
        elapsed = time.monotonic() - start
        assert out.startswith(b"HTTP/1.1 200 OK\r\n")
        assert elapsed < 2.0
    finally:
        stop.set()
        drip_thread.join(timeout=5)
        dripper.close()
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()
