"""A minimal HTTP/1.1 responder that negotiates its content type by
dispatching on the request's Accept header.  One request per connection.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from .model import Request
from .core import Method, NoApplicableMethod
from .accept import AcceptGenericFunction, AcceptSpecializer

MAX_HEADER_BYTES = 65536
REQUEST_SECONDS = 5.0  # to send the whole request head, however it is dripped

_REASONS = {200: "OK", 400: "Bad Request", 406: "Not Acceptable"}


class HttpParseError(ValueError):
    pass


def parse_http_request(raw: bytes) -> Request:
    """Parse a raw request: request line, CRLF-separated headers, empty line.
    The body, if any, is ignored.  A field name holding whitespace, which
    includes an obs-fold continuation line, is refused (RFC 9112 section 5);
    repeated field lines are combined in order with ", " (RFC 9110 5.3)."""
    head, sep, _body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise HttpParseError("missing header terminator")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpParseError("malformed request line: %r" % lines[0])
    method, path, _version = parts
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or name.split() != [name]:  # empty, or holds whitespace
            raise HttpParseError("malformed header line: %r" % line)
        name, value = name.lower(), value.strip()
        headers[name] = headers[name] + ", " + value if name in headers else value
    return Request(method, path, headers)


@dataclass
class Response:
    status: int
    content_type: str
    body: bytes


def format_response(response: Response) -> bytes:
    head = "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n" % (
        response.status,
        _REASONS[response.status],
        response.content_type,
        len(response.body),
    )
    return head.encode("latin-1") + response.body


_PAGES = [
    ("text/html", b"<!doctype html><html><body><h1>hello</h1></body></html>\n"),
    ("application/xml", b'<?xml version="1.0"?><greeting>hello</greeting>\n'),
    ("text/plain", b"hello\n"),
]


def make_responder(cache: str = "auto") -> AcceptGenericFunction:
    """The demo respond function: one method per served media type."""
    gf = AcceptGenericFunction("respond", 1, cache=cache)
    for media_type, body in _PAGES:
        gf.add_method(Method([AcceptSpecializer(media_type)], _page(media_type, body)))
    return gf


def _page(media_type, body):
    def method_body(args, _next):
        return Response(200, media_type, body)

    return method_body


def respond(responder, request: Request) -> Response:
    try:
        return responder(request)
    except NoApplicableMethod:
        return Response(406, "text/plain", b"not acceptable\n")


_default_responder = None


def handle_raw(raw: bytes, responder=None) -> bytes:
    """Full request-to-bytes path: parse, negotiate, frame.  Malformed input
    yields a 400 instead of an exception."""
    global _default_responder
    if responder is None:
        if _default_responder is None:
            _default_responder = make_responder()
        responder = _default_responder
    try:
        request = parse_http_request(raw)
    except HttpParseError:
        return format_response(Response(400, "text/plain", b"bad request\n"))
    return format_response(respond(responder, request))


def open_server_socket(port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("", port))
        sock.listen(16)
    except OSError:
        sock.close()
        raise
    return sock


def _read_request(conn: socket.socket) -> bytes:
    deadline = time.monotonic() + REQUEST_SECONDS
    chunks = b""
    while b"\r\n\r\n" not in chunks and len(chunks) < MAX_HEADER_BYTES:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("request deadline passed")
        conn.settimeout(remaining)
        data = conn.recv(min(4096, MAX_HEADER_BYTES - len(chunks)))
        if not data:
            break
        chunks += data
    return chunks


def serve_forever(sock: socket.socket, responder=None, max_requests: int | None = None):
    """Accept loop: one request per connection, sequentially.  A request
    limit is only used by tests."""
    handled = 0
    while max_requests is None or handled < max_requests:
        conn, _addr = sock.accept()
        try:
            raw = _read_request(conn)
            if raw:
                conn.sendall(handle_raw(raw, responder))
        except OSError:
            pass  # a dropped connection must not stop the server
        finally:
            conn.close()
        handled += 1
