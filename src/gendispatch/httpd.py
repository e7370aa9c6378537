"""A minimal HTTP/1.1 responder that negotiates its content type by
dispatching on the request's Accept header.  One request per connection.
"""

from __future__ import annotations

import functools
import socket
import time
import traceback
from collections import namedtuple

from .model import Request
from .core import Method, NoApplicableMethod
from .accept import AcceptGenericFunction, AcceptSpecializer, _constantly

MAX_HEADER_BYTES = 65536
REQUEST_SECONDS = 5.0  # to send the whole request head, however it is dripped

_REASONS = {200: "OK", 400: "Bad Request", 406: "Not Acceptable", 500: "Internal Server Error"}


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
        name, value = name.lower(), value.strip(" \t")  # OWS only (RFC 9110 5.6.3)
        headers[name] = headers[name] + ", " + value if name in headers else value
    return Request(method, path, headers)


Response = namedtuple("Response", ["status", "content_type", "body"])


def format_response(response: Response) -> bytes:
    head = "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n" % (
        response.status,
        _REASONS.get(response.status, ""),  # the reason phrase may be empty (RFC 9112 4)
        response.content_type,
        len(response.body),
    )
    return head.encode("latin-1") + response.body


_PAGES = [
    Response(200, "text/html", b"<!doctype html><html><body><h1>hello</h1></body></html>\n"),
    Response(200, "application/xml", b'<?xml version="1.0"?><greeting>hello</greeting>\n'),
    Response(200, "text/plain", b"hello\n"),
]
_NOT_ACCEPTABLE = Response(406, "text/plain", b"not acceptable\n")
_BAD_REQUEST = Response(400, "text/plain", b"bad request\n")
_INTERNAL_ERROR = Response(500, "text/plain", b"internal server error\n")


def make_responder(cache: str = "auto") -> AcceptGenericFunction:
    """The demo respond function: one method per served page."""
    gf = AcceptGenericFunction("respond", 1, cache=cache)
    for page in _PAGES:
        gf.add_method(Method([AcceptSpecializer(page.content_type)], _constantly(page)))
    return gf


def respond(responder, request: Request) -> Response:
    """The responder's Response for the request, or the shared 406 one."""
    try:
        return responder(request)
    except NoApplicableMethod:
        return _NOT_ACCEPTABLE


@functools.cache  # built on first use, so that a profiler wrapping Method after import sees it
def _default_responder() -> AcceptGenericFunction:
    return make_responder()


def handle_raw(raw: bytes, responder=None) -> bytes:
    """Full request-to-bytes path: parse, negotiate, frame.  Malformed input
    yields a 400 instead of an exception."""
    try:
        request = parse_http_request(raw)
    except HttpParseError:
        return format_response(_BAD_REQUEST)
    return format_response(respond(responder or _default_responder(), request))


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
    """Accept loop: one request per connection, sequentially.  A responder
    that raises gets its client a 500.  A request limit is only used by tests."""
    handled = 0
    while max_requests is None or handled < max_requests:
        conn, _addr = sock.accept()
        try:
            raw = _read_request(conn)
            if raw:
                try:
                    response = handle_raw(raw, responder)
                except Exception:  # a failing responder must not stop the server
                    traceback.print_exc()
                    response = format_response(_INTERNAL_ERROR)
                conn.sendall(response)
        except OSError:
            pass  # a dropped connection must not stop the server
        finally:
            conn.close()
        handled += 1
