"""Seeded input generators and their correctness oracles.

Nothing here imports gendispatch: every expected output is computed from the
structure the generator chose, never by the code under test.
"""

from __future__ import annotations

import random
from itertools import accumulate

# -- fact: n uniform over 0..120, about one argument in ten a float

FACT_MAX_N = 120  # well under the seed's deepest working fact, n = 246


def fact_inputs(rng: random.Random, count: int) -> list:
    return [
        float(n) if rng.random() < 0.1 else n
        for n in (rng.randint(0, FACT_MAX_N) for _ in range(count))
    ]


def fact_expected(n):
    """Multiply in the recursion's order, innermost first: (1*1), then 2*that,
    so float products match bit for bit.  The base case returns the int 1
    even for 0.0."""
    result = 1
    for k in range(1, int(n) + 1):
        result = (float(k) if n.__class__ is float else k) * result
    return result


def same_value(got, want) -> bool:
    return got.__class__ is want.__class__ and got == want


# -- negotiation: structured Accept headers and the answer they imply

# media types the demo responder serves, in method definition order
SERVED = ("text/html", "application/xml", "text/plain")
_UNSERVED = ("application/json", "image/png", "image/webp", "application/xhtml+xml", "text/csv")
_WILDCARDS = ("text/*", "application/*", "image/*", "*/*")
_RANGES = SERVED + _UNSERVED + _WILDCARDS
_EXTENSIONS = ("level=1", "charset=utf-8", "v=b3", "format=flowed")


def negotiated(ranges) -> str | None:
    """The media type the responder should pick for a header given as
    (media range, q in thousandths) pairs, or None for 406.  An exact range
    beats type/*, which beats */*; the first of equally specific ranges
    counts.  The highest q > 0 wins, ties going to definition order."""
    best, best_q = None, 0
    for served in SERVED:
        family = served.split("/")[0] + "/*"
        q, rank = None, 0
        for media, mq in ranges:
            r = 3 if media == served else 2 if media == family else 1 if media == "*/*" else 0
            if r > rank:
                q, rank = mq, r
        if q is not None and q > best_q:
            best, best_q = served, q
    return best


def render_q(q: int, rng: random.Random) -> str:
    """q in thousandths as an HTTP qvalue, in a random legal spelling
    (0.5, 0.50, 0.500, 1, 1.0, ...)."""
    if q == 1000:
        return rng.choice(("1", "1.0", "1.00", "1.000"))
    if q == 0:
        return rng.choice(("0", "0.0", "0.000"))
    text = "0.%03d" % q
    return rng.choice([text[:i] for i in range(len(text.rstrip("0")), 6)])


def random_ranges(rng: random.Random) -> list:
    picked = rng.sample(_RANGES, rng.randint(1, 5))
    return [(media, rng.choice((1000, 1000, rng.randint(0, 1000)))) for media in picked]


def render_header(ranges, rng: random.Random) -> str:
    """Spell a header in one of many equivalent ways: element separators,
    q spelling and case, extension parameters and media-type case vary."""
    elements = []
    for media, q in ranges:
        text = media.upper() if rng.random() < 0.1 else media
        if rng.random() < 0.3:
            text += rng.choice((";", "; ")) + rng.choice(_EXTENSIONS)
        if q != 1000 or rng.random() < 0.3:
            text += rng.choice((";", "; ", " ;")) + rng.choice(("q=", "Q=")) + render_q(q, rng)
        elements.append(text)
    return rng.choice((",", ", ", " , ", ",  ")).join(elements)


def distinct_headers(rng: random.Random, count: int, refuse_share: float = 0.05) -> list:
    """`count` distinct (header, expected media type or None) pairs; about
    `refuse_share` of them are answered 406."""
    seen = set()
    out = []
    while len(out) < count:
        want_refusal = rng.random() < refuse_share
        while True:
            ranges = random_ranges(rng)
            answer = negotiated(ranges)
            if (answer is None) == want_refusal:
                break
        header = render_header(ranges, rng)
        if header not in seen:
            seen.add(header)
            out.append((header, answer))
    return out


# -- http: a fixed pool of real-world Accept headers, as (media, q) lists

_BROWSER_TAIL = [("application/xhtml+xml", 1000), ("application/xml", 900)]
HTTP_POOL = [
    # Firefox, Chrome, Safari
    ([("text/html", 1000)] + _BROWSER_TAIL + [("image/avif", 1000), ("image/webp", 1000), ("*/*", 800)],
     "text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,image/webp,*/*;q=0.8"),
    ([("text/html", 1000)] + _BROWSER_TAIL
     + [("image/avif", 1000), ("image/webp", 1000), ("image/apng", 1000), ("*/*", 800),
        ("application/signed-exchange", 700)],
     "text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,image/webp,"
     "image/apng,*/*;q=0.8,application/signed-exchange;v=b3;q=0.7"),
    ([("text/html", 1000)] + _BROWSER_TAIL + [("*/*", 800)],
     "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"),
    # curl, wget, HTTP clients and API callers
    ([("*/*", 1000)], "*/*"),
    ([("application/json", 1000), ("text/plain", 1000), ("*/*", 1000)], "application/json, text/plain, */*"),
    ([("application/xml", 1000)], "application/xml"),
    ([("text/plain", 1000)], "text/plain"),
    ([("text/html", 800), ("text/plain", 1000)], "text/html;q=0.8, text/plain"),
    ([("application/json", 1000), ("application/xml", 500)], "application/json, application/xml;q=0.5"),
    ([("text/plain", 1000), ("text/*", 500), ("*/*", 100)], "text/plain; charset=utf-8, text/*;q=0.5, */*;q=0.1"),
    ([("application/*", 1000)], "application/*"),
    ([("text/html", 0), ("*/*", 300)], "text/html;q=0, */*;q=0.3"),
]
# answered 406 by the demo responder
HTTP_REFUSED_POOL = [
    ([("application/json", 1000)], "application/json"),
    ([("image/png", 1000), ("image/*", 800)], "image/png,image/*;q=0.8"),
    ([("application/json", 1000), ("*/*", 0)], "application/json, */*;q=0"),
]
# malformed requests, answered 400 before any dispatch
HTTP_MALFORMED = [
    b"GET /\r\nAccept: text/html\r\n\r\n",
    b"GET / HTTP/1.1\r\nAccept text/html\r\n\r\n",
    b"HELLO\r\n\r\n",
]


def http_request(header: str) -> bytes:
    return ("GET / HTTP/1.1\r\nHost: localhost\r\nAccept: %s\r\n\r\n" % header).encode("latin-1")


def http_inputs(rng: random.Random, count: int) -> list:
    """(request bytes, expected (status, content type)) pairs: about 5% are
    refused with 406 and about 2% are malformed and refused with 400."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.02:
            out.append((rng.choice(HTTP_MALFORMED), (400, "text/plain")))
        elif roll < 0.07:
            ranges, header = rng.choice(HTTP_REFUSED_POOL)
            out.append((http_request(header), (406, "text/plain")))
        else:
            ranges, header = rng.choice(HTTP_POOL)
            out.append((http_request(header), (200, negotiated(ranges))))
    return out


# -- walk: generated programs as trees, rendered to text

# node shapes: ("lit", int), ("var", name), ("call", head, args) where head
# is a symbol name or a node, ("lambda", params, body),
# ("let", [(name, init)], body)

VARIABLES = ["v%d" % i for i in range(24)]
HEADS = ["op%d" % i for i in range(300)]
_HEAD_WEIGHTS = list(accumulate(1.0 / (k + 1) for k in range(len(HEADS))))  # Zipf
MAX_DEPTH = 9  # form depth; parens nest under 30, far under the walker's 195 and the reader's 496
FORM_CHARS = (150, 500)


def random_form(rng: random.Random, scope: list, depth: int = 0):
    roll = rng.random() if depth < MAX_DEPTH else rng.uniform(0.6, 1.0)
    if roll < 0.14:
        params = rng.sample(VARIABLES, rng.randint(1, 3))
        body_scope = scope + params
        return ("lambda", params, [random_form(rng, body_scope, depth + 1) for _ in range(rng.randint(1, 2))])
    if roll < 0.26:
        names = rng.sample(VARIABLES, rng.randint(1, 3))
        inits = [(name, random_form(rng, scope, depth + 1)) for name in names]
        body_scope = scope + names
        return ("let", inits, [random_form(rng, body_scope, depth + 1) for _ in range(rng.randint(1, 2))])
    if roll < 0.6:
        head = rng.choices(HEADS, cum_weights=_HEAD_WEIGHTS)[0]
        if rng.random() < 0.03:
            head = ("call", head, [])
        return ("call", head, [random_form(rng, scope, depth + 1) for _ in range(rng.randint(0, 3))])
    if roll < 0.85:
        # mostly in-scope references; the rest are often unbound
        return ("var", rng.choice(scope if scope and rng.random() < 0.8 else VARIABLES))
    return ("lit", rng.randint(-99, 999))


def render_form(node) -> str:
    kind = node[0]
    if kind == "lit":
        return str(node[1])
    if kind == "var":
        return node[1]
    if kind == "call":
        head = node[1] if isinstance(node[1], str) else render_form(node[1])
        return "(%s)" % " ".join([head] + [render_form(a) for a in node[2]])
    if kind == "lambda":
        return "(lambda (%s)%s)" % (" ".join(node[1]), "".join(" " + render_form(f) for f in node[2]))
    bindings = " ".join("(%s %s)" % (name, render_form(init)) for name, init in node[1])
    return "(let (%s)%s)" % (bindings, "".join(" " + render_form(f) for f in node[2]))


def expected_diagnostics(node) -> list:
    """(kind, variable) pairs in the walker's order: a scope's unused
    bindings, in binding order, precede everything reported from inside it
    (for let, from its inits too); unbound references follow in source
    order."""
    out: list = []
    _diagnose(node, [], out)
    return out


def _diagnose(node, frames: list, out: list):
    kind = node[0]
    if kind == "var":
        for frame in reversed(frames):
            if node[1] in frame:
                frame[node[1]] = True
                return
        out.append(("unbound-variable", node[1]))
    elif kind == "call":
        if not isinstance(node[1], str):
            _diagnose(node[1], frames, out)
        for arg in node[2]:
            _diagnose(arg, frames, out)
    elif kind in ("lambda", "let"):
        anchor = len(out)
        if kind == "lambda":
            names = node[1]
        else:
            names = [name for name, _init in node[1]]
            for _name, init in node[1]:
                _diagnose(init, frames, out)
        frame = dict.fromkeys(names, False)
        frames.append(frame)
        for form in node[2]:
            _diagnose(form, frames, out)
        frames.pop()
        out[anchor:anchor] = [("unused-binding", name) for name, used in frame.items() if not used]


def walk_inputs(rng: random.Random, count: int) -> list:
    """(source text, expected diagnostics) pairs.  Forms are kept only within
    a band of source sizes, so that per-op cost varies little between seeds."""
    out = []
    while len(out) < count:
        form = random_form(rng, [])
        text = render_form(form)
        if FORM_CHARS[0] <= len(text) <= FORM_CHARS[1]:
            out.append((text, expected_diagnostics(form)))
    return out
