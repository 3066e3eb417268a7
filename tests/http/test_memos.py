"""The HTTP hot-path memos are pure: a hit equals a fresh parse.

The parsers memoize heads by exact header-block bytes and
:class:`Headers` memoizes wire bytes by exact field tuple.  These tests
parse a corpus cold (memos empty) and warm (memos filled) and compare
every field, check that mutating a parsed message never leaks into the
memo, and check that no memo outgrows its bound.
"""

import pytest

from repro.core import run_experiment
from repro.http import (Headers, ParseError, Request, RequestParser,
                        ResponseParser, encode_chunked)
from repro.http import headers as headers_module
from repro.http import parser as parser_module

MEMOS = (parser_module._REQUEST_HEADS, parser_module._RESPONSE_HEADS,
         headers_module._WIRE_MEMO)


def clear_memos():
    for memo in MEMOS:
        memo.clear()


# ----------------------------------------------------------------------
# Corpus: every parser event of real runs, plus hand-made edge cases
# ----------------------------------------------------------------------
def record_streams(monkeypatch, cells):
    """Run ``cells`` and return each parser's calls as (kind, events)."""
    streams = {}

    def recorder(cls, name, kind):
        original = getattr(cls, name)

        def wrapper(self, *args):
            streams.setdefault(self, (kind, []))[1].append(
                (name, args))
            return original(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    recorder(RequestParser, "feed", "request")
    for name in ("feed", "expect", "eof"):
        recorder(ResponseParser, name, "response")
    for mode, scenario in cells:
        run_experiment(mode, scenario, environment="LAN", profile="Apache")
    monkeypatch.undo()
    return list(streams.values())


def replay(kind, events):
    """Re-run recorded parser calls; return the messages as field tuples."""
    parser = RequestParser() if kind == "request" else ResponseParser()
    messages = []
    for name, args in events:
        result = getattr(parser, name)(*args)
        if name == "feed":
            messages.extend(result)
        elif name == "eof" and result is not None:
            messages.append(result)
    return [fields(message) for message in messages]


def fields(message):
    if isinstance(message, Request):
        return ("request", message.method, message.target, message.version,
                message.headers.items(), bytes(message.body))
    return ("response", message.status, message.reason, message.version,
            message.request_method, message.headers.items(),
            bytes(message.body))


EDGE_CASES = [
    # chunked request and response
    ("request", [("feed", (b"POST /p HTTP/1.1\r\nHost: h\r\n"
                           b"Transfer-Encoding: chunked\r\n\r\n"
                           + encode_chunked(b"hello world", 4),))]),
    ("response", [("expect", ("GET",)),
                  ("feed", (b"HTTP/1.1 200 OK\r\n"
                            b"Transfer-Encoding: chunked\r\n\r\n"
                            + encode_chunked(b"x" * 300, 64),))]),
    # HEAD: Content-Length describes a body that never arrives
    ("response", [("expect", ("HEAD",)), ("expect", ("GET",)),
                  ("feed", (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n"
                            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
                            b"ok",))]),
    # 304 with a verbose Content-Length, then a close-delimited body
    ("response", [("expect", ("GET",)), ("expect", ("GET",)),
                  ("feed", (b"HTTP/1.1 304 Not Modified\r\n"
                            b"Content-Length: 50\r\n\r\n"
                            b"HTTP/1.0 200 OK\r\n\r\nuntil close",)),
                  ("eof", ())]),
    # HTTP/0.9 simple request and a bare-LF head
    ("request", [("feed", (b"GET /old\r\n\r\nGET /lf HTTP/1.0\n"
                           b"Host: h\n\n",))]),
]


@pytest.fixture(scope="module")
def corpus():
    monkeypatch = pytest.MonkeyPatch()
    streams = record_streams(monkeypatch, [
        ("HTTP/1.0", "first-time"), ("HTTP/1.0", "revalidate"),
        ("pipelined-compressed", "first-time"),
        ("pipelined", "revalidate")])
    return streams + EDGE_CASES


def test_corpus_covers_the_site_and_the_edge_cases(corpus):
    clear_memos()
    responses = [m for kind, events in corpus
                 for m in replay(kind, events) if m[0] == "response"]
    targets = {m[2] for kind, events in corpus
               for m in replay(kind, events) if m[0] == "request"}
    assert len(targets) >= 43
    statuses = {m[1] for m in responses}
    assert {200, 304} <= statuses
    assert "HEAD" in {m[4] for m in responses}


def test_warm_parse_equals_cold_parse(corpus):
    clear_memos()
    cold = [replay(kind, events) for kind, events in corpus]
    assert parser_module._REQUEST_HEADS and parser_module._RESPONSE_HEADS
    warm = [replay(kind, events) for kind, events in corpus]
    assert warm == cold


def test_mutating_parsed_headers_never_reaches_the_memo():
    wire = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
            b"Content-Encoding: deflate\r\nContent-Length: 2\r\n\r\nok")
    clear_memos()
    for mutate in (lambda h: h.remove("Content-Encoding"),
                   lambda h: h.set("Content-Type", "image/gif"),
                   lambda h: h.add("Via", "proxy")):
        parser = ResponseParser()
        parser.expect("GET")
        first = parser.feed(wire)[0]
        original = first.headers.items()
        mutate(first.headers)
        assert first.headers.items() != original
        again = ResponseParser()
        again.expect("GET")
        assert again.feed(wire)[0].headers.items() == original


def test_mutating_a_parsed_request_never_reaches_the_memo():
    wire = b"GET /a HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n"
    clear_memos()
    first = RequestParser().feed(wire)[0]
    first.headers.set("Host", "other")
    assert RequestParser().feed(wire)[0].headers.items() == [
        ("Host", "h"), ("Accept", "*/*")]


def test_heads_that_differ_in_any_byte_parse_apart():
    clear_memos()
    variants = [b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n",
                b"GET /a HTTP/1.1\r\nhost: h\r\n\r\n",
                b"GET /a HTTP/1.1\r\nHost: H\r\n\r\n",
                b"GET /A HTTP/1.1\r\nHost: h\r\n\r\n",
                b"GET /a HTTP/1.0\r\nHost: h\r\n\r\n"]
    parsed = [fields(RequestParser().feed(wire)[0]) for wire in variants]
    assert len(set(map(repr, parsed))) == len(variants)
    assert [fields(RequestParser().feed(w)[0]) for w in variants] == parsed


@pytest.mark.parametrize("parser_class, wire", [
    (RequestParser, b"BREW\r\nHost: h\r\n\r\n"),
    (RequestParser, b"GET / HTTP/x\r\n\r\n"),
    (RequestParser, b"GET / HTTP/1.1\r\nno colon here\r\n\r\n"),
    (ResponseParser, b"HTTP/1.1\r\n\r\n"),
    (ResponseParser, b"HTTP/1.1 abc OK\r\n\r\n"),
])
def test_malformed_heads_raise_every_time_and_are_not_cached(
        parser_class, wire):
    clear_memos()
    for _ in range(2):
        with pytest.raises(ParseError):
            parser_class().feed(wire)
    assert not parser_module._REQUEST_HEADS
    assert not parser_module._RESPONSE_HEADS


def test_wire_bytes_memo_returns_what_serialization_would():
    clear_memos()
    headers = Headers([("Host", "h"), ("Accept", "*/*")])
    cold = headers.to_bytes()
    assert cold == b"Host: h\r\nAccept: */*\r\n"
    assert headers.to_bytes() == cold
    headers.add("Accept", "image/gif")
    assert headers.to_bytes() == cold + b"Accept: image/gif\r\n"
    assert Headers([("host", "h"), ("Accept", "*/*")]).to_bytes() != cold


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
def test_head_memos_never_exceed_their_bound():
    clear_memos()
    bound = parser_module.HEAD_MEMO_MAX
    for k in range(bound + 50):
        RequestParser().feed(b"GET /%d HTTP/1.1\r\nHost: h\r\n\r\n" % k)
        parser = ResponseParser()
        parser.expect("HEAD")
        parser.feed(b"HTTP/1.1 200 OK\r\nX-N: %d\r\n\r\n" % k)
        assert len(parser_module._REQUEST_HEADS) <= bound
        assert len(parser_module._RESPONSE_HEADS) <= bound
    assert parser_module._REQUEST_HEADS


def test_wire_memo_never_exceeds_its_bound():
    clear_memos()
    bound = headers_module.WIRE_MEMO_MAX
    for k in range(bound + 50):
        assert Headers([("X-N", str(k))]).to_bytes() == b"X-N: %d\r\n" % k
        assert len(headers_module._WIRE_MEMO) <= bound
    assert headers_module._WIRE_MEMO
