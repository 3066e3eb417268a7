"""Incremental HTTP message parsers.

Pipelining means messages arrive back-to-back in arbitrary TCP segment
chunks: a segment can end mid-header, a response can start in the middle
of a segment, several small 304 responses can share one segment (that is
the whole point of server-side response buffering).  Both parsers are
therefore fully incremental: :meth:`feed` accepts any byte slicing and
returns every message completed so far.

Body framing follows RFC 2068 §4.4: no body for HEAD / 204 / 304,
``Transfer-Encoding: chunked``, then ``Content-Length``, then (for
responses only) read-until-close, which HTTP/1.0 servers without
keep-alive still use.

Parsed heads are memoized by their exact header-block bytes: every
simulated user sends and receives the same few dozen heads, so after
the first user a head costs one dictionary lookup plus a fresh
:class:`Headers` copy.  The memo only ever holds heads that parsed
cleanly, and a hit returns exactly what parsing would (callers may
mutate the headers they get; the memo's own copy is never handed out).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .chunked import ChunkedDecoder
from .headers import Headers, ParseError
from .messages import Request, Response, parse_version

__all__ = ["ParseError", "RequestParser", "ResponseParser"]

#: Upper bound on a header block; longer blocks indicate a framing bug.
MAX_HEADER_BLOCK = 65536

#: Entries per parsed-head memo; a full memo is cleared, not evicted.
HEAD_MEMO_MAX = 2048

#: A memoized head: (start-line fields, headers, chunked?, Content-Length).
_Head = Tuple[tuple, Headers, bool, Optional[int]]

#: Parsed request and response heads by exact header-block bytes.
_REQUEST_HEADS: Dict[bytes, _Head] = {}
_RESPONSE_HEADS: Dict[bytes, _Head] = {}


def _find_header_end(buffer: bytearray, start: int = 0) -> Tuple[int, int]:
    """Locate the end of the header block, searching from ``start``.

    Returns ``(end_of_headers, start_of_body)`` or ``(-1, -1)`` if the
    block is incomplete.  Accepts both CRLF and bare-LF line endings, as
    real 1997 servers had to; the earlier terminator wins.
    """
    crlf = buffer.find(b"\r\n\r\n", start)
    lf = buffer.find(b"\n\n", start)
    if crlf == -1 and lf == -1:
        return -1, -1
    if crlf != -1 and (lf == -1 or crlf < lf):
        return crlf, crlf + 4
    return lf, lf + 2


def _split_header_block(block: bytes) -> List[str]:
    """Split a raw header block into decoded lines."""
    text = block.decode("latin-1")
    return text.replace("\r\n", "\n").split("\n")


def _parse_block(memo: Dict[bytes, _Head], block: bytes,
                 parse_start: Callable[[str], tuple]) -> _Head:
    """Parse a header block through ``memo``.

    ``parse_start`` turns the start line into a tuple of fields.  Errors
    propagate uncached, so malformed input raises what it always did.
    """
    head = memo.get(block)
    if head is not None:
        start, headers, chunked, length = head
        return start, headers.copy(), chunked, length
    lines = _split_header_block(block)
    start = parse_start(lines[0])
    headers = Headers.from_lines(lines[1:])
    head = (start, headers.interned(),
            headers.contains_token("Transfer-Encoding", "chunked"),
            headers.get_int("Content-Length"))
    if len(memo) >= HEAD_MEMO_MAX:
        memo.clear()
    memo[block] = head
    return start, headers, head[2], head[3]


def _parse_request_line(line: str) -> tuple:
    parts = line.split()
    if len(parts) == 2:
        # HTTP/0.9 simple request: "GET /path".
        method, target = parts
        return method, target, (0, 9)
    if len(parts) == 3:
        method, target, version_text = parts
        return method, target, parse_version(version_text)
    raise ParseError(f"malformed request line: {line!r}")


def _parse_status_line(line: str) -> tuple:
    parts = line.split(None, 2)
    if len(parts) < 2:
        raise ParseError(f"malformed status line: {line!r}")
    version = parse_version(parts[0])
    try:
        status = int(parts[1])
    except ValueError:
        raise ParseError(f"malformed status line: {line!r}") from None
    return version, status, parts[2] if len(parts) > 2 else ""


class _BodyReader:
    """Tracks body framing for the message currently being read."""

    def __init__(self, mode: str, length: int = 0) -> None:
        self.mode = mode                   # none | length | chunked | close
        self.remaining = length
        self.chunks = bytearray()
        self.chunked = ChunkedDecoder() if mode == "chunked" else None
        #: Body bytes consumed by the most recent :meth:`feed` call
        #: (drives streaming observers, e.g. incremental HTML parsing).
        self.last_consumed: bytes = b""

    def feed(self, buffer: bytearray) -> Optional[bytes]:
        """Consume body bytes from ``buffer``.

        Returns the complete body once available, else None.  Consumed
        bytes are removed from ``buffer``.
        """
        if self.mode == "none":
            self.last_consumed = b""
            return bytes(self.chunks)
        if self.mode == "length":
            take = min(self.remaining, len(buffer))
            run = bytes(buffer[:take])
            del buffer[:take]
            self.last_consumed = run
            self.remaining -= take
            if self.remaining == 0 and not self.chunks:
                return run          # the whole body came in one run
            self.chunks += run
            if self.remaining == 0:
                return bytes(self.chunks)
            return None
        if self.mode == "chunked":
            assert self.chunked is not None
            before = len(self.chunked._payload)
            done = self.chunked.feed_buffer(buffer)
            self.last_consumed = bytes(self.chunked._payload[before:])
            if done:
                return self.chunked.payload()
            return None
        # close-delimited: consume everything; finished only at EOF.
        self.last_consumed = bytes(buffer)
        self.chunks.extend(buffer)
        del buffer[:]
        return None


class RequestParser:
    """Incremental parser for a stream of HTTP requests.

    >>> parser = RequestParser()
    >>> parser.feed(b"GET /a HTTP/1.1\\r\\nHost: h\\r\\n\\r\\nGE")
    ... # doctest: +ELLIPSIS
    [Request(method='GET', target='/a', ...)]
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current: Optional[Request] = None
        self._body: Optional[_BodyReader] = None
        #: Leading buffer bytes already searched for a header terminator
        #: (keeps a head fed a byte at a time linear, not quadratic).
        self._scanned = 0
        #: Total bytes fed (wire accounting for server statistics).
        self.bytes_fed = 0

    def feed(self, data: bytes) -> List[Request]:
        """Feed bytes; return all requests completed by this chunk."""
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        completed: List[Request] = []
        while True:
            if self._current is None:
                if not self._parse_head():
                    break
            assert self._current is not None and self._body is not None
            body = self._body.feed(self._buffer)
            if body is None:
                break
            self._current.body = body
            completed.append(self._current)
            self._current = None
            self._body = None
        return completed

    def _parse_head(self) -> bool:
        # Resume the search where the last one stopped, backing up 3
        # bytes for a terminator that straddles the old end.
        end, body_start = _find_header_end(self._buffer,
                                           max(0, self._scanned - 3))
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            # Skip stray leading CRLFs between pipelined requests.
            while self._buffer[:2] == b"\r\n":
                del self._buffer[:2]
            self._scanned = len(self._buffer)
            return False
        block = bytes(self._buffer[:end])
        del self._buffer[:body_start]
        self._scanned = 0
        (method, target, version), headers, chunked, length = _parse_block(
            _REQUEST_HEADS, block, _parse_request_line)
        self._current = Request(method=method, target=target,
                                version=version, headers=headers)
        if chunked:
            self._body = _BodyReader("chunked")
        elif length:
            self._body = _BodyReader("length", length)
        else:
            self._body = _BodyReader("none")
        return True


class ResponseParser:
    """Incremental parser for a stream of HTTP responses.

    A pipelined client must know the request method each response
    answers (a HEAD response has headers describing a body that never
    arrives).  Call :meth:`expect` once per request *in order*; the
    parser pops expectations as responses complete.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._expected_methods: List[str] = []
        self._current: Optional[Response] = None
        self._body: Optional[_BodyReader] = None
        self._scanned = 0
        self.bytes_fed = 0
        #: Total responses fully parsed (lets callers map streaming
        #: body callbacks to the right outstanding request even when
        #: several responses complete inside one ``feed`` call).
        self.messages_completed = 0
        #: Optional streaming observer called as ``(response, chunk)``
        #: for every body byte-run as it is consumed — the hook that
        #: lets a client parse HTML incrementally while it downloads.
        self.on_body_chunk = None

    def expect(self, method: str) -> None:
        """Register that the next unanswered request used ``method``."""
        self._expected_methods.append(method)

    @property
    def outstanding(self) -> int:
        """Number of expected responses not yet fully parsed."""
        return len(self._expected_methods) + (
            1 if self._current is not None else 0)

    def feed(self, data: bytes) -> List[Response]:
        """Feed bytes; return all responses completed by this chunk."""
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        completed: List[Response] = []
        while True:
            if self._current is None:
                if not self._parse_head():
                    break
            assert self._current is not None and self._body is not None
            body = self._body.feed(self._buffer)
            if self.on_body_chunk is not None and self._body.last_consumed:
                self.on_body_chunk(self._current, self._body.last_consumed)
            if body is None:
                break
            self._current.body = body
            completed.append(self._current)
            self.messages_completed += 1
            self._current = None
            self._body = None
        return completed

    def eof(self) -> Optional[Response]:
        """Signal connection close; completes a close-delimited response."""
        if self._current is not None and self._body is not None \
                and self._body.mode == "close":
            self._current.body = bytes(self._body.chunks)
            response = self._current
            self._current = None
            self._body = None
            self.messages_completed += 1
            return response
        if self._current is not None:
            raise ParseError("connection closed mid-response")
        return None

    def _parse_head(self) -> bool:
        end, body_start = _find_header_end(self._buffer,
                                           max(0, self._scanned - 3))
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            self._scanned = len(self._buffer)
            return False
        block = bytes(self._buffer[:end])
        del self._buffer[:body_start]
        self._scanned = 0
        (version, status, reason), headers, chunked, length = _parse_block(
            _RESPONSE_HEADS, block, _parse_status_line)
        method = (self._expected_methods.pop(0)
                  if self._expected_methods else "GET")
        self._current = Response(status=status, version=version,
                                 headers=headers, reason=reason,
                                 request_method=method)
        self._body = self._choose_body(method, status, chunked, length)
        return True

    @staticmethod
    def _choose_body(method: str, status: int, chunked: bool,
                     length: Optional[int]) -> _BodyReader:
        if method == "HEAD" or status in (204, 304) or 100 <= status < 200:
            return _BodyReader("none")
        if chunked:
            return _BodyReader("chunked")
        if length is not None:
            return _BodyReader("length", length)
        return _BodyReader("close")
