"""V.42bis-style modem data compression (BTLZ).

The paper's "Further Compression Experiments" compare DEFLATE at the
HTTP layer against "the data compression found in current modems"
(ITU-T V.42bis), concluding that deflate is significantly better.  To
reproduce that comparison the PPP link can run each direction's byte
stream through this module: a streaming LZW compressor in the BTLZ
family, with

* a 256-symbol initial alphabet plus CLEAR / END control codes,
* variable code width growing from 9 to 12 bits,
* dictionary reset (CLEAR) when the dictionary fills, and
* per-frame *transparent mode*: if compression would expand a frame the
  modem sends it raw plus a one-byte mode marker, as V.42bis does for
  incompressible data (e.g. GIFs or already-deflated HTML).

The dictionary persists across packets in a direction, so later HTML
packets compress better than the first — exactly the stream behaviour of
a real modem pair.

:class:`LzwEncoder` / :class:`LzwDecoder` are complete, round-trippable
codecs (property-tested).  :class:`ModemCompressor` implements the
:class:`~repro.simnet.link.WireCompressor` protocol, which only needs
on-the-wire byte counts, so it counts the encoder's bits without
keeping its codes (:func:`encode_flushed`), and memoizes them on the
exact stream state: every simulated PPP user pushes the same objects
through a fresh modem pair.
"""

from __future__ import annotations

from array import array
from itertools import islice
from sys import getsizeof
from typing import Dict, List, Optional, Tuple

__all__ = ["LzwEncoder", "LzwDecoder", "lzw_compress", "lzw_decompress",
           "ModemCompressor"]

#: LZW control codes following the 256 literal byte codes.
CLEAR_CODE = 256
END_CODE = 257
FIRST_FREE_CODE = 258
MIN_CODE_BITS = 9
MAX_CODE_BITS = 12
MAX_CODES = 1 << MAX_CODE_BITS


class LzwEncoder:
    """Streaming LZW encoder with variable-width codes.

    Use :meth:`encode` repeatedly for stream chunks and :meth:`flush` to
    force out the pending prefix (a modem flushes at frame boundaries so
    the remote end can deliver the frame).

    ``max_string`` caps dictionary-string length, as V.42bis's N7
    parameter does (default 6 octets) — the reason modem compression
    tops out well below what an unbounded LZW achieves on repetitive
    text like HTTP headers.  ``None`` removes the cap.

    The dictionary stores each string as ``(prefix_code << 8) | byte``
    rather than the bytes themselves: every multi-byte string enters the
    dictionary exactly once, as its prefix's code plus one byte, so the
    pair key identifies it uniquely and the per-byte probe is an
    int-keyed dict lookup with no allocation.  Codes 0–255 are the
    implicit single-byte strings.
    """

    def __init__(self, max_string: Optional[int] = None) -> None:
        self.max_string = max_string
        self._reset_dictionary()
        self._prefix_code: Optional[int] = None
        self._prefix_len = 0
        self.codes_emitted: List[int] = []
        self.bits_emitted = 0

    def _reset_dictionary(self) -> None:
        self._dict: Dict[int, int] = {}
        self._next_code = FIRST_FREE_CODE
        self._code_bits = MIN_CODE_BITS

    def _emit(self, code: int) -> None:
        self.codes_emitted.append(code)
        self.bits_emitted += self._code_bits

    def encode(self, data: bytes) -> int:
        """Consume ``data``; return bits emitted so far (cumulative).

        The loop runs once per payload byte of every PPP packet, so the
        emit / dictionary-grow bookkeeping is inlined on locals rather
        than calling :meth:`_emit` (which :meth:`flush` still uses for
        the cold path).
        """
        limit = self.max_string
        prefix_code = self._prefix_code
        prefix_len = self._prefix_len
        pairs = self._dict
        pairs_get = pairs.get
        codes_append = self.codes_emitted.append
        bits = self.bits_emitted
        code_bits = self._code_bits
        next_code = self._next_code
        for byte in data:
            if prefix_code is None:
                prefix_code = byte
                prefix_len = 1
                continue
            key = (prefix_code << 8) | byte
            hit = pairs_get(key)
            if hit is not None and (limit is None or prefix_len < limit):
                prefix_code = hit
                prefix_len += 1
                continue
            codes_append(prefix_code)
            bits += code_bits
            if limit is None or prefix_len < limit:
                if next_code >= MAX_CODES:
                    codes_append(CLEAR_CODE)
                    bits += code_bits
                    pairs = {}
                    pairs_get = pairs.get
                    next_code = FIRST_FREE_CODE
                    code_bits = MIN_CODE_BITS
                else:
                    pairs[key] = next_code
                    next_code += 1
                    if (next_code > (1 << code_bits)
                            and code_bits < MAX_CODE_BITS):
                        code_bits += 1
            prefix_code = byte
            prefix_len = 1
        self._prefix_code = prefix_code
        self._prefix_len = prefix_len
        self._dict = pairs
        self._next_code = next_code
        self._code_bits = code_bits
        self.bits_emitted = bits
        return bits

    def flush(self) -> int:
        """Emit the pending prefix (frame boundary).  Returns total bits."""
        if self._prefix_code is not None:
            self._emit(self._prefix_code)
            self._prefix_code = None
            self._prefix_len = 0
        return self.bits_emitted

    def finish(self) -> int:
        """Flush and emit the END code.  Returns total bits."""
        self.flush()
        self._emit(END_CODE)
        return self.bits_emitted


class LzwDecoder:
    """Decoder matching :class:`LzwEncoder` (for round-trip testing).

    ``max_string`` must match the encoder's setting: both sides of a
    V.42bis link negotiate the same N7 limit and skip dictionary entries
    beyond it.
    """

    def __init__(self, max_string: Optional[int] = None) -> None:
        self.max_string = max_string
        self._reset_dictionary()
        self._previous: bytes = b""

    def _reset_dictionary(self) -> None:
        self._entries: Dict[int, bytes] = {i: bytes([i]) for i in range(256)}
        self._next_code = FIRST_FREE_CODE
        self._previous = b""

    def decode(self, codes: List[int]) -> bytes:
        """Decode a list of codes into the original bytes."""
        out = bytearray()
        for code in codes:
            if code == CLEAR_CODE:
                self._reset_dictionary()
                continue
            if code == END_CODE:
                break
            if code in self._entries:
                entry = self._entries[code]
            elif code == self._next_code and self._previous:
                entry = self._previous + self._previous[:1]
            else:
                raise ValueError(f"corrupt LZW stream: code {code}")
            out.extend(entry)
            candidate = self._previous + entry[:1]
            if (self._previous and self._next_code < MAX_CODES
                    and (self.max_string is None
                         or len(candidate) <= self.max_string)):
                self._entries[self._next_code] = candidate
                self._next_code += 1
            self._previous = entry
        return bytes(out)


def lzw_compress(data: bytes) -> Tuple[List[int], int]:
    """One-shot compress; returns (codes, total bits)."""
    encoder = LzwEncoder()
    encoder.encode(data)
    bits = encoder.finish()
    return encoder.codes_emitted, bits


def lzw_decompress(codes: List[int]) -> bytes:
    """One-shot decompress of :func:`lzw_compress` output."""
    return LzwDecoder().decode(codes)


def _code_bits(next_code: int) -> int:
    """Code width in effect once ``next_code`` is the next free code."""
    bits = MIN_CODE_BITS
    while next_code > (1 << bits) and bits < MAX_CODE_BITS:
        bits += 1
    return bits


def encode_flushed(data: bytes, pairs: Dict[int, int], next_code: int,
                   limit: int) -> Tuple[int, Dict[int, int], int]:
    """Encode ``data`` from a flushed state, then flush; count bits only.

    ``pairs`` is the live dictionary (keys as in :class:`LzwEncoder`,
    mutated in place) and ``next_code`` its next free code; ``limit``
    is the string-length cap (``max_string``, or any bound longer than
    ``data`` for none).  Returns ``(bits, pairs, next_code)``: the
    returned dictionary is a new object iff a CLEAR happened.  This is
    :meth:`LzwEncoder.encode` plus :meth:`~LzwEncoder.flush` without
    the code list, for non-empty ``data``.
    """
    code_bits = _code_bits(next_code)
    grow_at = 1 << code_bits
    pairs_get = pairs.get
    bits = 0
    stream = iter(data)
    prefix_code = next(stream)
    prefix_len = 1
    for byte in stream:
        if prefix_len < limit:
            key = (prefix_code << 8) | byte
            hit = pairs_get(key)
            if hit is not None:
                prefix_code = hit
                prefix_len += 1
                continue
            bits += code_bits
            if next_code >= MAX_CODES:
                bits += code_bits
                pairs = {}
                pairs_get = pairs.get
                next_code = FIRST_FREE_CODE
                code_bits = MIN_CODE_BITS
                grow_at = 1 << code_bits
            else:
                pairs[key] = next_code
                next_code += 1
                if next_code > grow_at and code_bits < MAX_CODE_BITS:
                    code_bits += 1
                    grow_at <<= 1
        else:
            bits += code_bits
        prefix_code = byte
        prefix_len = 1
    return bits + code_bits, pairs, next_code


# ----------------------------------------------------------------------
# Exact-state memo
# ----------------------------------------------------------------------
#
# A modem flushes at every payload, so a compressor's whole state
# between payloads is the ordered list of dictionary keys added since
# the last CLEAR (the next code and the code width follow from its
# length).  Every simulated PPP user pushes the same objects through a
# fresh compressor pair, so most payloads reach a state that has
# already encoded them.  The states form a trie: a node is "this exact
# payload sequence since a fresh compressor", and its children map the
# next payload to (compressed bytes, child node).  A hit costs one
# dictionary lookup; a miss rebuilds the live dictionary from the
# node's key log (unless the compressor still holds it from its own
# previous miss), encodes, and adds the child.

#: Byte budget of the state memo, summed over its tries; a full memo
#: is cleared, not evicted.
STATE_MEMO_BUDGET = 16 * 1024 * 1024

#: Bytes charged per memoized transition on top of its payload and key
#: log (whose arrays are charged at their exact size): the edge tuple,
#: the child node and its slot in the parent's children dict, and an
#: interned payload's object header and table entry (tracemalloc-
#: measured, rounded up).
_EDGE_BYTES = 400
_PAYLOAD_BYTES = 120


class _State:
    """One exact flushed encoder state.

    ``log[:size]`` are its dictionary keys in code order.  A log array
    is shared along a branch: a child that adds keys appends them in
    place when the array still ends at its parent's size, and copies
    the parent's prefix only where branches diverge, so ``log[:size]``
    never changes once a node holds it.
    """

    __slots__ = ("log", "size", "children")

    def __init__(self, log: array, size: int) -> None:
        self.log = log
        self.size = size
        #: payload -> (compressed bytes, child state); None until the
        #: first child (most nodes are leaves).
        self.children: Optional[Dict[bytes, Tuple[int, "_State"]]] = None


class _StateTrie:
    """States reachable from a fresh compressor with one ``max_string``."""

    __slots__ = ("root", "payloads", "charged")

    def __init__(self) -> None:
        self.root = _State(array("I"), 0)
        #: Interned payloads: one object per distinct payload, however
        #: many states it follows.
        self.payloads: Dict[bytes, bytes] = {}
        #: Accounted bytes (see :data:`STATE_MEMO_BUDGET`).
        self.charged = 0


#: The state memo: one trie per ``max_string`` setting.
_STATE_MEMO: Dict[Optional[int], _StateTrie] = {}


def _trie(max_string: Optional[int]) -> _StateTrie:
    trie = _STATE_MEMO.get(max_string)
    if trie is None:
        trie = _STATE_MEMO[max_string] = _StateTrie()
    return trie


def clear_state_memo() -> None:
    """Drop every memoized state (outputs never depend on the memo)."""
    _STATE_MEMO.clear()


def state_memo_charged() -> int:
    """Bytes the state memo currently accounts for."""
    return sum(trie.charged for trie in _STATE_MEMO.values())


class ModemCompressor:
    """The V.42bis model of one link direction.

    For each packet payload the modem compares the LZW output size with
    the raw size and transmits whichever is smaller, plus
    ``MODE_MARKER_BYTES`` of framing — the V.42bis transparent-mode
    escape.  Dictionary state carries across packets either way (real
    V.42bis keeps learning while transparent).

    ``efficiency`` is the fraction of the LZW savings the modem pair
    actually realizes.  An idealized 12-bit LZW reaches ~2.2x on HTML,
    but the paper's own modem throughput (§8.2.1: 42 KB of HTML in
    12.21 s on a 28.8k line) implies only ~1.15x from the real V.42bis
    pair — its 2048-entry LRU dictionary, frame flushes and retrains
    eat the rest.  0.25 reproduces the measured path; 1.0 gives the
    idealized codec.

    The encoding is :func:`encode_flushed` (the bits
    :class:`LzwEncoder` would emit, flushed per payload) walked through
    the exact-state memo, so a payload some compressor already encoded
    from this compressor's exact state costs a lookup.
    """

    MODE_MARKER_BYTES = 1
    #: V.42bis N7 default: dictionary strings of at most 6 octets.
    V42BIS_MAX_STRING = 6
    #: Fraction of ideal-LZW savings the modem pair realizes.
    DEFAULT_EFFICIENCY = 0.25

    def __init__(self, max_string: Optional[int] = V42BIS_MAX_STRING,
                 efficiency: float = DEFAULT_EFFICIENCY) -> None:
        self.max_string = max_string
        self.efficiency = efficiency
        self._state = _trie(max_string).root
        #: The live dictionary of ``_state`` when this compressor built
        #: it on its last miss; None after a hit.
        self._pairs: Optional[Dict[int, int]] = {}
        #: Totals for inspection: raw payload bytes vs wire bytes.
        self.raw_bytes = 0
        self.transmitted_bytes = 0

    def wire_bytes(self, payload: bytes) -> int:
        """On-the-wire byte count for ``payload`` (stateful)."""
        if not payload:
            return 0
        children = self._state.children
        edge = children.get(payload) if children is not None else None
        if edge is None:
            edge = self._encode(payload)
        else:
            self._pairs = None
        compressed, self._state = edge
        savings = max(0, len(payload) - compressed)
        realized = int(savings * self.efficiency)
        wire = len(payload) - realized + self.MODE_MARKER_BYTES
        self.raw_bytes += len(payload)
        self.transmitted_bytes += wire
        return wire

    def _encode(self, payload: bytes) -> Tuple[int, _State]:
        """Memo miss: encode ``payload`` from the current state."""
        state = self._state
        log, size = state.log, state.size
        pairs = self._pairs
        if pairs is None:
            pairs = dict(zip(log[:size], range(FIRST_FREE_CODE,
                                               FIRST_FREE_CODE + size)))
        limit = self.max_string
        bits, after, next_code = encode_flushed(
            payload, pairs, FIRST_FREE_CODE + size,
            len(payload) if limit is None else limit)
        self._pairs = after
        grown = next_code - FIRST_FREE_CODE
        cost = _EDGE_BYTES + len(payload) + _PAYLOAD_BYTES
        if after is not pairs:                  # CLEAR: a fresh log
            log = array("I", after)
            cost += getsizeof(log)
        elif grown > size:
            if len(log) != size:                # diverge from a sibling
                log = log[:size]
                before = 0
            else:
                before = getsizeof(log)
            added = list(islice(reversed(after), grown - size))
            added.reverse()
            log.extend(added)
            cost += getsizeof(log) - before
        if state_memo_charged() + cost > STATE_MEMO_BUDGET:
            clear_state_memo()
        trie = _trie(limit)
        interned = trie.payloads.setdefault(payload, payload)
        if interned is not payload:
            cost -= len(payload) + _PAYLOAD_BYTES
        trie.charged += cost
        edge = ((bits + 7) // 8, _State(log, grown))
        if state.children is None:
            state.children = {}
        state.children[interned] = edge
        return edge

    @property
    def compression_ratio(self) -> float:
        """Raw bytes divided by transmitted bytes (≥ ~1.0 so far)."""
        if self.transmitted_bytes == 0:
            return 1.0
        return self.raw_bytes / self.transmitted_bytes
