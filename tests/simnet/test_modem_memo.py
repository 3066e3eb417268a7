"""The V.42bis modem model's exact-state memo changes no output.

Every :meth:`ModemCompressor.wire_bytes` return, and the ``raw_bytes`` /
``transmitted_bytes`` totals, must equal what an unmemoized reference
(:class:`LzwEncoder`, flushed per payload) gives for the same stream,
whether the memo is cold, warm, shared by several live compressors or
cleared mid-stream; and the memo must stay inside its byte budget.
"""

import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet import modem
from repro.simnet.modem import (FIRST_FREE_CODE, LzwEncoder,
                                ModemCompressor, clear_state_memo,
                                encode_flushed, state_memo_charged)


class ReferenceModem:
    """The modem model without the memo: encoder bits, flushed per payload."""

    def __init__(self, max_string=ModemCompressor.V42BIS_MAX_STRING,
                 efficiency=ModemCompressor.DEFAULT_EFFICIENCY):
        self.encoder = LzwEncoder(max_string=max_string)
        self.efficiency = efficiency
        self.bits = 0
        self.raw_bytes = 0
        self.transmitted_bytes = 0

    def wire_bytes(self, payload):
        if not payload:
            return 0
        self.encoder.encode(payload)
        total = self.encoder.flush()
        compressed = (total - self.bits + 7) // 8
        self.bits = total
        realized = int(max(0, len(payload) - compressed) * self.efficiency)
        wire = len(payload) - realized + ModemCompressor.MODE_MARKER_BYTES
        self.raw_bytes += len(payload)
        self.transmitted_bytes += wire
        return wire


@pytest.fixture(autouse=True)
def cold_memo():
    clear_state_memo()
    yield
    clear_state_memo()


def _check_stream(payloads, **kwargs):
    """Feed ``payloads`` to a memoized and a reference modem; compare."""
    memoized, reference = ModemCompressor(**kwargs), ReferenceModem(**kwargs)
    for payload in payloads:
        assert memoized.wire_bytes(payload) == reference.wire_bytes(payload)
    assert memoized.raw_bytes == reference.raw_bytes
    assert memoized.transmitted_bytes == reference.transmitted_bytes


#: Payloads from a small alphabet, so streams share dictionary strings;
#: empty payloads; and incompressible runs long enough (past the 3838
#: free codes) to force a CLEAR inside one payload.
_payload = st.one_of(
    st.binary(max_size=64).map(lambda b: bytes(x % 5 + 97 for x in b)),
    st.just(b""),
    st.integers(0, 2 ** 16).map(
        lambda seed: random.Random(seed).randbytes(4500)),
)


def _probe(stream):
    """A payload ``stream`` lacks that probes the dictionary it left.

    The stream's last payload again (the strings just learned, also
    after a CLEAR) and then the alphabet's strings, behind a byte the
    alphabet lacks.
    """
    last = next((payload for payload in reversed(stream) if payload), b"")
    return b"\x00" + last + b"aabacadaebbcbdbeccdcedde" * 4


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.lists(_payload, max_size=6),
       tails=st.lists(st.lists(_payload, min_size=1, max_size=3),
                      min_size=1, max_size=4),
       max_string=st.sampled_from([ModemCompressor.V42BIS_MAX_STRING,
                                   None]))
def test_streams_diverging_at_every_depth_match_reference(base, tails,
                                                          max_string):
    clear_state_memo()
    streams = [base]
    for depth in range(len(base) + 1):
        for tail in tails:
            streams.append(base[:depth] + tail)
    for stream in streams:
        _check_stream(stream, max_string=max_string)
    # Warm: every stream again, then a new payload at its end and at
    # every depth of the shared base, so a compressor that reached a
    # node by hits alone must rebuild its dictionary from the node's log.
    probes = [stream + [_probe(stream)] for stream in streams]
    probes += [base[:depth] + [_probe(base[:depth])]
               for depth in range(len(base))]
    for stream in streams + probes:
        _check_stream(stream, max_string=max_string)


def test_clear_code_inside_a_payload_matches_reference():
    noise = random.Random(1).randbytes(9000)
    text = b"GET /gifs/icon.gif HTTP/1.1\r\nHost: w3.org\r\n" * 40
    stream = [text, noise, text, noise[:100], b"", text]
    for _pass in ("cold", "warm"):
        _check_stream(stream)
    # Reach the node after the CLEAR by hits, then miss on the strings
    # learned since the CLEAR: the rebuilt dictionary must hold them.
    _check_stream(stream[:2] + [noise[-2000:]])


@pytest.mark.parametrize("first", ["a", "b"])
def test_live_compressors_on_one_node_diverge_after_each_other(first):
    # Both compressors reach one trie node (``a`` by a miss, so it keeps
    # its live dictionary; ``b`` by a hit).  Whichever diverges first
    # extends the node's shared key log in place; the other must copy
    # the node's prefix rather than see the extension.
    head = b"<img src=icon0.gif><img src=icon1.gif>" * 8
    a, ref_a = ModemCompressor(), ReferenceModem()
    b, ref_b = ModemCompressor(), ReferenceModem()
    assert a.wire_bytes(head) == ref_a.wire_bytes(head)
    assert b.wire_bytes(head) == ref_b.wire_bytes(head)
    assert a._state is b._state
    plans = {"a": (a, ref_a, [b"<p>alpha beta gamma</p>" * 9,
                              b"delta epsilon" * 5]),
             "b": (b, ref_b, [b"<table><tr><td>x</td></tr>" * 7,
                              b"zeta eta theta" * 5])}
    order = [first, "b" if first == "a" else "a"]
    for step in range(2):
        for name in order:
            modem_, reference, payloads = plans[name]
            payload = payloads[step]
            assert modem_.wire_bytes(payload) == reference.wire_bytes(payload)
    # Fresh compressors replay each path by hits alone, then miss: the
    # dictionary they rebuild from the node's log must be that path's.
    probe = plans["a"][2][0] + plans["b"][2][0]
    for name in order:
        _check_stream([head] + plans[name][2] + [probe])
        _check_stream([head] + plans[name][2][:1] + [probe])


@settings(max_examples=25, deadline=None)
@given(streams=st.lists(st.lists(_payload, max_size=5), min_size=2,
                        max_size=3),
       schedule=st.lists(st.integers(0, 2), max_size=15))
def test_interleaved_compressors_match_reference(streams, schedule):
    clear_state_memo()
    shared = [b"HTTP/1.1 200 OK\r\nServer: Jigsaw\r\n\r\n"]
    live = [(ModemCompressor(), ReferenceModem(), iter(shared + stream))
            for stream in streams]
    for index in schedule + [0, 1, 2] * 8:
        if index >= len(live):
            continue
        memoized, reference, payloads = live[index]
        payload = next(payloads, None)
        if payload is not None:
            assert (memoized.wire_bytes(payload)
                    == reference.wire_bytes(payload))
    for memoized, reference, _ in live:
        assert memoized.transmitted_bytes == reference.transmitted_bytes


@settings(max_examples=25, deadline=None)
@given(stream=st.lists(_payload, min_size=1, max_size=8),
       clear_at=st.sets(st.integers(0, 8)))
def test_clearing_the_memo_mid_stream_changes_no_output(stream, clear_at):
    clear_state_memo()
    _check_stream(stream)                   # warm the memo first
    memoized, reference = ModemCompressor(), ReferenceModem()
    for index, payload in enumerate(stream):
        if index in clear_at:
            clear_state_memo()
        assert memoized.wire_bytes(payload) == reference.wire_bytes(payload)
    assert memoized.transmitted_bytes == reference.transmitted_bytes


def _memo_footprint():
    """Bytes tracemalloc sees freed when the memo is dropped."""
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    clear_state_memo()
    gc.collect()
    return held - tracemalloc.get_traced_memory()[0]


def test_memo_footprint_stays_within_its_budget(monkeypatch):
    # A small budget that the stream's ~146 KB of distinct payloads plus
    # their key logs overflow, so the memo fills and clears on the way;
    # the accounting must never undercount what tracemalloc sees.
    budget = 256 * 1024
    monkeypatch.setattr(modem, "STATE_MEMO_BUDGET", budget)
    noise = random.Random(7).randbytes(100 * 1460)
    text = b"<a href=/products/>Products</a> solutions support " * 30
    tracemalloc.start()
    try:
        compressor = ModemCompressor()
        for offset in range(0, len(noise), 1460):
            compressor.wire_bytes(noise[offset:offset + 1460]
                                  + text[:offset % 997])
            assert state_memo_charged() <= budget
        charged = state_memo_charged()
        assert 0 < _memo_footprint() <= charged
    finally:
        tracemalloc.stop()


def test_worst_case_stream_costs_at_most_a_quarter_more_than_plain():
    # 2 MB of random bytes never repeats: every payload misses, and the
    # memo pays for its bookkeeping and nothing else.  Bound that cost
    # against the bits-only encode it wraps, timed payload by payload in
    # alternation so a drifting host speed hits both sides alike.
    data = random.Random(1997).randbytes(2 * 1024 * 1024)
    payloads = [data[i:i + 1460] for i in range(0, len(data), 1460)]
    limit = ModemCompressor.V42BIS_MAX_STRING
    clock = time.perf_counter
    ratios = []
    for _attempt in range(3):
        clear_state_memo()
        compressor = ModemCompressor()
        pairs, next_code = {}, FIRST_FREE_CODE
        plain = memoized = 0.0
        for payload in payloads:
            start = clock()
            _, pairs, next_code = encode_flushed(payload, pairs, next_code,
                                                 limit)
            middle = clock()
            compressor.wire_bytes(payload)
            end = clock()
            plain += middle - start
            memoized += end - middle
        assert 0 < state_memo_charged() <= modem.STATE_MEMO_BUDGET
        ratios.append(memoized / plain)
        if ratios[-1] <= 1.25:
            break
    assert min(ratios) <= 1.25, ratios
