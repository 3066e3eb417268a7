"""The streaming tokenizer's feed memo is pure: a hit equals a scan.

:meth:`HtmlTokenizer.feed` memoizes each step by ``(state, pending
text, chunk)``.  Whatever the chunking, a warm run (memo filled by an
identical cold run) must yield the same token stream, the same trailing
text and the same discovered image URLs as the cold run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.discovery import IncrementalImageScanner
from repro.content import build_microscape_site
from repro.content import htmlparse
from repro.content.html import distinct_image_urls
from repro.content.htmlparse import HtmlTokenizer, tokenize

SITE = build_microscape_site()
PAGE = SITE.objects[SITE.html_url].body

#: A small document that exercises every tokenizer state at a boundary.
TRICKY = (b"<!DOCTYPE html><p>a<!-- <img src=/hidden.gif> -->b"
          b"<IMG\nSRC='/one.gif'><img src=\"/two.gif\" alt='x>y'>"
          b"<!-x-><img src=/one.gif>tail")


def cut(data, points):
    bounds = sorted({0, len(data), *(p % (len(data) + 1) for p in points)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def stream_tokens(chunks):
    tokenizer = HtmlTokenizer()
    tokens = []
    for chunk in chunks:
        tokens.extend(tokenizer.feed(chunk.decode("latin-1")))
    return tokens, tokenizer.finish()


def scan_urls(chunks):
    scanner = IncrementalImageScanner()
    urls = []
    for chunk in chunks:
        urls.extend(scanner.feed(chunk))
    return urls


@settings(max_examples=40, deadline=None)
@given(document=st.sampled_from([PAGE, TRICKY]),
       points=st.lists(st.integers(0, len(PAGE)), max_size=60))
def test_random_chunkings_give_the_same_tokens_cold_and_warm(document,
                                                              points):
    chunks = cut(document, points)
    htmlparse._FEED_MEMO.clear()
    cold = stream_tokens(chunks)
    cold_urls = scan_urls(chunks)
    warm = stream_tokens(chunks)
    warm_urls = scan_urls(chunks)
    assert warm == cold
    assert warm_urls == cold_urls == distinct_image_urls(
        document.decode("latin-1"))


def test_warm_tokenize_equals_cold_and_returns_a_fresh_list():
    htmlparse._FEED_MEMO.clear()
    text = PAGE.decode("latin-1")
    cold = tokenize(text)
    cold.append("caller-owned")
    warm = tokenize(text)
    assert warm == cold[:-1]
    assert "caller-owned" not in tokenize(text)


def test_a_hit_restores_the_pending_state():
    """A tag split over a chunk boundary completes the same way warm."""
    htmlparse._FEED_MEMO.clear()
    runs = []
    for _ in range(2):
        tokenizer = HtmlTokenizer()
        first = tokenizer.feed('text<img sr')
        second = tokenizer.feed('c="/a.gif"><!-- open')
        third = tokenizer.feed(' still -->end')
        runs.append((first, second, third, tokenizer.finish()))
    assert runs[0] == runs[1]
    assert runs[0][1][-1].get("src") == "/a.gif"
    assert [(t.kind, t.data) for t in runs[0][2]] == [
        ("comment", " open still "), ("text", "end")]


@pytest.mark.parametrize("memo, bound", [
    ("_FEED_MEMO", "FEED_MEMO_MAX"),
    ("_CLASSIFY_CACHE", "_CLASSIFY_CACHE_MAX"),
])
def test_tokenizer_memos_never_exceed_their_bound(memo, bound):
    cache = getattr(htmlparse, memo)
    limit = getattr(htmlparse, bound)
    cache.clear()
    for k in range(limit + 50):
        HtmlTokenizer().feed(f"<p id={k}>")
        assert len(cache) <= limit
    assert cache
