"""Ordered, case-insensitive HTTP header collection.

HTTP field names are case-insensitive (RFC 2068 §4.2) but the paper's
byte counts depend on exactly what goes on the wire, so :class:`Headers`
preserves the original spelling and ordering for serialization while
matching case-insensitively for lookups.

Lookups are a hot path — every simulated request/response consults a
handful of fields — so the collection maintains a parallel list of
lowercased names, paying ``str.lower`` once per field at insertion
instead of once per field per lookup.  Wire bytes are memoized by the
exact field tuple: the server and the robot serialize the same few
dozen header sets over and over.
"""

from __future__ import annotations

from sys import intern
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Headers", "ParseError"]

#: Entries in the wire-bytes memo; a full memo is cleared, not evicted.
WIRE_MEMO_MAX = 256

#: Serialized header lines by exact ``(name, value)`` tuple.
_WIRE_MEMO: Dict[Tuple[Tuple[str, str], ...], bytes] = {}


class ParseError(ValueError):
    """Raised on malformed HTTP input (defined here, the lowest layer
    that parses peer bytes; :mod:`repro.http.parser` re-exports it)."""


class Headers:
    """An ordered multimap of HTTP header fields.

    >>> h = Headers([("Host", "www26.w3.org")])
    >>> h.set("Accept-Encoding", "deflate")
    >>> h.get("accept-encoding")
    'deflate'
    >>> "HOST" in h
    True
    """

    __slots__ = ("_items", "_lower")

    def __init__(self,
                 items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        self._lower: List[str] = []
        if items:
            for name, value in items:
                self.add(name, value)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, name: str, value: str) -> None:
        """Append a field, keeping any existing fields of the same name."""
        self._items.append((name, str(value)))
        self._lower.append(name.lower())

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single field."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> int:
        """Remove all fields named ``name``; returns how many were removed."""
        lowered = name.lower()
        if lowered not in self._lower:
            return 0
        before = len(self._items)
        kept = [(item, low) for item, low in zip(self._items, self._lower)
                if low != lowered]
        self._items = [item for item, _ in kept]
        self._lower = [low for _, low in kept]
        return before - len(self._items)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of field ``name``, or ``default``."""
        lowered = name.lower()
        try:
            return self._items[self._lower.index(lowered)][1]
        except ValueError:
            return default

    def get_all(self, name: str) -> List[str]:
        """All values of field ``name`` in order."""
        lowered = name.lower()
        if lowered not in self._lower:
            return []
        return [item[1] for item, low in zip(self._items, self._lower)
                if low == lowered]

    def get_int(self, name: str) -> Optional[int]:
        """Integer value of field ``name``, or None if absent/invalid."""
        value = self.get(name)
        if value is None:
            return None
        try:
            return int(value.strip())
        except ValueError:
            return None

    def contains_token(self, name: str, token: str) -> bool:
        """True if a comma-separated field contains ``token`` (case-insensitive).

        Used for e.g. ``Connection: keep-alive`` and
        ``Accept-Encoding: deflate`` checks.
        """
        if name.lower() not in self._lower:
            return False
        token = token.lower()
        for value in self.get_all(name):
            for part in value.split(","):
                if part.strip().lower() == token:
                    return True
        return False

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._lower

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def items(self) -> List[Tuple[str, str]]:
        """All (name, value) pairs in serialization order."""
        return list(self._items)

    def copy(self) -> "Headers":
        """A shallow copy preserving order and spelling."""
        duplicate = Headers()
        duplicate._items = list(self._items)
        duplicate._lower = list(self._lower)
        return duplicate

    def interned(self) -> "Headers":
        """A copy whose strings are interned, for long-lived templates.

        Memoized heads that differ in one field (typically ``Date``)
        then share every other string instead of each holding its own.
        """
        duplicate = Headers()
        duplicate._items = [(intern(n), intern(v)) for n, v in self._items]
        duplicate._lower = [intern(low) for low in self._lower]
        return duplicate

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize as ``Name: value\\r\\n`` lines (no terminating blank)."""
        key = tuple(self._items)
        wire = _WIRE_MEMO.get(key)
        if wire is None:
            wire = b"".join(f"{n}: {v}\r\n".encode("latin-1")
                            for n, v in key)
            if len(_WIRE_MEMO) >= WIRE_MEMO_MAX:
                _WIRE_MEMO.clear()
            _WIRE_MEMO[key] = wire
        return wire

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Headers":
        """Parse header lines (without the terminating blank line).

        Handles RFC 2068 continuation lines (leading whitespace folds
        into the previous field).
        """
        headers = cls()
        for line in lines:
            if not line:
                continue
            if line[0] in " \t" and headers._items:
                name, value = headers._items[-1]
                headers._items[-1] = (name, value + " " + line.strip())
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ParseError(f"malformed header line: {line!r}")
            headers.add(name.strip(), value.strip())
        return headers

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Headers({self._items!r})"
