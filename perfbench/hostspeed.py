"""Host speed from a fixed reference loop, used to steady host times.

The benchmark runs on a few vCPUs of a shared machine, where the same
Python code runs up to 70% faster or slower from one few seconds to the
next.  Host times taken minutes apart therefore differ by more than any
bound worth having.  A reference loop timed right before and right
after a timed interval, in as many processes at once as the interval
keeps busy, tells how fast the host was during it; ``pages_per_s``
rescales host time to the nominal speed at which one loop takes
``NOMINAL_S`` seconds.  The loop is part of the benchmark, not of the
program, so a change to the program cannot move it.

Run as a script it is one timing process: it answers each line on its
standard input with the loop time, and ends when that input closes.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time

#: Reference-loop seconds at the nominal host speed.  It is close to
#: the median on a 2-vCPU VM, so rescaled times read near raw ones.
NOMINAL_S = 0.044

#: Loops per sample in each process; the fastest one counts, so a
#: single preemption does not.
LOOPS = 3


class _Event:
    __slots__ = ("when", "conn", "data")

    def __init__(self, when: float, conn: "_Conn", data: bytes) -> None:
        self.when = when
        self.conn = conn
        self.data = data


class _Conn:
    __slots__ = ("name", "buf", "acked")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buf = bytearray()
        self.acked = 0

    def on_data(self, data: bytes) -> int:
        self.buf += data
        if len(self.buf) > 4096:
            del self.buf[:2048]
        self.acked += len(data)
        return self.acked


_PAYLOAD = bytes(range(256)) * 8


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop.

    Two parts: dictionary updates, and an event heap delivering byte
    strings to small slotted objects, the kind of work a simulation does.
    Together they track the workloads' speed better than either alone.
    """
    started = time.perf_counter()
    table: dict = {}
    for i in range(100_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    conns = [_Conn(f"c{i}") for i in range(64)]
    heap: list = []
    for seq in range(600):
        start = seq % 512
        heapq.heappush(heap, ((seq % 7) * 0.001, seq, _Event(
            0.0, conns[seq % 64], _PAYLOAD[start:start + 536])))
    for seq in range(600, 12_600):
        now, _, event = heapq.heappop(heap)
        conn = event.conn
        note = "ACK %d %s" % (conn.on_data(event.data), conn.name)
        heapq.heappush(heap, (now + (len(note) % 5 + 1) * 0.0007, seq,
                              _Event(now, conns[seq * 7 % 64], event.data)))
    return time.perf_counter() - started


class HostSpeed:
    """``processes`` idle timing processes that sample the host together."""

    def __init__(self, processes: int) -> None:
        self._procs = []
        try:
            for _ in range(processes):
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Mean reference-loop seconds, timed in every process at once."""
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        answers = [proc.stdout.readline() for proc in self._procs]
        if not all(answers):
            raise RuntimeError("a host-speed timing process ended early")
        return statistics.mean(float(answer) for answer in answers)

    def close(self) -> None:
        for proc in self._procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._procs = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def nominal(host_s: float, before: float, after: float) -> float:
    """``host_s`` host seconds, rescaled to the nominal host speed.

    ``before`` and ``after`` are the samples taken around the interval.
    """
    return host_s * NOMINAL_S / ((before + after) / 2.0)


def main() -> int:
    for _ in sys.stdin:
        print(min(reference_loop() for _ in range(LOOPS)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
