"""Benchmark entry point: one run of one workload, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1997 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s``: seconds from starting a benchmark process until it is
  ready to simulate (interpreter start, imports, Microscape site
  synthesis against an empty artifact store, worker-pool spawn and
  warm-up).  The median of ``SETUP_SAMPLES`` set-up-only processes,
  some started before the measured process and the rest after, so the
  samples span the run.
* ``pages_per_s``: simulated page fetches completed per host second,
  the median over the repeated batches of one run.  Each batch's host
  time is rescaled to a nominal host speed by the host-speed samples
  taken right before and right after it (``hostspeed.py``), because the
  shared host's own speed drifts by more than the metric's bound.  The
  unscaled rates are printed beside them.
* ``peak_rss_mb``: peak resident memory, the max over the benchmark
  process and its pool workers.

``--trace 1`` reports the per-layer metrics from a traced run (see
``tracer.py``).  Failed pages (quarantined units, fleet page errors,
pages unfinished at the simulated deadline) are reported as
``failed`` out of ``attempted``.  A failed output check or regime
assertion exits non-zero without a result.

All traffic is simulated: no real link or loopback socket is used, and
``repro.realnet`` is not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-grid", "fleet-contended")

#: Set-up-only processes per end-to-end run.
SETUP_SAMPLES = 7

#: Hard wall budget for a whole run (the caller allows 180 s).
RUN_BUDGET_S = 170.0


class RunFailed(RuntimeError):
    pass


def session(args, phase: str, seconds: float, deadline: float) -> tuple:
    """Run ``session.py``; return (seconds until READY, its record)."""
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [sys.executable, str(HERE / "session.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--phase", phase,
               "--work", str(work)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lines: "queue.Queue" = queue.Queue()
    started = time.perf_counter()
    # A session of its own, so a failed run can stop its pool workers too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def pump() -> None:
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready = record = None
    try:
        while True:
            try:
                stamp, line = lines.get(
                    timeout=max(0.1, deadline - time.perf_counter()))
            except queue.Empty:
                raise RunFailed(f"{phase} session overran the run budget")
            if line is None:
                break
            if line == "READY":
                ready = stamp - started
            elif line.startswith("RECORD "):
                record = json.loads(line[len("RECORD "):])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        stop_group(proc)
        reader.join(timeout=5)
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or ready is None or record is None:
        raise RunFailed(f"{phase} session failed (exit {code})")
    return ready, record


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a session's process group; wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def totals(batches) -> tuple:
    return (sum(b["attempted"] for b in batches),
            sum(b["failed"] for b in batches))


def end_to_end(args, deadline: float) -> dict:
    def setup_only() -> float:
        return session(args, "setup", 0, deadline)[0]

    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    ready, record = session(args, "measure", args.seconds, deadline)
    setups += [setup_only()
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    batches = record["batches"]
    raw_rates = [b["completed"] / b["wall"] for b in batches]
    rates = [b["completed"] / hostspeed.nominal(b["wall"], *b["refs"])
             for b in batches]
    attempted, failed = totals(batches)
    print(f"digest {args.workload} seed {args.seed}: {record['digest']}")
    print(f"simulated outputs: {json.dumps(record['summary'])}")
    print(f"setup_s samples, in start order: "
          f"{', '.join(f'{s:.3f}' for s in setups)} (measured process, "
          f"not counted: {ready:.3f})")
    print(f"pages_per_s per batch: {', '.join(f'{r:.2f}' for r in rates)}"
          f" (unscaled: {', '.join(f'{r:.2f}' for r in raw_rates)};"
          f" {len(batches)} batches of {batches[0]['attempted']} pages)")
    print(f"failed_frac: {failed / attempted:.6f} "
          f"({failed} of {attempted} pages)")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pages_per_s": {"value": statistics.median(rates),
                            "unit": "pages/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        },
    }


def per_layer(args, deadline: float) -> dict:
    _, record = session(args, "trace", args.seconds, deadline)
    batches = record["untraced"] + record["traced"]
    attempted, failed = totals(batches)
    print(f"digest {args.workload} seed {args.seed}: {record['digest']} "
          f"(traced batches match untraced)")
    print(f"traced: {len(record['traced'])} batches over "
          f"{record['processes']} processes; untraced reference: "
          f"{len(record['untraced'])} batches")
    print(f"spans: {record['spans_kept']} kept in the span file, "
          f"{record['spans_dropped']} beyond the per-process limit counted "
          f"in the totals only")
    print(f"n/a (reads 0, not measured): "
          f"{json.dumps(record['not_applicable'])}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": record["per_layer"]}


def check_result(result: dict, trace: int) -> None:
    """Refuse a result line that does not hold the manifest's metrics.

    With ``--trace 0`` the metrics are the ``end_to_end`` ones of
    BENCHMARK.json, with ``--trace 1`` the ``per_layer`` ones; each entry
    holds exactly a finite number and the manifest's unit.
    """
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(want):
        raise RunFailed(f"result metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(want))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if (set(entry) != {"value", "unit"} or entry["unit"] != want[name]
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
                or value != value or value in (float("inf"), float("-inf"))):
            raise RunFailed(f"metric {name} is not a finite value in "
                            f"{want[name]}: {entry}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the benchmark processes get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'}"
              f" is missing", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    print(f"environment: nproc={os.cpu_count()} python="
          f"{platform.python_version()} jobs=2; all traffic simulated "
          f"(no real link or loopback; repro.realnet not measured)")
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
        check_result(result, args.trace)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
