"""One benchmark process: set up, run batches, print a record.

``run.py`` starts this script once per set-up sample and once per
measured run; it is not meant to be run by hand, but it can be::

    python3 perfbench/session.py --workload fleet-contended --seed 1997 \\
        --seconds 10 --phase measure --work perfbench/.work/manual

Phases:

* ``setup``: build the Microscape site against an empty artifact store
  (the only place the content codecs run), spawn and warm the worker
  pool, print ``READY``, exit.
* ``measure``: set up, print ``READY``, then repeat the workload's
  batch for ``--seconds`` untraced, sampling the host's speed between
  batches (``hostspeed.py``).
* ``trace``: set up under tracing (site-build metrics), run untraced
  batches for a third of the time (matrix and fleet counters, the
  untraced reference wall), then traced batches for the rest.

The last stdout line is ``RECORD <json>``.  Any failed output check or
regime assertion exits with status 3 before a record is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads as wl
from hostspeed import HostSpeed
from tracer import Probe, Tracer, merge

from repro.content import artifacts
from repro.core.runner import nearest_rank, warm_default_site
from repro.matrix import ExperimentSpec, MatrixRunner, ResultCache, RunJournal

WORK_ROOT = wl.ROOT / "perfbench" / ".work"

#: Cheapest units there are: spawning the pool on them makes it ready.
WARMUP_SPEC = ExperimentSpec(mode="HTTP/1.1 Pipelined", scenario="revalidate",
                             environment="LAN", server="Apache",
                             seeds=tuple(range(2 * wl.JOBS)))

#: Every per-layer metric, with its unit (BENCHMARK.json lists the same).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("simnet.engine.events", "count"),
    ("simnet.engine.self_s", "s"),
    ("simnet.tcp.segments", "count"),
    ("simnet.tcp.self_s", "s"),
    ("simnet.link.self_s", "s"),
    ("simnet.trace.self_s", "s"),
    ("simnet.trace.records", "count"),
    ("simnet.host_us_per_event", "us"),
    ("simnet.modem.self_s", "s"),
    ("simnet.modem.bytes_in", "bytes"),
    ("simnet.fastforward.spans", "count"),
    ("simnet.fastforward.synth_frac", "ratio"),
    ("http.parser.self_s", "s"),
    ("http.parser.messages", "count"),
    ("http.headers.self_s", "s"),
    ("http.headers.calls", "count"),
    ("http.messages.self_s", "s"),
    ("http.cache.self_s", "s"),
    ("client.robot.self_s", "s"),
    ("client.robot.requests", "count"),
    ("client.robot.retries", "count"),
    ("content.htmlparse.self_s", "s"),
    ("content.htmlparse.bytes", "bytes"),
    ("content.htmlparse.distinct_frac", "ratio"),
    ("content.site.build_s", "s"),
    ("content.artifacts.hits", "count"),
    ("content.artifacts.misses", "count"),
    ("server.base.self_s", "s"),
    ("server.requests", "count"),
    ("server.static.self_s", "s"),
    ("server.static.distinct_head_frac", "ratio"),
    ("matrix.unit_wall_p50_s", "s"),
    ("matrix.unit_wall_p90_s", "s"),
    ("matrix.worker_busy_frac", "ratio"),
    ("matrix.ipc_batches", "count"),
    ("matrix.bytes_pickled", "bytes"),
    ("matrix.retries", "count"),
    ("matrix.cache.put_s", "s"),
    ("matrix.journal.record_s", "s"),
    ("fleet.compile_s", "s"),
    ("fleet.rounds", "count"),
    ("fleet.rebalance_s", "s"),
    ("fleet.cohort_wall_max_over_mean", "ratio"),
    ("fleet.aggregate_s", "s"),
    ("unattributed.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


@dataclasses.dataclass
class Batch:
    wall: float
    outcome: wl.BatchOutcome
    ipc_batches: int
    bytes_pickled: int
    retries: int
    #: Host-speed samples taken right before and right after the batch.
    refs: Optional[Tuple[float, float]] = None


def make_probes(tracer: Tracer) -> Dict[str, Probe]:
    """Counters taken at layer boundaries (tracing is off inside)."""
    count, distinct = tracer.count, tracer.note_distinct

    def perf_of(args):
        perf = args[0].perf
        return (perf.events_processed, perf.segments,
                perf.fastforward_spans, perf.segments_synthesized)

    def perf_delta(before, args, _result):
        after = perf_of(args)
        for key, old, new in zip(("events", "segments", "ff_spans",
                                  "ff_synth"), before, after):
            count(key, new - old)

    def messages(_token, _args, result):
        count("http_messages", len(result))

    def eof_message(_token, _args, result):
        if result is not None:
            count("http_messages")

    def html(text):
        count("html_bytes", len(text))
        count("html_feeds")
        distinct("html", hash(text))

    def response(_token, _args, result):
        count("responses")
        distinct("heads", hash((result.status, result.version,
                                tuple(result.headers.items()))))

    def note(_token, args, _result):
        if args[1] in ("retry", "retry-5xx"):
            count("robot_retries")

    return {
        "repro.simnet.engine.Simulator.run": Probe(perf_delta, perf_of),
        "repro.simnet.modem.ModemCompressor.wire_bytes": Probe(
            lambda _t, args, _r: count("modem_bytes_in", len(args[1]))),
        "repro.http.parser.RequestParser.feed": Probe(messages),
        "repro.http.parser.ResponseParser.feed": Probe(messages),
        "repro.http.parser.ResponseParser.eof": Probe(eof_message),
        "repro.client.robot._ConnState.send_request": Probe(
            lambda _t, _args, _r: count("robot_requests")),
        "repro.client.robot.Robot._note": Probe(note),
        "repro.content.htmlparse.HtmlTokenizer.feed": Probe(
            lambda _t, args, _r: html(args[1])),
        "repro.content.htmlparse.tokenize": Probe(
            lambda _t, args, _r: html(args[0])),
        "repro.server.static.build_response": Probe(response),
    }


class Session:
    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = wl.WORKLOADS[args.workload]
        self.job = self.workload.make_input(args.seed, "full")
        self.jobs = wl.JOBS
        self.work = Path(args.work)
        self.work.mkdir(parents=True)
        self._stores = 0
        self._batches = 0
        self.digest: Optional[str] = None

    def fresh_artifact_store(self):
        """Point the process-default artifact store at an empty dir."""
        self._stores += 1
        return artifacts.configure(
            enabled=True, root=self.work / f"artifacts-{self._stores}")

    def start_runner(self) -> MatrixRunner:
        """A pool-backed runner, spawned and warmed on the cheapest units."""
        runner = MatrixRunner(jobs=self.jobs)
        runner.run_many([WARMUP_SPEC])
        return runner

    def run_batches(self, runner: MatrixRunner, seconds: float,
                    min_batches: int, tracer: Optional[Tracer] = None,
                    speed: Optional[HostSpeed] = None) -> List[Batch]:
        """Repeat the batch for about ``seconds``; check each.

        It stops when ending now is nearer ``seconds`` than ending after
        one more batch, so a run of long batches does not overshoot.
        With ``speed``, the host is sampled between batches.
        """
        batches: List[Batch] = []
        started = time.perf_counter()
        ref = speed.sample() if speed else None
        while True:
            self._batches += 1
            scratch = self.work / f"batch-{self._batches}"
            runner.cache = ResultCache(scratch / "cache")
            runner.journal = RunJournal(f"batch-{self._batches}",
                                        root=scratch / "runs")
            stats = runner.stats
            before = (stats.ipc_batches, stats.bytes_pickled,
                      stats.unit_retries)
            mark = time.perf_counter()
            if tracer is None:
                outcome = self.workload.run_batch(runner, self.job)
            else:
                outcome = tracer.root("batch", self.workload.run_batch,
                                      runner, self.job)
            wall = time.perf_counter() - mark
            after = speed.sample() if speed else None
            runner.cache = runner.journal = None
            shutil.rmtree(scratch)
            self.check(outcome)
            batches.append(Batch(
                wall, outcome, stats.ipc_batches - before[0],
                stats.bytes_pickled - before[1],
                stats.unit_retries - before[2],
                (ref, after) if speed else None))
            ref = after
            if (len(batches) >= min_batches and
                    time.perf_counter() - started + wall / 2 >= seconds):
                return batches

    def check(self, outcome: wl.BatchOutcome) -> None:
        """Same inputs must give the same outputs, in the same regime."""
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            raise wl.CheckFailed(
                f"outputs changed between identical batches: digest "
                f"{outcome.digest} != {self.digest}")
        self.workload.check(outcome)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def batch_rows(batches: List[Batch]) -> List[Dict[str, float]]:
    return [{"wall": b.wall, "refs": b.refs,
             "attempted": b.outcome.attempted,
             "completed": b.outcome.completed, "failed": b.outcome.failed}
            for b in batches]


def peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def per_layer_metrics(session: Session, site: Dict[str, float],
                      untraced: List[Batch], traced: List[Batch],
                      totals: Dict[str, object]) -> Dict[str, dict]:
    """Per-layer metrics, per batch where they are totals.

    Every entry holds exactly a value and a unit, as the result line
    requires.  A metric that does not apply to the workload reads 0; its
    reason is in ``not_applicable``.
    """
    n = len(traced)
    layer_self = totals["layer_self"]
    counters = totals["counters"]
    focus = totals["focus_s"]
    distinct = totals["distinct"]

    def per_batch(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = counters.get("events", 0)
    segments = counters.get("segments", 0)
    walls = [w for b in untraced for w in b.outcome.unit_walls]
    untraced_wall = sum(b.wall for b in untraced)
    rounds = [b.outcome.regime.get("rounds", 0) for b in untraced]
    spread = []
    for b in untraced:
        for group in b.outcome.round_walls:
            if group and sum(group) > 0:
                spread.append(max(group) / (sum(group) / len(group)))
    metrics = {
        "simnet.engine.events": per_batch(events),
        "simnet.tcp.segments": per_batch(segments),
        "simnet.trace.records": per_batch(
            sum(b.outcome.packets for b in traced)),
        "simnet.host_us_per_event": ratio(
            focus.get("repro.simnet.engine.Simulator.run", 0.0) * 1e6,
            events),
        "simnet.modem.bytes_in": per_batch(counters.get("modem_bytes_in", 0)),
        "simnet.fastforward.spans": per_batch(counters.get("ff_spans", 0)),
        "simnet.fastforward.synth_frac": ratio(
            counters.get("ff_synth", 0), segments),
        "http.parser.messages": per_batch(counters.get("http_messages", 0)),
        "http.headers.calls": per_batch(
            totals["layer_entries"].get("http.headers", 0)),
        "client.robot.requests": per_batch(
            counters.get("robot_requests", 0)),
        "client.robot.retries": per_batch(counters.get("robot_retries", 0)),
        "content.htmlparse.bytes": per_batch(counters.get("html_bytes", 0)),
        "content.htmlparse.distinct_frac": ratio(
            distinct.get("html", 0), counters.get("html_feeds", 0)),
        "content.site.build_s": site["build_s"],
        "content.artifacts.hits": site["hits"],
        "content.artifacts.misses": site["misses"],
        "server.requests": per_batch(counters.get("responses", 0)),
        "server.static.distinct_head_frac": ratio(
            distinct.get("heads", 0), counters.get("responses", 0)),
        "matrix.unit_wall_p50_s": nearest_rank(walls, 50),
        "matrix.unit_wall_p90_s": nearest_rank(walls, 90),
        "matrix.worker_busy_frac": ratio(sum(walls),
                                         session.jobs * untraced_wall),
        "matrix.ipc_batches": statistics.median(
            b.ipc_batches for b in untraced),
        "matrix.bytes_pickled": statistics.median(
            b.bytes_pickled for b in untraced),
        "matrix.retries": statistics.median(b.retries for b in untraced),
        "matrix.cache.put_s": per_batch(
            focus.get("repro.matrix.cache.ResultCache.put_many", 0.0)),
        "matrix.journal.record_s": per_batch(
            focus.get("repro.matrix.journal.RunJournal.record_result", 0.0)
            + focus.get("repro.matrix.journal.RunJournal.record_failure",
                        0.0)),
        "fleet.compile_s": per_batch(
            focus.get("repro.fleet.spec.FleetSpec.compile_population", 0.0)),
        "fleet.rounds": statistics.median(rounds),
        "fleet.rebalance_s": per_batch(
            focus.get("repro.fleet.runner._rebalance", 0.0)),
        "fleet.cohort_wall_max_over_mean": (statistics.median(spread)
                                            if spread else 0.0),
        "fleet.aggregate_s": statistics.median(
            b.outcome.aggregate_s for b in untraced),
        # The first traced batch spawns the pool (untraced batches run on
        # a warm one), so it is left out of the comparison.
        "trace_overhead_frac": (
            statistics.median(b.wall for b in traced[1:])
            / statistics.median(b.wall for b in untraced) - 1.0),
    }
    for layer in ("simnet.engine", "simnet.tcp", "simnet.link",
                  "simnet.trace", "simnet.modem", "http.parser",
                  "http.headers", "http.messages", "http.cache",
                  "client.robot", "content.htmlparse", "server.base",
                  "server.static", "unattributed"):
        metrics[f"{layer}.self_s"] = per_batch(layer_self.get(layer, 0.0))
    for name in not_applicable(session):
        metrics[name] = 0
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER}


def not_applicable(session: Session) -> Dict[str, str]:
    """The per-layer metrics that do not apply to the workload: reasons."""
    return {name: reason for name, _ in PER_LAYER
            for prefix, reason in session.workload.not_applicable.items()
            if name.startswith(prefix)}


def write_spans(path: Path, snapshots: List[Dict[str, object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for snap in snapshots:
            for span_id, parent, name, start, end in snap["spans"]:
                handle.write(json.dumps(
                    {"pid": snap["pid"], "id": span_id, "parent": parent,
                     "name": name, "start": start, "end": end}) + "\n")


def trace_phase(session: Session, args: argparse.Namespace) -> dict:
    tracer = Tracer(str(session.work / "trace"))
    probes = make_probes(tracer)
    (session.work / "trace").mkdir()
    # Set-up under tracing: the cold site build and its codec spans.
    tracer.install(probes)
    store = session.fresh_artifact_store()
    mark = time.perf_counter()
    tracer.root("setup", warm_default_site)
    site = {"build_s": time.perf_counter() - mark,
            "hits": store.stats.hits, "misses": store.stats.misses}
    tracer.uninstall()

    runner = session.start_runner()
    print("READY", flush=True)
    try:
        untraced = session.run_batches(runner, args.seconds / 3.0, 2)
    finally:
        runner.close()

    # No warm-up here: warm-up units would land in the workers' totals.
    # The pool spawns inside the first traced batch instead.
    tracer.follow_forks()
    tracer.install(probes)
    tracer.clear()
    runner = MatrixRunner(jobs=session.jobs)
    try:
        traced = session.run_batches(runner, args.seconds * 2.0 / 3.0, 3,
                                     tracer=tracer)
    finally:
        tracer.uninstall()
        runner.close()
    snapshots = [tracer.snapshot()] + _worker_snapshots(session)
    totals = merge(snapshots)
    if (args.workload == "paper-grid"
            and not totals["counters"].get("modem_bytes_in")):
        raise wl.CheckFailed("paper-grid fed no bytes to the modem model")
    write_spans(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}"
                ".jsonl", snapshots)
    return {
        "phase": "trace",
        "untraced": batch_rows(untraced),
        "traced": batch_rows(traced),
        "digest": session.digest,
        "per_layer": per_layer_metrics(session, site, untraced, traced,
                                       totals),
        "not_applicable": not_applicable(session),
        "processes": totals["processes"],
        "spans_kept": sum(len(snap["spans"]) for snap in snapshots),
        "spans_dropped": totals["spans_dropped"],
    }


def _worker_snapshots(session: Session) -> list:
    paths = sorted((session.work / "trace").glob("worker-*.json"))
    if len(paths) < session.jobs:
        raise wl.CheckFailed(f"only {len(paths)} of {session.jobs} pool "
                             f"workers wrote their trace")
    return [json.loads(path.read_text()) for path in paths]


def shared_cache_listing() -> Optional[Dict[str, Tuple[int, int]]]:
    """(size, mtime) of every entry under the shared ``.repro-cache/``.

    ``None`` when it does not exist; a run must leave this unchanged.
    """
    root = wl.ROOT / ".repro-cache"
    if not root.exists():
        return None
    listing = {}
    for folder, _, files in os.walk(root):
        for path in [folder] + [os.path.join(folder, f) for f in files]:
            stat = os.stat(path)
            listing[path] = (stat.st_size, stat.st_mtime_ns)
    return listing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--work", required=True,
                        help="throwaway directory for stores, caches and "
                             "journals (must not exist)")
    args = parser.parse_args(argv)

    shared_before = shared_cache_listing()
    session = Session(args)
    try:
        if args.phase == "trace":
            record = trace_phase(session, args)
        else:
            session.fresh_artifact_store()
            warm_default_site()
            runner = session.start_runner()
            print("READY", flush=True)
            try:
                batches = []
                if args.phase == "measure":
                    with HostSpeed(session.jobs) as speed:
                        batches = session.run_batches(
                            runner, args.seconds, 3, speed=speed)
            finally:
                runner.close()
            record = {"phase": args.phase, "batches": batch_rows(batches),
                      "digest": session.digest,
                      "summary": (batches[-1].outcome.summary
                                  if batches else {}),
                      "peak_rss_mb": peak_rss_mb()}
    except wl.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        session.close()
    if shared_cache_listing() != shared_before:
        print("perfbench: check failed: the run wrote to the shared "
              ".repro-cache/", file=sys.stderr)
        return 3
    print("RECORD " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
