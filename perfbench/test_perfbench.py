"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import session
import workloads as wl
from session import PER_LAYER, make_probes
from tracer import Probe, Tracer, merge

from repro.content import artifacts
from repro.matrix import MatrixRunner, ResultCache, RunJournal
from repro.simnet.engine import Simulator

HERE = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def private_artifact_store(tmp_path):
    """Keep every test off the shared .repro-cache/ artifact store."""
    saved = artifacts.store_state()
    artifacts.configure(enabled=True, root=tmp_path / "artifacts")
    yield
    artifacts.configure(**saved)


def run_tiny(name: str, jobs: int, scratch: Path) -> wl.BatchOutcome:
    workload = wl.WORKLOADS[name]
    job = workload.make_input(wl.DEFAULT_SEED, "tiny")
    with MatrixRunner(jobs=jobs,
                      cache=ResultCache(scratch / f"cache-{jobs}"),
                      journal=RunJournal(f"tiny-{jobs}",
                                         root=scratch / "runs")) as runner:
        return workload.run_batch(runner, job)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_digest_same_at_any_job_count(name, tmp_path):
    serial = run_tiny(name, 1, tmp_path)
    parallel = run_tiny(name, 2, tmp_path)
    assert serial.failed == 0 and serial.completed == serial.attempted
    assert serial.digest == parallel.digest
    wl.WORKLOADS[name].check(parallel)


def test_tracer_leaves_outputs_and_program_unchanged(tmp_path):
    untraced = run_tiny("fleet-contended", 2, tmp_path / "a")
    original_run = Simulator.run
    dumps = tmp_path / "trace"
    dumps.mkdir()
    tracer = Tracer(str(dumps))
    tracer.follow_forks()
    tracer.install(make_probes(tracer))
    try:
        assert Simulator.run is not original_run
        traced = tracer.root("batch", run_tiny, "fleet-contended", 2,
                             tmp_path / "b")
    finally:
        tracer.uninstall()
    assert Simulator.run is original_run
    assert traced.digest == untraced.digest
    snapshots = [tracer.snapshot()] + [
        json.loads(path.read_text()) for path in dumps.glob("worker-*")]
    assert len(snapshots) == 3
    totals = merge(snapshots)
    assert totals["counters"]["events"] > 0
    assert totals["counters"]["responses"] > 0
    assert totals["layer_self"]["simnet.tcp"] > 0
    assert totals["focus_calls"][
        "repro.fleet.spec.FleetSpec.compile_population"] >= 4


def test_tracer_refuses_missing_targets(tmp_path):
    tracer = Tracer(str(tmp_path))
    original_run = Simulator.run
    with pytest.raises(LookupError):
        tracer.install({"repro.simnet.engine.Simulator.no_such_method":
                        Probe(lambda *_: None)})
    assert Simulator.run is original_run and not tracer.on


def outcome(**regime) -> wl.BatchOutcome:
    return wl.BatchOutcome(attempted=1, completed=1, failed=0, digest="",
                           summary={}, regime=regime, unit_walls=[],
                           packets=0)


def test_regime_assertions_reject_a_workload_out_of_regime():
    with pytest.raises(wl.CheckFailed):
        wl.check_fleet_contended(outcome(parked=5, accepted=10, rounds=3))
    with pytest.raises(wl.CheckFailed):
        wl.check_fleet_contended(outcome(parked=9, accepted=10, rounds=1))
    with pytest.raises(wl.CheckFailed):
        wl.check_paper_grid(outcome(ppp_units=0))
    wl.check_fleet_contended(outcome(parked=6, accepted=10, rounds=2))
    wl.check_paper_grid(outcome(ppp_units=1))


def test_not_applicable_prefixes_name_metrics():
    names = [name for name, _ in PER_LAYER]
    for workload in wl.WORKLOADS.values():
        for prefix in workload.not_applicable:
            assert any(name.startswith(prefix) for name in names), prefix


def test_shared_cache_listing_sees_any_write(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "ROOT", tmp_path)
    assert session.shared_cache_listing() is None
    store = tmp_path / ".repro-cache" / "artifacts"
    store.mkdir(parents=True)
    (store / "a.bin").write_bytes(b"old")
    before = session.shared_cache_listing()
    assert session.shared_cache_listing() == before
    (store / "b.bin").write_bytes(b"new")
    added = session.shared_cache_listing()
    assert added != before
    (store / "a.bin").write_bytes(b"changed")
    assert session.shared_cache_listing() != added


def test_benchmark_json_matches_the_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) \
        == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "pages_per_s", "peak_rss_mb"}


def test_host_speed_samples_and_stops_its_processes():
    with hostspeed.HostSpeed(2) as speed:
        procs = list(speed._procs)
        assert 0 < speed.sample() < 10
    assert all(proc.poll() is not None for proc in procs)
    assert hostspeed.nominal(3.0, 0.01, 0.03) == pytest.approx(
        3.0 * hostspeed.NOMINAL_S / 0.02)


def test_result_line_holds_exactly_value_and_unit():
    metrics = {name: {"value": 0, "unit": unit} for name, unit in PER_LAYER}
    run.check_result({"metrics": metrics}, trace=1)
    first = PER_LAYER[0][0]
    for bad in ({"value": 0, "unit": "s", "n/a": "x"},
                {"value": float("nan"), "unit": PER_LAYER[0][1]},
                {"value": None, "unit": PER_LAYER[0][1]},
                {"value": 1.0, "unit": "parsecs"}):
        with pytest.raises(run.RunFailed):
            run.check_result({"metrics": dict(metrics, **{first: bad})},
                             trace=1)
    with pytest.raises(run.RunFailed):
        run.check_result({"metrics": metrics}, trace=0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not [line for line in done.stdout.splitlines()
                if line.startswith("{")]
