"""Perf-counter surfacing and the benchmark harness."""

import functools
import json
import pathlib

import pytest

import repro.matrix
from repro import perf
from repro.core.runner import run_experiment, run_repeated
from repro.perf import (BENCH_SCHEMA_VERSION, BenchCell,
                        check_bench_regression, representative_cells,
                        run_benchmark, run_fastpath_benchmark,
                        run_fleet_benchmark, run_matrix_benchmark,
                        validate_bench_payload)


def test_trace_summary_carries_perf_counters():
    result = run_experiment("HTTP/1.1", "first-time", environment="LAN",
                            profile="Apache", seed=0)
    perf = result.trace.perf
    assert perf is not None
    assert perf.events_processed > 0
    assert perf.heap_peak > 0
    assert perf.segments >= result.packets


def test_lazy_timers_absorb_rearms():
    # Every ACKed segment used to pay a cancel+reschedule on the RTO
    # timer; the deadline-based timers absorb those as attribute writes.
    result = run_experiment("HTTP/1.1 Pipelined", "first-time",
                            environment="WAN", profile="Apache", seed=0)
    assert result.trace.perf.cancels_avoided > 0


def test_averaged_result_aggregates_perf():
    averaged = run_repeated("HTTP/1.1", "first-time", environment="LAN",
                            profile="Apache", runs=2)
    per_run = [r.trace.perf for r in averaged.runs]
    total = averaged.perf
    assert total.events_processed == sum(p.events_processed
                                         for p in per_run)
    assert total.segments == sum(p.segments for p in per_run)
    assert total.heap_peak == max(p.heap_peak for p in per_run)


def test_representative_cells_cover_all_registered_modes():
    # The bench is a performance surface, not a paper table: every
    # registered mode is timed in every environment (the paper tables'
    # omission of HTTP/1.0 on PPP does not apply here).
    from repro.core.registry import modes_for_environment
    cells = representative_cells()
    keys = {cell.key for cell in cells}
    for environment in ("LAN", "WAN", "PPP"):
        for mode in modes_for_environment(environment, paper_only=False):
            assert f"{mode.name}|{environment}" in keys
    assert len(keys) == len(cells)        # no duplicates


def test_validate_bench_payload_flags_problems():
    good = {
        "schema": BENCH_SCHEMA_VERSION,
        "baseline": {"cells": {"m|e": {"wall_time": 0.01}}},
        "current": {"cells": {"m|e": {
            "wall_time": 0.005, "runs": 3, "events_processed": 100,
            "heap_peak": 10, "segments": 50, "cancels_avoided": 5}}},
    }
    assert validate_bench_payload(good) == []
    assert validate_bench_payload({}) != []
    bad_schema = dict(good, schema=BENCH_SCHEMA_VERSION + 1)
    assert any("schema" in p for p in validate_bench_payload(bad_schema))
    missing_field = json.loads(json.dumps(good))
    del missing_field["current"]["cells"]["m|e"]["segments"]
    assert any("segments" in p
               for p in validate_bench_payload(missing_field))
    zero_wall = json.loads(json.dumps(good))
    zero_wall["current"]["cells"]["m|e"]["wall_time"] = 0
    assert any("wall_time" in p for p in validate_bench_payload(zero_wall))


def test_validate_matrix_section():
    good = {
        "schema": BENCH_SCHEMA_VERSION,
        "baseline": {"cells": {"m|e": {"wall_time": 0.01}}},
        "current": {"cells": {"m|e": {
            "wall_time": 0.005, "runs": 3, "events_processed": 100,
            "heap_peak": 10, "segments": 50, "cancels_avoided": 5}}},
        "matrix": {"cells": 24, "units": 24, "jobs": 4,
                   "cold_wall_time": 1.2, "warm_wall_time": 0.4,
                   "speedup_warm_vs_cold": 3.0, "artifact_hits": 0,
                   "artifact_misses": 151, "ipc_batches": 16,
                   "bytes_pickled": 9000},
    }
    assert validate_bench_payload(good) == []
    no_matrix = {k: v for k, v in good.items() if k != "matrix"}
    assert validate_bench_payload(no_matrix) == []    # section optional
    missing = json.loads(json.dumps(good))
    del missing["matrix"]["speedup_warm_vs_cold"]
    assert any("speedup_warm_vs_cold" in p
               for p in validate_bench_payload(missing))
    zero_warm = json.loads(json.dumps(good))
    zero_warm["matrix"]["warm_wall_time"] = 0
    assert any("warm_wall_time" in p
               for p in validate_bench_payload(zero_warm))
    not_object = dict(good, matrix=[1, 2])
    assert any("object" in p for p in validate_bench_payload(not_object))


def test_check_bench_regression():
    reference = {"a": {"wall_time": 0.100}, "b": {"wall_time": 0.100},
                 "retired": {"wall_time": 0.100}}
    current = {"a": {"wall_time": 0.110},        # +10%: fine
               "b": {"wall_time": 0.200},        # +100%: regressed
               "new-cell": {"wall_time": 9.9}}   # no reference: ignored
    problems = check_bench_regression(current, reference)
    assert len(problems) == 1 and "'b'" in problems[0]
    # A looser threshold lets the same measurement through.
    assert check_bench_regression(current, reference, threshold=1.5) == []
    # Malformed reference entries are skipped, not crashed on.
    assert check_bench_regression({"a": {"wall_time": 1.0}},
                                  {"a": {"wall_time": 0}}) == []
    assert check_bench_regression({"a": {}}, {"a": {"wall_time": 1}}) == []


@pytest.mark.slow
def test_run_matrix_benchmark_records_and_validates(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({
        "schema": BENCH_SCHEMA_VERSION,
        "baseline": {"cells": {"m|e": {"wall_time": 0.01}}},
        "current": {"cells": {"m|e": {
            "wall_time": 0.005, "runs": 3, "events_processed": 100,
            "heap_peak": 10, "segments": 50, "cancels_avoided": 5}}},
    }))
    payload = run_matrix_benchmark(str(out), jobs=2,
                                   log=lambda line: None)
    assert validate_bench_payload(payload) == []
    matrix = payload["matrix"]
    assert matrix["cells"] == 24
    assert matrix["warm_wall_time"] < matrix["cold_wall_time"]
    # The merge preserved the sections bench --matrix does not own.
    on_disk = json.loads(out.read_text())
    assert on_disk["baseline"]["cells"] == {"m|e": {"wall_time": 0.01}}
    assert on_disk["matrix"]["cells"] == 24


@pytest.mark.slow
def test_run_benchmark_writes_and_preserves_baseline(tmp_path):
    out = tmp_path / "bench.json"
    first = run_benchmark(str(out), quick=True, log=lambda line: None)
    assert validate_bench_payload(first) == []
    assert out.exists()
    # A second run must keep the first run's baseline verbatim and
    # report a speedup for every cell that has a baseline wall time.
    second = run_benchmark(str(out), quick=True, log=lambda line: None)
    assert second["baseline"]["cells"] == first["baseline"]["cells"]
    on_disk = json.loads(out.read_text())
    assert validate_bench_payload(on_disk) == []
    for entry in on_disk["current"]["cells"].values():
        assert "speedup_vs_baseline" in entry


def _run_writer(name, out, monkeypatch, tmp_path):
    """Run one bench writer at toy size (one cell, a few users)."""
    quiet = dict(log=lambda line: None)
    if name == "current":
        monkeypatch.setattr(perf, "representative_cells", lambda: [
            BenchCell("HTTP/1.1 Pipelined", "LAN")])
        run_benchmark(str(out), repeats=1, **quiet)
    elif name == "matrix":
        monkeypatch.setattr(perf, "_MATRIX_BENCH_ARTIFACTS",
                            str(tmp_path / "artifacts"))
        monkeypatch.setattr(repro.matrix, "ExperimentMatrix",
                            functools.partial(repro.matrix.ExperimentMatrix,
                                              modes=("pipelined",),
                                              environments=("LAN",)))
        run_matrix_benchmark(str(out), jobs=1, warm_repeats=1, **quiet)
    elif name == "fastpath":
        monkeypatch.setattr(perf, "_FASTPATH_CELLS", (
            ("bulk-256KB|LAN", "LAN", 256 * 1024, None),))
        run_fastpath_benchmark(str(out), repeats=1, **quiet)
    else:
        run_fleet_benchmark(str(out), users=4, cohorts=2, jobs=1, **quiet)


@pytest.mark.parametrize("writer", ["current", "matrix", "fastpath",
                                    "fleet"])
def test_every_bench_writer_keeps_unknown_sections(writer, tmp_path,
                                                   monkeypatch):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({
        "schema": BENCH_SCHEMA_VERSION, "quick": False,
        "baseline": {"cells": {}}, "current": {"cells": {}},
        "matrix": {"cells": 1}, "future-section": {"kept": True}}))
    _run_writer(writer, out, monkeypatch, tmp_path)
    on_disk = json.loads(out.read_text())
    assert on_disk["future-section"] == {"kept": True}
    if writer != "matrix":
        assert on_disk["matrix"] == {"cells": 1}
    assert on_disk[writer] != {"cells": {}}


def test_fleet_bench_records_the_median_of_fixed_samples(tmp_path):
    out = tmp_path / "bench.json"
    payload = run_fleet_benchmark(str(out), users=4, cohorts=2,
                                  log=lambda line: None)
    fleet = payload["fleet"]
    assert fleet["jobs"] == perf.FLEET_BENCH_JOBS == 1
    samples = fleet["wall_time_samples"]
    assert len(samples) == perf.FLEET_BENCH_SAMPLES == 3
    assert fleet["wall_time"] == sorted(samples)[1]
    assert fleet["users_per_minute"] == round(4 / fleet["wall_time"] * 60, 1)


def test_committed_bench_file_is_valid():
    bench = pathlib.Path(__file__).parents[2] / "BENCH_simnet.json"
    payload = json.loads(bench.read_text())
    problems = validate_bench_payload(payload)
    assert problems == []
    # The baseline section is an absolute wall-time anchor carried
    # forward from the session that first recorded it, so the ratio
    # against a `current` section regenerated on different hardware
    # only supports a direction check.  The >= 2x bars live on the
    # same-run ratios below, which cancel the machine out.
    cell = payload["current"]["cells"]["HTTP/1.1 Pipelined|WAN"]
    assert cell["speedup_vs_baseline"] > 1.0
    # PR-5 acceptance bar: a warm 24-cell matrix sweep (persistent
    # pool + artifact store) at least 2x faster than cold, measured
    # within one run.
    assert payload["matrix"]["speedup_warm_vs_cold"] >= 2.0
    # PR-7 acceptance bar: the flow-level fast-forward driver at least
    # 2x on every recorded bulk cell, fast vs --no-fastpath in the
    # same run (byte-identity checked by the harness before timing).
    fastpath = payload["fastpath"]["cells"]
    assert fastpath
    for entry in fastpath.values():
        assert entry["speedup_fastpath"] >= 2.0
        assert entry["fastforward_spans"] > 0
