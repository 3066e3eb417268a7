"""Shared helpers for the per-table benchmark modules.

Each ``bench_tableNN.py`` module does three things:

1. **benchmark** a representative cell with pytest-benchmark (wall time
   of the whole simulated experiment),
2. reproduce the full table once through the report's own driver
   (:mod:`repro.analysis.report`, single seed for speed) and **assert
   the paper's shape** on the rows it returns — orderings and
   approximate factors,
3. **print** the report's measured-vs-paper table (visible with
   ``pytest -s``).

Tables 4–9 share one grid layout, so :func:`protocol_table_suite`
builds the test and each ``bench_table0N.py`` reduces to a two-line
shim.

Absolute numbers are not asserted tightly: the substrate is a
simulator, not the authors' testbed.  Shape is.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.analysis import ComparisonRow, reproduce_protocol_table
from repro.analysis.paperdata import PROTOCOL_TABLES
from repro.core import FIRST_TIME, REVALIDATE
from repro.core.runner import AveragedResult
from repro.matrix import ExperimentSpec, run_unit

__all__ = ["by_cell", "assert_protocol_table_shape",
           "representative_cell", "protocol_table_suite"]

Cells = Dict[Tuple[str, str], AveragedResult]


def by_cell(rows: Sequence[ComparisonRow]) -> Cells:
    """Index a reproduced table's rows by (label, scenario)."""
    return {(row.label, row.scenario): row.measured for row in rows}


def representative_cell(server_name: str, environment_name: str):
    """The cell benchmarked for wall-clock: pipelined first retrieval."""
    spec = ExperimentSpec(mode="pipelined", scenario=FIRST_TIME,
                          environment=environment_name,
                          server=server_name, seeds=(0,))

    def run():
        return run_unit(spec, 0)[0]

    return run


def assert_protocol_table_shape(server_name: str, environment_name: str,
                                rows: Sequence[ComparisonRow]) -> None:
    """The paper's qualitative table structure, as assertions."""
    cells = by_cell(rows)
    has_http10 = ("HTTP/1.0", FIRST_TIME) in cells
    pipelined_f = cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    pipelined_r = cells[("HTTP/1.1 Pipelined", REVALIDATE)]
    persistent_f = cells[("HTTP/1.1", FIRST_TIME)]
    persistent_r = cells[("HTTP/1.1", REVALIDATE)]
    compressed_f = cells[
        ("HTTP/1.1 Pipelined w. compression", FIRST_TIME)]

    if has_http10:
        http10_f = cells[("HTTP/1.0", FIRST_TIME)]
        http10_r = cells[("HTTP/1.0", REVALIDATE)]
        # Packets: pipelining wins >=2x first-time, >=10x revalidation.
        assert http10_f.packets / pipelined_f.packets >= 2.0
        assert http10_r.packets / pipelined_r.packets >= 10.0
        # Elapsed: pipelined beats 1.0; persistent-only does not.
        assert pipelined_f.elapsed < http10_f.elapsed
        assert persistent_f.elapsed >= http10_f.elapsed * 0.85
    # Pipelining always beats serialized persistence.
    assert pipelined_f.elapsed < persistent_f.elapsed
    assert pipelined_r.elapsed < persistent_r.elapsed
    assert pipelined_f.packets <= persistent_f.packets
    assert pipelined_r.packets < persistent_r.packets / 2
    # Compression removes ~1/6 of the payload and never hurts time.
    assert compressed_f.payload_bytes < pipelined_f.payload_bytes * 0.90
    assert compressed_f.packets < pipelined_f.packets
    # Cell-by-cell sanity against the paper, loose factor-of-two band
    # on packet counts.
    paper = PROTOCOL_TABLES[(server_name, environment_name)]
    for key, cell in cells.items():
        expected = paper[key]
        assert 0.5 <= cell.packets / expected.packets <= 2.0, (
            key, cell.packets, expected.packets)


def protocol_table_suite(server_name: str, environment_name: str,
                         number: int) -> Dict[str, object]:
    """Build a bench_tableNN module namespace.

    Use as ``globals().update(protocol_table_suite("Jigsaw", "LAN", 4))``
    so the grid definition lives in one place and the per-table modules
    stay declarative.
    """

    def test_table(benchmark):
        result = benchmark(representative_cell(server_name,
                                               environment_name))
        # run_unit raises ExperimentError on an incomplete or corrupt
        # transfer, so a returned result is a completed one.
        assert result.packets > 0
        assert result.elapsed > 0
        rows, text = reproduce_protocol_table(server_name,
                                              environment_name, runs=1)
        assert_protocol_table_shape(server_name, environment_name, rows)
        print()
        print(text)

    return {
        "SERVER": server_name,
        "ENVIRONMENT": environment_name,
        f"test_table{number:02d}": test_table,
    }
