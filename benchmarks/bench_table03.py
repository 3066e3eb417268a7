"""Table 3: the initial (pre-tuning) LAN cache-revalidation test.

Jigsaw before Nagle was disabled, the robot before explicit flushes and
If-None-Match validation, with the libwww two-file disk cache — the
configuration whose surprising elapsed times ("simultaneously very
happy and quite disappointed") started the paper's tuning journey.
"""

from repro.analysis import reproduce_table3
from repro.core import (HTTP11_PIPELINED, REVALIDATE,
                        initial_tuning_client_config, run_experiment)
from repro.server import JIGSAW_INITIAL
from repro.simnet import LAN


def test_table03(benchmark):
    result = benchmark(lambda: run_experiment(
        HTTP11_PIPELINED, REVALIDATE, environment=LAN, profile=JIGSAW_INITIAL,
        seed=0,
        client_config=initial_tuning_client_config(HTTP11_PIPELINED)))
    assert result.fetch.complete

    results, text = reproduce_table3(runs=1)
    cells = {entry["mode"]: entry["measured"] for entry in results}
    http10 = cells["HTTP/1.0"]
    persistent = cells["HTTP/1.1"]
    pipelined = cells["HTTP/1.1 Pipelined"]

    # The famous inversion: persistent connections slash packets but
    # *increase* elapsed time before pipelining and tuning.
    assert persistent.packets < http10.packets / 2
    assert pipelined.packets < http10.packets / 5
    assert persistent.elapsed > 1.5 * http10.elapsed
    assert pipelined.elapsed > http10.elapsed
    assert pipelined.elapsed < persistent.elapsed

    # Socket counts match the paper's structure.
    assert persistent.connections_used == 1
    assert pipelined.connections_used == 1
    assert http10.connections_used >= 40

    print()
    print(text)
