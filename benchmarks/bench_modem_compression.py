"""Section 8.2.1: deflate vs modem (V.42bis) compression over 28.8k.

A single GET of the Microscape HTML, uncompressed versus
``Content-Encoding: deflate``, through the V.42bis modem pair.  The
paper's point: ~68% of the packets and ~64% of the time saved — deflate
at the content layer beats the modem's own compression.
"""

from repro.analysis import reproduce_modem_experiment
from repro.client.robot import ClientConfig
from repro.core import FIRST_TIME, HTTP11_PERSISTENT, run_experiment
from repro.server import APACHE
from repro.simnet import PPP


def test_modem_compression(benchmark):
    result = benchmark(lambda: run_experiment(
        HTTP11_PERSISTENT, FIRST_TIME, environment=PPP, profile=APACHE,
        seed=0, verify=False,
        client_config=ClientConfig(accept_deflate=True,
                                   follow_images=False)))
    assert result.fetch.complete

    results, text = reproduce_modem_experiment(runs=1)
    print()
    print(text)

    cells = {(entry["server"], entry["variant"]): entry["measured"]
             for entry in results}
    for name in ("Jigsaw", "Apache"):
        plain = cells[(name, "uncompressed")]
        deflated = cells[(name, "compressed")]
        packet_saving = 1 - deflated.packets / plain.packets
        time_saving = 1 - deflated.elapsed / plain.elapsed
        # Paper: 68.7% packets, 64.4-64.5% elapsed time.
        assert 0.55 <= packet_saving <= 0.78
        assert 0.50 <= time_saving <= 0.75
