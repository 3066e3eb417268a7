"""Table 10: Netscape Navigator and Internet Explorer vs Jigsaw, PPP.

The product-browser comparison, including IE 4.0b1's revalidation
blow-up against Jigsaw (no Last-Modified => HEAD checks => keep-alive
dropped per image).
"""

from _common import by_cell

from repro.analysis import reproduce_browser_table
from repro.core import (FIRST_TIME, HTTP10_MODE, REVALIDATE,
                        run_experiment)
from repro.core.browsers import NETSCAPE_40B5
from repro.server import JIGSAW
from repro.simnet import PPP

SERVER_NAME = "Jigsaw"
PROFILE = JIGSAW


def test_table10(benchmark):
    result = benchmark(lambda: run_experiment(
        HTTP10_MODE, REVALIDATE, environment=PPP, profile=PROFILE, seed=0,
        client_config=NETSCAPE_40B5.client_config()))
    assert result.fetch.complete

    rows, text = reproduce_browser_table(SERVER_NAME, runs=1)
    cells = by_cell(rows)
    nn_reval = cells[("Netscape Navigator", REVALIDATE)]
    ie_reval = cells[("Internet Explorer", REVALIDATE)]
    # IE's revalidation against Jigsaw costs several times Navigator's.
    assert ie_reval.packets > 2.0 * nn_reval.packets
    assert ie_reval.payload_bytes > 2.0 * nn_reval.payload_bytes
    # First-time retrieval is comparable between the browsers.
    nn_first = cells[("Netscape Navigator", FIRST_TIME)]
    ie_first = cells[("Internet Explorer", FIRST_TIME)]
    assert 0.8 <= ie_first.packets / nn_first.packets <= 1.3

    print()
    print(text)
