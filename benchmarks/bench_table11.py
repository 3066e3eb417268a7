"""Table 11: Netscape Navigator and Internet Explorer vs Apache, PPP.

Against Apache (which sends Last-Modified), both browsers validate
cleanly; the table's story is browser header verbosity versus the
robot.
"""

from _common import by_cell

from repro.analysis import reproduce_browser_table
from repro.core import HTTP10_MODE, REVALIDATE, run_experiment
from repro.core.browsers import NETSCAPE_40B5
from repro.server import APACHE
from repro.simnet import PPP

SERVER_NAME = "Apache"
PROFILE = APACHE


def test_table11(benchmark):
    result = benchmark(lambda: run_experiment(
        HTTP10_MODE, REVALIDATE, environment=PPP, profile=PROFILE, seed=0,
        client_config=NETSCAPE_40B5.client_config()))
    assert result.fetch.complete

    # Both browsers revalidate successfully against Apache: mostly 304s,
    # packet counts within ~30% of each other (no IE blow-up here).
    rows, text = reproduce_browser_table(SERVER_NAME, runs=1)
    cells = by_cell(rows)
    nn_reval = cells[("Netscape Navigator", REVALIDATE)]
    ie_reval = cells[("Internet Explorer", REVALIDATE)]
    assert nn_reval.runs[0].statuses.get(304, 0) == 43
    assert ie_reval.runs[0].statuses.get(304, 0) == 43
    assert 0.7 <= ie_reval.packets / nn_reval.packets <= 1.4

    print()
    print(text)
