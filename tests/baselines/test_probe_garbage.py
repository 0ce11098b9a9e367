"""A detector tick's garbage, counted rather than timed.

Explicit-probe makes nearly every span of a tournament: each member
probes every known peer each tick.  While a tick built an
``OpenSpan``, an attrs dict and a ``(target, span)`` tuple per probe,
those objects lived through the round trip, were promoted by the young
passes that ran meanwhile and, once enough had been promoted, set off
full collector passes that walked the whole span store.  A tick now
opens its spans as rows and carries ``(targets, rows)`` to its ack
event (DESIGN.md §18), so it leaves a handful of objects, not four per
probe.
"""

from tests.conftest import fresh_python

#: explicit-probe alone, n = 200 x 130 sim-s, with observability, the
#: telemetry bus and the windower on (what a tournament runs); prints the
#: young / middle / full collector passes of the run and its span count.
_RUN = """
import gc
from repro.compare import TournamentConfig, run_tournament

cfg = TournamentConfig(contestants=("explicit-probe",), n_nodes=200,
                       duration=130.0, window=30.0, seeds=(0,))
passes = [0, 0, 0]


def count(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1


gc.collect()
gc.callbacks.append(count)
(row,) = run_tournament(cfg)["rows"]
gc.callbacks.remove(count)
print(*passes, row["spans_total"])
"""


def test_a_probe_tick_costs_few_full_collector_passes():
    """Counted in a fresh interpreter, so what the rest of a pytest run
    keeps alive does not move the collector's thresholds.  4 full passes
    while a tick made four objects per probe (CPython 3.11's default
    thresholds); 1 with the tick's spans opened and closed as rows."""
    young, middle, full, spans = map(int, fresh_python(_RUN).split())
    assert spans > 150_000
    assert full <= 2, f"{full} full collector passes ({young} young, {middle} middle)"
