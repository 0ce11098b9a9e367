"""One declaration per design: the table, and what every closed form refuses."""

import math

import pytest

from repro.baselines import DESIGNS, closed_forms
from repro.compare import CONTESTANTS
from repro.core.analytic import CostModel
from repro.core.errors import ConfigError

#: PeerWindow's §2 model and every design's closed form, by contestant name.
MODELS = {
    "peerwindow": CostModel(),
    **{scheme.name: scheme for scheme in closed_forms(100_000, 3600.0)},
}


def test_each_design_is_one_contestant_with_its_own_closed_form():
    assert list(CONTESTANTS)[1:] == list(DESIGNS)
    assert [s.name for s in closed_forms(10, 3600.0)] == list(DESIGNS)
    for name, net in DESIGNS.items():
        assert net.name == net.scheme.name == name
        assert 0.0 < net.error_hi < 1.0


@pytest.mark.parametrize("value", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("method, argument", [
    ("pointers_for_bandwidth", "bandwidth_bps"),
    ("bandwidth_for_pointers", "pointers"),
])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_negative_or_nan_amount_is_refused_by_name(model, method, argument, value):
    with pytest.raises(ConfigError, match=rf"^{argument} must be >= 0"):
        getattr(MODELS[model], method)(value)
