"""Tournament workload: seeded churn scripts, applied identically."""

import pytest

from repro.compare.workload import MIN_SURVIVORS, ChurnOp, CompareWorkload


class FakeContestant:
    def __init__(self, n):
        self._live = list(range(n))
        self.log = []

    def live_keys(self):
        return list(self._live)

    def crash(self, key):
        self._live.remove(key)
        self.log.append(("crash", key))

    def join(self):
        key = max(self._live) + 1
        self._live.append(key)
        self.log.append(("join", key))


class TestChurnOp:
    def test_resolve_is_pure_index_math(self):
        op = ChurnOp(time=10.0, kind="crash", pick=0.5)
        assert op.resolve([1, 3, 5, 7]) == 5
        assert op.resolve([1, 3, 5, 7]) == 5  # no hidden state

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnOp(time=1.0, kind="reboot", pick=0.0)
        with pytest.raises(ValueError):
            ChurnOp(time=1.0, kind="crash", pick=1.0)


class TestCompareWorkload:
    def test_same_seed_same_script(self):
        a = CompareWorkload(seed=4, n_nodes=40, duration=240.0)
        b = CompareWorkload(seed=4, n_nodes=40, duration=240.0)
        assert a.ops == b.ops

    def test_different_seed_different_script(self):
        a = CompareWorkload(seed=4, n_nodes=40, duration=240.0)
        b = CompareWorkload(seed=5, n_nodes=40, duration=240.0)
        assert a.ops != b.ops

    def test_ops_sorted_and_inside_the_run(self):
        wl = CompareWorkload(seed=0, n_nodes=40, duration=240.0)
        times = [op.time for op in wl.ops]
        assert times == sorted(times)
        assert all(0.0 < t < 240.0 for t in times)

    def test_apply_drives_identical_churn_on_every_contestant(self):
        wl = CompareWorkload(seed=1, n_nodes=20, duration=200.0)
        a, b = FakeContestant(20), FakeContestant(20)
        for op in wl.ops:
            wl.apply(op, a)
            wl.apply(op, b)
        assert a.log == b.log
        assert a.log  # the script actually did something

    def test_survivor_floor_blocks_crashes(self):
        wl = CompareWorkload(seed=1, n_nodes=20, duration=200.0)
        tiny = FakeContestant(MIN_SURVIVORS)
        op = ChurnOp(time=1.0, kind="crash", pick=0.0)
        assert wl.apply(op, tiny) is False
        assert tiny.log == []
