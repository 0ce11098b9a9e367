"""Attached-info generator tests."""

import numpy as np
import pytest

from repro.workloads.attached_info import guess_attached_info, sample_shared_files


class TestSharedFiles:
    def test_free_riders_fraction(self, rng):
        files = sample_shared_files(rng, 50_000)
        assert np.mean(files == 0) == pytest.approx(0.25, abs=0.02)

    def test_heavy_tail(self, rng):
        files = sample_shared_files(rng, 50_000)
        assert files.max() > 100 * max(np.median(files), 1)

    def test_capped(self, rng):
        files = sample_shared_files(rng, 50_000)
        assert files.max() <= 100_000


class TestDictShapes:
    def test_guess_info(self, rng):
        infos = guess_attached_info(rng, 10)
        assert all("shared_files" in d for d in infos)
