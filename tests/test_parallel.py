"""Tests for the Figure 8 measurement: rates through the worker pool."""

import os

import numpy as np
import pytest

from repro.bench.parallel import measure_pool_rate, pool_scaling_curve
from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.net.prefix import Prefix
from repro.net.rib import Rib


@pytest.fixture(scope="module")
def trie():
    rib = Rib()
    rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    rib.insert(Prefix.parse("192.0.2.0/24"), 2)
    return Poptrie.from_rib(rib, PoptrieConfig(s=16))


@pytest.fixture(scope="module")
def keys():
    return np.arange(30_000, dtype=np.uint64) & np.uint64(0xFFFFFFFF)


class TestSingleWorker:
    def test_counts_and_positive_rate(self, trie, keys):
        result = measure_pool_rate(trie, keys, workers=1, rounds=2)
        assert result.lookups == len(keys) * 2
        assert result.mlps > 0
        assert result.memory_bytes == trie.memory_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires POSIX fork")
class TestForkWorkers:
    """Pool workers forked from the process that built the table."""

    def test_two_workers_complete(self, trie, keys):
        result = measure_pool_rate(trie, keys, workers=2, rounds=1)
        assert result.lookups == len(keys)
        assert result.seconds > 0
        assert "pool x2" in result.name

    def test_scaling_curve_shape(self, trie, keys):
        curve = pool_scaling_curve(trie, keys[:8000], max_workers=2, rounds=1)
        assert [point.lookups for point in curve] == [8000, 8000]
        assert [point.name.rsplit(" ", 1)[1] for point in curve] == ["x1", "x2"]
        assert all(point.mlps > 0 for point in curve)
