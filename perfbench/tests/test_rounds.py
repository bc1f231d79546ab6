"""How a run lays out its work: the update stream cut into rounds, burst
rates, bulk lookup chunks, and the host's steal share."""

import numpy as np
import pytest

import inputs
from machine import NOMINAL_MEMORY_S, NOMINAL_S, steal_share
from workloads import _timed_calls, _Updates


def test_messages_cut_the_stream_into_rounds_in_stream_order():
    stream = list(range(inputs.STREAM_LENGTH))
    rounds = inputs.messages(stream)
    assert len(rounds) == inputs.ROUNDS
    steady = inputs.UPDATE_MESSAGES // inputs.ROUNDS
    for messages, burst in rounds:
        assert len(messages) == steady
        assert all(len(m) == inputs.UPDATES_PER_MESSAGE for m in messages)
        assert [len(m) for m in burst] == [inputs.BURST_UPDATES] * inputs.BURST_MESSAGES
    # Replaying the rounds applies every update once, in stream order.
    replayed = [u for messages, burst in rounds for m in messages + burst for u in m]
    assert replayed == stream


class _Probe:
    """A reference block that takes ``NOMINAL_S`` times each factor in
    turn."""

    def __init__(self, factors):
        self.factors = iter(factors)

    def block_s(self):
        return NOMINAL_S * next(self.factors)


def test_update_times_are_scaled_by_the_blocks_timed_around_them():
    # Blocks 1x before the first message, 3x between the two, 1x before
    # the burst and 2x after it: both messages and the burst ran at the
    # mean of their neighbours, 2x, 2x and 1.5x slower than nominal.
    updates = _Updates(_Probe([1.0, 3.0, 1.0, 2.0]))
    updates.steady(lambda: 0.010)
    updates.steady(lambda: 0.020)
    updates.burst([[0] * 32], lambda: 0.75)
    assert updates.latencies == pytest.approx([0.005, 0.010])
    assert updates.burst_rates == pytest.approx([32 / 0.5])


def test_the_last_steady_message_is_closed_by_a_block_after_it():
    updates = _Updates(_Probe([1.0, 3.0]))
    updates.steady(lambda: 0.010)
    assert updates.latencies == []
    updates._block()
    assert updates.latencies == pytest.approx([0.005])


def test_update_metrics_pool_latencies_and_take_the_median_burst_round():
    updates = _Updates(_Probe([1.0] * 106))
    for i in range(1, 101):
        updates.steady(lambda: 0.001 * i)
    # Three rounds of 2 x 32 updates, drained in 0.5 s, 4 s (a stall) and
    # 0.4 s: 128, 16 and 160 updates/s.
    for seconds in (0.5, 4.0, 0.4):
        updates.burst([[0] * 32, [0] * 32], lambda: seconds)
    out = updates.metrics()
    assert out["update_p50_ms"] == pytest.approx(50)
    assert out["update_p90_ms"] == pytest.approx(90)
    assert out["update_burst_ups"] == pytest.approx(128.0)


def test_bulk_chunk_rates_are_scaled_by_the_memory_blocks_around_them():
    class Structure:
        def lookup_batch(self, keys):
            return np.asarray(keys, np.uint32)

    class Probe:
        # The machine runs 1.5x, then 2.5x slower than nominal: the one
        # chunk is scaled by the mean, 2x.
        def __init__(self):
            self.factors = iter([1.5, 2.5])

        def memory_s(self):
            return NOMINAL_MEMORY_S * next(self.factors)

    batches = [np.arange(64, dtype=np.uint64)] * 3
    calls, rates, first, last = _timed_calls(Structure(), batches, 0.01, Probe())
    raw = 64 * len(calls) / sum(d for _, d in calls)
    assert len(calls) >= len(batches) and len(first) == len(batches)
    assert rates == pytest.approx([2 * raw])


def test_steal_share_is_steal_ticks_over_all_ticks():
    # user nice system idle iowait irq softirq steal guest guest_nice
    before = [100, 0, 10, 500, 0, 0, 0, 20, 0, 0]
    after = [160, 0, 20, 520, 0, 0, 0, 30, 0, 0]
    assert steal_share(before, after) == pytest.approx(10 / 100)
    assert steal_share(before, before) == 0.0
