"""The benchmark's own arithmetic on synthetic inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import pytest

from stats import (
    due_latencies,
    error_ratio,
    median,
    percentile,
    samples_beyond,
    self_time,
    slice_rates,
    tail,
    union_length,
    sliced_percentile,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert median([3, 1, 2]) == 2


def test_tail_refuses_a_percentile_the_sample_cannot_support():
    # The rule: report the highest percentile with ten samples beyond it.
    values = [float(i) for i in range(1000)]
    assert tail(values, 99) == 989.0
    assert samples_beyond(1000, 99) == 10
    with pytest.raises(ValueError):
        tail(values[:999], 99)
    assert tail(values[:100], 90) == 89.0
    with pytest.raises(ValueError):
        tail(values[:99], 90)


def test_error_ratio_counts_failures_against_attempts():
    assert error_ratio(200, 0) == 0.0
    assert error_ratio(200, 3) == 0.015
    with pytest.raises(ValueError):
        error_ratio(0, 0)
    with pytest.raises(ValueError):
        error_ratio(10, 11)


def test_due_time_latency_charges_a_stall_to_every_request_behind_it():
    # Requests due every 1 ms; the sender stalls 10 ms before the
    # second one, and the server answers each 0.5 ms after its send.
    dues = [0.000, 0.001, 0.002, 0.003]
    sends = [0.000, 0.011, 0.011, 0.011]
    dones = [s + 0.0005 for s in sends]
    from_due = due_latencies(zip(dues, dones))
    from_send = due_latencies(zip(sends, dones))
    assert from_send == pytest.approx([0.0005] * 4)
    assert from_due == pytest.approx([0.0005, 0.0105, 0.0095, 0.0085])
    with pytest.raises(ValueError):
        due_latencies([(1.0, 0.5)])


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_covered_part_once():
    # A 100 us span with children [10, 30] and [20, 50] (overlapping)
    # and one child reaching past its end.
    children = [(10, 30), (20, 50), (90, 120)]
    assert self_time(0, 100, children) == 100 - 40 - 10
    assert self_time(0, 100, []) == 100
    assert self_time(0, 100, [(200, 300)]) == 100


def test_sliced_percentile_keeps_one_stall_from_deciding_the_tail():
    # 20,000 samples at 1 ms in time order; a 50 ms stall hits 300 of
    # them in a row, 1.5% of the run.
    values = [1.0] * 20000
    values[7000:7300] = [50.0] * 300
    assert tail(values, 99) == 50.0
    assert sliced_percentile(values, 99) == 1.0
    # Fewer than two slices: the whole sample's tail.
    assert sliced_percentile([float(v) for v in range(1000)], 99) == 989.0


def test_slice_rates_drop_work_outside_the_window():
    events = [(0.1, 10.0), (0.6, 10.0), (1.1, 30.0), (2.5, 99.0), (-0.1, 5.0)]
    assert slice_rates(events, 0.0, 1.5, window=0.5) == [20.0, 20.0, 60.0]
