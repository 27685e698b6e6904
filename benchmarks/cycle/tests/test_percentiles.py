"""Nearest-rank percentiles: edge cases."""

import pytest

from percentiles import lower_quartile, median, nearest_rank, summary


def test_single_sample_is_every_percentile():
    for q in (0.0, 0.5, 0.99, 1.0):
        assert nearest_rank([7.0], q) == 7.0


def test_result_is_always_one_of_the_samples():
    samples = [5.0, 1.0, 4.0, 2.0]
    assert nearest_rank(samples, 0.0) == 1.0
    assert nearest_rank(samples, 0.25) == 1.0
    assert nearest_rank(samples, 0.5) == 2.0     # rank ceil(0.5 * 4) = 2
    assert nearest_rank(samples, 0.51) == 4.0
    assert nearest_rank(samples, 0.75) == 4.0
    assert nearest_rank(samples, 1.0) == 5.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_p99_needs_more_than_a_hundred_samples_to_leave_the_maximum():
    assert nearest_rank(list(range(1, 101)), 0.99) == 99
    assert nearest_rank(list(range(1, 100)), 0.99) == 99      # the maximum
    assert nearest_rank(list(range(1, 5001)), 0.99) == 4950   # 50 beyond it


def test_percentiles_are_monotonic_in_q():
    samples = [0.3, 9.0, 2.2, 2.2, 7.1, 0.1, 5.5]
    ranks = [nearest_rank(samples, q / 20) for q in range(21)]
    assert ranks == sorted(ranks)


def test_bad_input_is_rejected():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    for q in (-0.1, 1.1):
        with pytest.raises(ValueError):
            nearest_rank([1.0], q)


def test_summary_reports_count_and_quartiles():
    assert summary([4.0, 1.0, 3.0, 2.0]) == {
        "n": 4, "p25": 1.0, "p50": 2.0, "p75": 3.0,
    }


def test_lower_quartile_survives_a_slow_spell_over_half_the_samples():
    """The ranks a run's sample counts pick: the fastest of up to four,
    the second fastest of five to eight."""
    assert lower_quartile([3.0]) == 3.0
    assert lower_quartile([3.0, 2.0, 9.0]) == 2.0
    assert lower_quartile([2.5, 2.4, 3.3, 3.4, 2.6]) == 2.5
    assert lower_quartile([1.3, 1.9, 1.2, 1.8, 1.7, 1.4, 1.9, 1.8]) == 1.3
