"""The claim rule of scripts/bench_pairs.py, on hand-made numbers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from bench_pairs import claim, quartiles  # noqa: E402

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles_interpolate_between_order_statistics():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 2.5, 3.25]


def test_ten_wins_past_the_parent_spread_hold():
    change = [v - 0.3 for v in PARENT]
    assert claim(PARENT, change, "lower") == (10, True)
    # the same numbers read as a metric where higher is better
    assert claim(change, PARENT, "higher") == (10, True)


def test_nine_wins_in_ten_are_enough_and_eight_are_not():
    change = [v - 0.3 for v in PARENT]
    change[0] = PARENT[0]            # a tie counts for neither side
    assert claim(PARENT, change, "lower") == (9, True)
    change[1] = PARENT[1] + 0.1      # a loss
    assert claim(PARENT, change, "lower") == (8, False)


def test_a_gain_inside_the_parent_spread_does_not_hold():
    # the parent's quartiles are 0.9825 and 1.0175: a median 0.02 lower
    # wins every pair yet sits inside that distance, one 0.04 lower does not
    q1, _, q3 = quartiles(PARENT)
    assert q3 - q1 == pytest.approx(0.035)
    change = [v - 0.02 for v in PARENT]
    assert claim(PARENT, change, "lower") == (10, False)
    change = [v - 0.04 for v in PARENT]
    assert claim(PARENT, change, "lower") == (10, True)


def test_a_gain_in_the_wrong_direction_does_not_hold():
    change = [v + 0.3 for v in PARENT]
    assert claim(PARENT, change, "lower") == (0, False)
    assert claim(PARENT, change, "higher") == (10, True)
