"""Float sums that print the same bytes on every supported Python.

From Python 3.12 on, ``sum`` adds floats with compensated rounding, so a
number summed with it can differ in its last digit between 3.11 and 3.12.
The model's float sums go through ``left_sum`` instead.
"""


def left_sum(values):
    """Sum floats left to right in plain double arithmetic, from 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total
