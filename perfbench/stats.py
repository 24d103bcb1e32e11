"""Statistics helpers of the benchmark: medians, quartiles, the tail
percentile and ratios that never put inf or NaN into the JSON result."""

import math
import statistics

# A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    One value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_iqr(values):
    """(Q3 - Q1) / median, 0.0 when the median is 0."""
    q1, q2, q3 = quartiles(values)
    return safe_ratio(q3 - q1, q2)


def tail(values):
    """The highest percentile of `values` with at least TAIL_BEYOND samples
    above it.

    Returns (value, percentile, n): the sample at sorted index
    n-1-TAIL_BEYOND, the share of samples at or below that index in percent,
    and the sample count. With TAIL_BEYOND or fewer samples there is no such
    percentile, so this raises ValueError."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            "a tail with %d samples beyond it needs more than %d samples, got %d"
            % (TAIL_BEYOND, TAIL_BEYOND, n))
    index = n - 1 - TAIL_BEYOND
    return (sorted(values)[index], 100.0 * (index + 1) / n, n)


def safe_ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when the quotient would be infinite
    or NaN (a zero or non-finite operand)."""
    if denominator == 0:
        return 0.0
    return finite(numerator / denominator)


def finite(value):
    """`value` itself when finite, else 0.0."""
    return value if math.isfinite(value) else 0.0
