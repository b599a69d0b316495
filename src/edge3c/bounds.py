"""Shared integer-boundary conventions and range-safe arithmetic.

The closed-form policy and the brute-force oracles must agree on how float
ratios round to task counts and on when a total fits its budget, otherwise a
value sitting within one ulp of a boundary would make the two sides disagree
for reasons that have nothing to do with the allocation logic. All of them
import the rules from here; the search logic on each side stays independent.
This is also the one home of range-safe arithmetic (``_ratio``, ``_exact``):
a quotient of config fields, or its square root, is the plain float
expression where every partial result is normal, else exact in integer
arithmetic, rounded once.
"""

from __future__ import annotations

import math

REL_EPS = 1e-9

#: relative window within which two objective values count as tied
TIE_REL = 1e-12

_TINY, _HUGE = 2.0 ** -1022, 1.7976931348623157e308  # the least and greatest normal floats


def _exact(num: tuple, den: tuple, root: bool = False) -> float:
    """The product of ``num`` over that of ``den`` (floats, ints or Fractions
    >= 0), or with ``root`` its square root, rounded once: int true division
    of the multiplied-out integer ratios is correctly rounded. Over a 0 or
    infinite factor, or past float range, it is inf."""
    p = q = 1
    try:
        for x in num:
            n, d = x.as_integer_ratio()
            p, q = p * n, q * d
        for x in den:
            n, d = x.as_integer_ratio()
            p, q = p * d, q * n
        if root:  # the integer root r of p/q * 4**s has 58 bits or more; with a sticky
            # last bit, set where that root is inexact, r / 2**s rounds as the root does
            s = 58 - (p.bit_length() - q.bit_length()) // 2
            n, rem = divmod(p << max(2 * s, 0), q << max(-2 * s, 0))
            r = math.isqrt(n)
            r |= rem != 0 or r * r != n
            p, q = r << max(-s, 0), 1 << max(s, 0)
        return p / q
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _ratio(x: float, y: float, a: float, b: float, c: float = 1.0) -> float:
    """x*y / (a*b*c) for x, y >= 0 and a, b, c > 0: the float division where
    x*y, a*b and a*b*c are at least normal and the quotient is normal (a product
    past float range leaves it inf, 0 or NaN), else ``_exact``. Past float range,
    or over a factor that underflowed to 0, it is inf; over an infinite one, 0."""
    if _TINY <= (n := x * y) and _TINY <= (ab := a * b) and _TINY <= (den := ab * c) \
            and _TINY <= (q := n / den) <= _HUGE:
        return q
    if math.inf in (a, b, c):
        return 0.0
    return _exact((x, y), (a, b, c))


def floor_eps(x: float) -> int:
    """floor(x) robust to downward float noise: floor(x + eps)."""
    return math.floor(x + REL_EPS * max(1.0, abs(x)))


def cache_task_capacity(cache_bits: float, input_remote_bits: float, task_count: int) -> int:
    """Largest number of tasks whose remote inputs fit in the cache, capped at F.

    A zero-size remote input never occupies cache space, so the cap is F.
    The ratio is clamped before rounding: a subnormal input size can push it
    past float range.
    """
    if input_remote_bits <= 0:
        return task_count
    ratio = cache_bits / input_remote_bits
    if ratio >= task_count:
        return task_count
    return max(0, min(task_count, floor_eps(ratio)))


def within_budget(total: float, budget: float) -> bool:
    """Whether ``total`` fits ``budget`` up to the package-wide relative
    tolerance, with no absolute slack: the validator accepts only power
    budgets > 0 and cache sizes >= 0, so the relative window suffices, and an
    empty cache holds nothing."""
    return total <= budget * (1.0 + REL_EPS)


def power_within_budget(k1: float, k2: float, x_local: int, x_offload: int,
                        budget_w: float) -> bool:
    """Whether a mix of x_local locally-computed and x_offload offloaded tasks
    fits the average power budget (``within_budget``).

    The draw k1*x_local + k2*x_offload is evaluated as lo*F + |k1 - k2|*h,
    with lo = min(k1, k2), F = x_local + x_offload and h the tasks on the
    hungrier route: the local ones when k1 > k2, else the offloaded ones. At
    a fixed F that is one rounded product and one rounded sum, each
    nondecreasing in h, so the rule accepts a prefix of h at any F; with
    every term >= 0, the draw is never NaN."""
    hungry = x_local if k1 > k2 else x_offload
    return within_budget(min(k1, k2) * (x_local + x_offload) + abs(k1 - k2) * hungry, budget_w)


def counts_within_power_budget(k1: float, k2: float, f: int, counts,
                               budget_w: float) -> list[int]:
    """The local counts s of ``counts`` that ``power_within_budget(k1, k2, s,
    f - s, budget_w)`` accepts, by the same float operations, with lo*F and
    the limit computed once. Every count is checked, with no monotonicity
    assumed; the two functions change together."""
    base, gap, limit = min(k1, k2) * f, abs(k1 - k2), budget_w * (1.0 + REL_EPS)
    if k1 > k2:
        return [s for s in counts if base + gap * s <= limit]
    return [s for s in counts if base + gap * (f - s) <= limit]


def power_cap(k1: float, k2: float, f: int, budget_w: float) -> int:
    """The most tasks h in [0, F] that the power budget lets onto the hungrier
    route (local when k1 > k2, else offloaded), or -1 when no mix fits: the
    largest h that ``power_within_budget`` accepts, by the same float
    operations. The draw is nondecreasing in h, so an integer bisection finds
    it exactly at any F. When k1 == k2 the mix does not move the draw, and
    the cap is F or -1."""
    base, gap, limit = min(k1, k2) * f, abs(k1 - k2), budget_w * (1.0 + REL_EPS)
    if base > limit:
        return -1
    if base + gap * f <= limit:
        return f
    fits, misses = 0, f  # the rule accepts h = fits and rejects h = misses
    while misses - fits > 1:
        mid = (fits + misses) // 2
        if base + gap * mid <= limit:
            fits = mid
        else:
            misses = mid
    return fits
