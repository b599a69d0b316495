"""Shared integer-boundary conventions.

The closed-form policy and the brute-force oracles must agree on how float
ratios round to task counts and on when a total fits its budget, otherwise a
value sitting within one ulp of a boundary would make the two sides disagree
for reasons that have nothing to do with the allocation logic. All of them
import the rules from here; the search logic on each side stays independent.
"""

from __future__ import annotations

import math

REL_EPS = 1e-9

#: relative window within which two objective values count as tied
TIE_REL = 1e-12


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
    fits the average power budget (``within_budget``)."""
    return within_budget(k1 * x_local + k2 * x_offload, budget_w)


def counts_within_power_budget(k1: float, k2: float, f: int, counts,
                               budget_w: float) -> list[int]:
    """The local counts s of ``counts`` that ``power_within_budget(k1, k2, s,
    f - s, budget_w)`` accepts, by the same float operations, with the limit
    computed once. Every count is checked, with no monotonicity assumed; the
    two functions change together."""
    limit = budget_w * (1.0 + REL_EPS)
    return [s for s in counts if k1 * s + k2 * (f - s) <= limit]
