"""Brute-force reference solvers used to validate the closed forms.

Nothing here shares algorithmic structure with the policy module: the count
oracle scans every local count x1 + x2 of the (x1, x2) cells that the
one-coordinate constraints allow, the per-task oracle enumerates every route
assignment of every task, and the bandwidth-split oracle runs a
one-dimensional golden-section search. They do share the package's boundary
conventions from ``bounds`` (epsilon floor for the cache capacity, the one
budget tolerance for cache and power, the tie window), so a value one ulp
away from a boundary cannot manufacture a disagreement.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import NamedTuple

from .bandwidth import RouteCosts, route_costs
from .bounds import TIE_REL, cache_task_capacity, counts_within_power_budget, within_budget
from .errors import InfeasibleError, InvalidFieldError, TooLargeError
from .model import SystemConfig, validate_config
from .parallel import ordered_map

#: largest ``trials`` run_verification accepts: ten times the paper's
#: 10,000-config check, holding about 20 MiB of per-trial results
MAX_TRIALS = 100_000
#: largest task count F the lattice oracle and the per-task oracle accept
LATTICE_MAX_F = 2000
PER_TASK_MAX_F = 10
#: relative tolerance of the golden-section bandwidth split
SPLIT_RTOL = 1e-8


class OracleSolution(NamedTuple):
    x1: int
    x2: int
    x3: int
    b_total_hz: float
    num_optima: int  # count of objective-tied count vectors (within TIE_REL)


def enumerate_optimal(config: SystemConfig, *, costs: RouteCosts | None = None) -> OracleSolution:
    """Exhaustive minimum over all count triples (x1, x2, x3) summing to F.

    Covers the box of (x1, x2) rows and columns that the one-coordinate
    constraints allow (x1 <= Q, and x1 = 0 or x2 = 0 when route 1 or the
    local routes miss the deadline), one diagonal of local count
    s = x1 + x2 at a time, checking x3 = F - s and the power budget once per
    diagonal, every one through ``counts_within_power_budget``. Along a
    diagonal the objective ``b2*x2 + b3*x3`` is nondecreasing in x2, since
    b2 >= 0, so its cell of least x2 is its minimum, found in one pass; the
    cells that tie with the optimum, or that equal it, are a prefix that a
    bisection finds. The answer is that of a scan of every cell: the same
    total, the same count of tied cells, and the first optimum in row-major
    order. Time and memory are O(F), apart from a bisection on each diagonal
    whose minimum lies within the tie window.

    ``costs`` are the route costs of a config the caller has already
    validated; given them, the config is neither validated again nor costed.
    """
    if costs is None:
        validate_config(config)
    f = config.task_count
    if f > LATTICE_MAX_F:
        raise TooLargeError("task_count", f, LATTICE_MAX_F)
    if costs is None:
        costs = route_costs(config)

    qf = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
    n1 = qf + 1 if costs.route1_feasible else 1
    n2 = f + 1 if costs.route12_feasible else 1
    b2 = costs.b2 if costs.b2 is not None else 0.0
    b3 = costs.b3 if costs.b3 is not None else 0.0
    # the local counts that leave x3 = F - s >= 0, or x3 = 0 without route 3
    last = n1 + n2 - 2
    if costs.route3_feasible:
        local_counts = range(min(last, f) + 1)
    else:
        local_counts = (f,) if f <= last else ()
    k1, k2, budget = costs.k1, costs.k2, config.device.avg_power_w
    fits = counts_within_power_budget(k1, k2, f, local_counts, budget)
    if not fits:
        # distinguish the two ways of having no feasible vector; cached tasks
        # still compute locally, so the cache covers nothing once route 1 fails
        reachable = (qf if costs.route1_feasible else 0) \
            + (f if costs.route12_feasible else 0) + (f if costs.route3_feasible else 0)
        if reachable < f:
            raise InfeasibleError("latency", "feasible routes cannot cover the task set")
        raise InfeasibleError("power", "no count vector fits the power budget")

    # a diagonal's cell of least x2 is its minimum
    minima = [b2 * (s - n1 + 1 if s >= n1 else 0) + b3 * (f - s) for s in fits]
    best = min(minima)
    window = best + TIE_REL * max(1.0, abs(best))
    ties = 0
    first = None  # (x1, x2) of the first optimum in row-major order
    for s, minimum in zip(fits, minima):
        if minimum > window:
            continue
        lo = s - n1 + 1 if s >= n1 else 0
        offload = b3 * (f - s)
        cells = range(lo, min(s, n2 - 1) + 1)

        def objective(x2: int) -> float:
            return b2 * x2 + offload

        ties += bisect_right(cells, window, key=objective)
        if minimum == best:
            # the optimal cell of least x1 on this diagonal has the most x2
            x2 = lo + bisect_right(cells, best, key=objective) - 1
            if first is None or (s - x2, x2) < first:
                first = (s - x2, x2)
    x1_best, x2_best = first
    return OracleSolution(x1=x1_best, x2=x2_best, x3=f - x1_best - x2_best,
                          b_total_hz=best, num_optima=ties)


def enumerate_per_task(config: SystemConfig) -> OracleSolution:
    """Exhaustive minimum over all 3^F per-task route assignments.

    Validates the reduction from per-task decisions to counts: constraints are
    evaluated on sums over the tasks in task order, not on counts.
    """
    validate_config(config)
    f = config.task_count
    if f > PER_TASK_MAX_F:
        raise TooLargeError("task_count", f, PER_TASK_MAX_F)
    costs = route_costs(config)
    t = config.task
    budget = config.device.avg_power_w
    cache_bits = config.device.cache_bits

    allowed = [r for r, ok in ((1, costs.route1_feasible),
                               (2, costs.route12_feasible),
                               (3, costs.route3_feasible)) if ok]
    if not allowed:
        raise InfeasibleError("latency", "no route can meet the deadline")

    # a task's cache bits, power draw and bandwidth on its route: a cached task
    # holds its remote input, and a cached or downloaded one computes locally
    cache = {1: t.input_remote_bits, 2: 0.0, 3: 0.0}.__getitem__
    power = {1: costs.k1, 2: costs.k1, 3: costs.k2}.__getitem__
    bw = {1: 0.0, 2: costs.b2, 3: costs.b3}.__getitem__
    best = math.inf
    best_counts = None
    tied: set[tuple[int, int, int]] = set()
    found_any = False
    for routes in itertools.product(allowed, repeat=f):
        if not within_budget(sum(map(cache, routes)), cache_bits):
            continue
        if not within_budget(sum(map(power, routes)), budget):
            continue
        found_any = True
        total = sum(map(bw, routes))
        counts = (routes.count(1), routes.count(2), routes.count(3))
        tol = TIE_REL * max(1.0, abs(best)) if math.isfinite(best) else 0.0
        if total < best - tol:
            best = total
            best_counts = counts
            tied = {counts}
        elif total <= best + tol:
            tied.add(counts)
    if not found_any:
        capacity = cache_task_capacity(cache_bits, t.input_remote_bits, f) \
            if costs.route1_feasible else 0
        if capacity + (f if costs.route12_feasible else 0) \
                + (f if costs.route3_feasible else 0) < f:
            raise InfeasibleError("latency", "feasible routes cannot cover the task set")
        raise InfeasibleError("power", "no assignment fits the power budget")
    return OracleSolution(x1=best_counts[0], x2=best_counts[1], x3=best_counts[2],
                          b_total_hz=best, num_optima=len(tied))


def relative_error(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def run_verification(trials: int = 1000, seed: int = 0, tolerance: float = 1e-9) -> dict:
    """Compare the closed-form policy against the enumeration oracle on
    ``trials`` stratified random configs; deterministic for a given seed.

    ``trials`` must be an integer in [1, MAX_TRIALS] and ``seed`` an
    integer >= 0; both are checked before any config is drawn.
    """
    from .policy import _scalars, solve_with_costs
    from .sampling import _require_int, sample_config

    _require_int("trials", trials, 1)
    if trials > MAX_TRIALS:
        raise TooLargeError("trials", trials, MAX_TRIALS)
    _require_int("seed", seed, 0)

    def one(trial: int) -> tuple[float, str]:
        config = sample_config(seed, trial)  # already validated
        costs = route_costs(config)
        solved = solve_with_costs(*_scalars(config), costs)
        reference = enumerate_optimal(config, costs=costs)
        return relative_error(solved.b_total_hz, reference.b_total_hz), solved.regime.label

    results = ordered_map(one, range(trials))
    regimes: dict[str, int] = {}
    for _, label in results:
        regimes[label] = regimes.get(label, 0) + 1
    errors = [err for err, _ in results]
    max_err = max(errors) if errors else 0.0
    failures = [{"trial": i, "rel_error": err}
                for i, err in enumerate(errors) if err > tolerance][:10]
    return {
        "trials": trials,
        "seed": seed,
        "tolerance": tolerance,
        "max_rel_error": max_err,
        "pass": max_err <= tolerance,
        "regimes": {k: regimes[k] for k in sorted(regimes)},
        "failures": failures,
    }


def numeric_bandwidth_split(a1: float, a2: float, a3: float) -> tuple[float, float]:
    """Golden-section search for the bandwidth-minimal (uplink, downlink) split.

    The downlink share is solved from the tight latency constraint
    ``a1/bu + a2/bd = a3``, leaving a one-dimensional convex problem in bu on
    (a1/a3, infinity); the optimum lies below 2*(a1+a2)/a3 because that value
    is already achievable. Converges to relative tolerance ``SPLIT_RTOL``.
    """
    if not (a1 >= 0 and a2 >= 0):
        raise InvalidFieldError("a1/a2", "must be >= 0")
    if not a3 > 0:
        raise InvalidFieldError("a3", "must be > 0")
    if a1 + a2 == 0:
        raise InvalidFieldError("a1+a2", "must be > 0 (nothing to transfer)")
    if a1 == 0:
        return 0.0, a2 / a3
    if a2 == 0:
        return a1 / a3, 0.0

    def total(bu: float) -> float:
        return bu + a2 / (a3 - a1 / bu)

    lo = a1 / a3 * (1.0 + 1e-12)
    hi = 2.0 * (a1 + a2) / a3
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    m1 = hi - invphi * (hi - lo)
    m2 = lo + invphi * (hi - lo)
    f1, f2 = total(m1), total(m2)
    while (hi - lo) > SPLIT_RTOL * max(1.0, abs(lo) + abs(hi)) / 2.0:
        if f1 <= f2:
            hi, m2, f2 = m2, m1, f1
            m1 = hi - invphi * (hi - lo)
            f1 = total(m1)
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + invphi * (hi - lo)
            f2 = total(m2)
    bu = (lo + hi) / 2.0
    return bu, a2 / (a3 - a1 / bu)
