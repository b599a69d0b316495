"""Brute-force reference solvers used to validate the closed forms.

Nothing here shares algorithmic structure with the policy module: the count
oracle enumerates every (x1, x2) cell that the one-coordinate constraints
allow, the per-task oracle enumerates
every route assignment of every task, and the bandwidth-split oracle runs a
one-dimensional golden-section search. They do share the package's boundary
conventions from ``bounds`` (epsilon floor for the cache capacity, the one
budget tolerance for cache and power, the tie window), so a value one ulp
away from a boundary cannot manufacture a disagreement.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .bandwidth import DEFAULT_BANDWIDTH_CAP, RouteCosts, route_costs
from .bounds import TIE_REL, cache_task_capacity, power_within_budget, within_budget
from .errors import InfeasibleError, InvalidFieldError, TooLargeError
from .model import SystemConfig, validate_config
from .parallel import ordered_map

#: largest ``trials`` run_verification accepts: ten times the paper's
#: 10,000-config check, holding about 20 MiB of per-trial results
MAX_TRIALS = 100_000


class OracleSolution(NamedTuple):
    x1: int
    x2: int
    x3: int
    b_total_hz: float
    num_optima: int  # count of objective-tied count vectors (within TIE_REL)


def enumerate_optimal(config: SystemConfig, limit: int = 2000,
                      cap: float = DEFAULT_BANDWIDTH_CAP,
                      costs: RouteCosts | None = None) -> OracleSolution:
    """Exhaustive minimum over all count triples (x1, x2, x3) summing to F.

    Enumerates the box of (x1, x2) rows and columns that the one-coordinate
    constraints allow (x1 <= Q, and x1 = 0 or x2 = 0 when route 1 or the
    local routes miss the deadline), checks x3 = F - x1 - x2 and the power
    budget once per local count x1 + x2, and evaluates the objective on every
    cell. The box is a leading block of the full (F+1)^2 lattice in
    row-major order, so the first optimum found is the full lattice's first
    optimum. Time and memory are O(F^2): memory peaks at about 9 bytes per
    box cell (the objective and its tie mask), so about 35 MiB at the
    default ``limit`` of F = 2000.

    ``costs`` are the route costs of a config the caller has already
    validated; given them, the config is neither validated again nor costed.
    """
    import numpy as np  # imported here so that commands other than verify never load numpy
    from numpy.lib.stride_tricks import as_strided

    if costs is None:
        validate_config(config)
    f = config.task_count
    if f > limit:
        raise TooLargeError("task_count", f, limit)
    if costs is None:
        costs = route_costs(config, cap)

    qf = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
    n1 = qf + 1 if costs.route1_feasible else 1
    n2 = f + 1 if costs.route12_feasible else 1
    # cell (x1, x2) reads the rules' results for s = x1 + x2
    s = np.arange(n1 + n2 - 1)
    x3 = f - s
    valid = x3 >= 0 if costs.route3_feasible else x3 == 0
    # a draw past float range overflows to inf, which the budget rule rejects
    with np.errstate(over="ignore"):
        valid &= power_within_budget(costs.k1, costs.k2, s, x3, config.device.avg_power_w)

    if not valid.any():
        # distinguish the two ways of having no feasible vector; cached tasks
        # still compute locally, so the cache covers nothing once route 1 fails
        reachable = (qf if costs.route1_feasible else 0) \
            + (f if costs.route12_feasible else 0) + (f if costs.route3_feasible else 0)
        if reachable < f:
            raise InfeasibleError("latency", "feasible routes cannot cover the task set")
        raise InfeasibleError("power", "no count vector fits the power budget")

    b2 = costs.b2 if costs.b2 is not None else 0.0
    b3 = costs.b3 if costs.b3 is not None else 0.0
    per_s = np.where(valid, b3 * x3, np.inf)
    objective = b2 * np.arange(n2) + as_strided(per_s, (n1, n2), (per_s.strides[0],) * 2,
                                                writeable=False)
    flat = int(np.argmin(objective))
    best = float(objective.flat[flat])
    ties = objective <= best + TIE_REL * max(1.0, abs(best))
    x1_best, x2_best = divmod(flat, n2)
    return OracleSolution(x1=x1_best, x2=x2_best, x3=f - x1_best - x2_best,
                          b_total_hz=best, num_optima=int(ties.sum()))


def enumerate_per_task(config: SystemConfig, limit: int = 10,
                       cap: float = DEFAULT_BANDWIDTH_CAP) -> OracleSolution:
    """Exhaustive minimum over all 3^F per-task route assignments.

    Validates the reduction from per-task decisions to counts: constraints are
    evaluated on the per-task cache/local flag vectors, not on counts.
    """
    validate_config(config)
    f = config.task_count
    if f > limit:
        raise TooLargeError("task_count", f, limit)
    costs = route_costs(config, cap)
    t = config.task
    budget = config.device.avg_power_w
    cache_bits = config.device.cache_bits

    allowed = [r for r, ok in ((1, costs.route1_feasible),
                               (2, costs.route12_feasible),
                               (3, costs.route3_feasible)) if ok]
    if not allowed:
        raise InfeasibleError("latency", "no route can meet the deadline")

    bw = {1: 0.0, 2: costs.b2, 3: costs.b3}
    best = math.inf
    best_counts = None
    tied: set[tuple[int, int, int]] = set()
    found_any = False
    for routes in itertools.product(allowed, repeat=f):
        c = [1 if r == 1 else 0 for r in routes]
        d = [1 if r in (1, 2) else 0 for r in routes]
        if not within_budget(sum(ci * t.input_remote_bits for ci in c), cache_bits):
            continue
        if not within_budget(sum(costs.k1 if di else costs.k2 for di in d), budget):
            continue
        found_any = True
        total = sum(bw[r] for r in routes)
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


def run_verification(trials: int = 1000, seed: int = 0,
                     threads: int | None = None, tolerance: float = 1e-9) -> dict:
    """Compare the closed-form policy against the enumeration oracle on
    ``trials`` stratified random configs; deterministic for a given seed
    regardless of worker count.

    ``trials`` must lie in [1, MAX_TRIALS]; it is checked before any config
    is drawn.
    """
    from .policy import solve_with_costs
    from .sampling import sample_config

    if trials < 1:
        raise InvalidFieldError("trials", "must be >= 1")
    if trials > MAX_TRIALS:
        raise TooLargeError("trials", trials, MAX_TRIALS)

    def one(trial: int) -> tuple[float, str]:
        config = sample_config(seed, trial)  # already validated
        costs = route_costs(config)
        f = config.task_count
        q = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
        solved = solve_with_costs(f, q, config.device.avg_power_w, costs)
        reference = enumerate_optimal(config, costs=costs)
        return relative_error(solved.b_total_hz, reference.b_total_hz), solved.regime.label

    results = ordered_map(one, range(trials), threads)
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


def numeric_bandwidth_split(a1: float, a2: float, a3: float,
                            rtol: float = 1e-8) -> tuple[float, float]:
    """Golden-section search for the bandwidth-minimal (uplink, downlink) split.

    The downlink share is solved from the tight latency constraint
    ``a1/bu + a2/bd = a3``, leaving a one-dimensional convex problem in bu on
    (a1/a3, infinity); the optimum lies below 2*(a1+a2)/a3 because that value
    is already achievable. Converges to relative tolerance ``rtol``.
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
    while (hi - lo) > rtol * max(1.0, abs(lo) + abs(hi)) / 2.0:
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
