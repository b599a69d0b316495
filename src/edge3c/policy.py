"""Bandwidth-optimal split of the task set across the three service routes.

With F identical tasks, uniform request probabilities and per-task route
bandwidths B1 = 0 <= B2, B3, the per-task problem collapses to choosing counts
(x1, x2, x3): x1 tasks served from cache, x2 via download-then-local-compute,
x3 offloaded, minimizing x2*B2 + x3*B3 subject to

    x1 * I_remote <= cache_bits          (cache)
    k1*(x1 + x2) + k2*x3 <= avg_power_w  (power)
    x1 + x2 + x3 = F, all >= 0 integers.

The argmin has a closed form. Write Q = min(F, floor(C / I_remote)) for the
cache capacity in tasks and u = (Pbar - F*k2) / (k1 - k2) for the power
bound's real-valued location. Cached tasks cost no bandwidth, so x1 is always
pushed to its cap; the rest splits by which route is cheaper per Hz and which
direction the power budget cuts:

* k1 > k2 (local computing is the power-hungry option): the budget caps the
  number of locally computed tasks at U = floor(u).
  - B3 > B2: x1 = min(Q, U), x2 = max(0, min(F, U) - x1), x3 = rest.
  - B3 <= B2: x1 = min(Q, U), x2 = 0, x3 = rest (offload is cheaper in both
    bandwidth and power, so route 2 is never used).
* k1 <= k2 (offloading is the power-hungry option): the budget now puts a
  floor L = ceil(u) on the number of locally computed tasks (note u keeps the
  k1 - k2 denominator; both numerator and denominator flip sign together).
  - B3 > B2: offloading never helps: x1 = Q, x2 = F - Q, x3 = 0.
  - B3 <= B2: x1 = Q, x2 = max(0, L - x1), x3 = rest; x2 > 0 exactly when the
    power budget forces tasks off the otherwise-cheaper offload route.
* k1 == k2: the mix does not move total power, so the bound is treated as
  absent (only the F * k1 <= Pbar feasibility pre-check applies).

In floats, U and L are the counts that ``bounds.power_within_budget``, the
budget rule of the oracles, accepts at the bound.

When a route cannot meet the deadline at any bandwidth the same objective is
minimized over the remaining routes; coverage is checked first (latency), then
the minimum achievable power (power), so infeasibility is reported with the
constraint that actually bites.

Configs classify into nine regimes: the sign of k1 - k2, the ordering of B2
and B3 (ties map to the B3 <= B2 branch), and where the power bound sits
relative to the cache capacity and F.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bandwidth import DEFAULT_BANDWIDTH_CAP, RouteCosts, route_costs
from .bounds import REL_EPS, cache_task_capacity, power_within_budget, within_budget
from .errors import InfeasibleError, InvalidFieldError
from .model import SystemConfig, validate_config

_BINDING_ORDER = ("cache", "power", "tasks", "latency")


class Regime(NamedTuple):
    """One of the nine operating regions, with its defining conditions."""

    label: str
    k1_gt_k2: bool
    b3_gt_b2: bool
    detail: str


def _regime(k1_gt_k2: bool, b3_gt_b2: bool, detail: str) -> Regime:
    label = f"{'k1>k2' if k1_gt_k2 else 'k1<=k2'}/{'B3>B2' if b3_gt_b2 else 'B3<=B2'}/{detail}"
    return Regime(label=label, k1_gt_k2=k1_gt_k2, b3_gt_b2=b3_gt_b2, detail=detail)


#: The nine regimes, in the order the sampler targets them (trial i aims at
#: REGIMES[i % 9]). Labels are slash-separated and comma-free so CSV stays
#: unquoted. Every solve returns one of these instances.
REGIMES = (
    _regime(True, True, "power-limited"),
    _regime(True, True, "cache-then-power"),
    _regime(True, True, "power-ample"),
    _regime(True, False, "power-limited"),
    _regime(True, False, "cache-limited"),
    _regime(True, False, "power-ample"),
    _regime(False, True, "local-always"),
    _regime(False, False, "mec-unconstrained"),
    _regime(False, False, "forced-local"),
)
REGIME_LABELS = tuple(r.label for r in REGIMES)
_REGIME_BY_KEY = {(r.k1_gt_k2, r.b3_gt_b2, r.detail): r for r in REGIMES}


class PolicySolution(NamedTuple):
    x1: int
    x2: int
    x3: int
    b_total_hz: float
    b_avg_hz: float
    regime: Regime
    binding: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "x1": self.x1, "x2": self.x2, "x3": self.x3,
            "b_total_hz": self.b_total_hz, "b_avg_hz": self.b_avg_hz,
            "regime": self.regime.label, "binding": list(self.binding),
        }


def _power_floor(f: int, qf: int, costs: RouteCosts) -> float:
    """Minimum total power over mixes that respect route feasibility and cache."""
    k1, k2 = costs.k1, costs.k2
    r2, r3 = costs.route12_feasible, costs.route3_feasible
    if r2 and r3:
        return f * min(k1, k2)
    if r2:
        return f * k1
    if r3:
        if k2 <= k1:
            return f * k2
        return k1 * qf + k2 * (f - qf)
    return f * k1


def _power_bound(f: int, k1: float, k2: float, avg_power_w: float) -> int | None:
    """The power budget's bound on the local count x1 + x2: the cap U when
    k1 > k2, the floor L when k1 < k2, and None when k1 == k2 (the mix does
    not move total power).

    u is where the budget's tolerance window ends, as a count of local tasks,
    clamped into [0, F] before rounding: a near-zero k1 - k2 can push it to
    huge magnitudes or infinity. One step either way settles the count on
    power_within_budget, the oracles' rule; more steps would only walk float
    noise, which spans many counts at huge F."""
    if k1 == k2:
        return None
    k1_gt = k1 > k2
    u = (avg_power_w * (1.0 + REL_EPS) - f * k2) / (k1 - k2)
    n = 0 if u <= 0 else (f if u >= f else (math.floor(u) if k1_gt else math.ceil(u)))
    if k1_gt:
        if n < f and power_within_budget(k1, k2, n + 1, f - n - 1, avg_power_w):
            n += 1
        elif n > 0 and not power_within_budget(k1, k2, n, f - n, avg_power_w):
            n -= 1
    else:
        if n > 0 and power_within_budget(k1, k2, n - 1, f - n + 1, avg_power_w):
            n -= 1
        elif n < f and not power_within_budget(k1, k2, n, f - n, avg_power_w):
            n += 1
    return n


def _power_key(f: int, q: int, avg_power_w: float, costs: RouteCosts) -> tuple:
    """Every fact solve_with_costs and the three baselines read from the
    power budget Pbar, at fixed F, Q and route costs: whether the power
    floor fits, the power bound, and whether all-offload and all-local fit.
    Two budgets with equal keys give the same solution and baselines."""
    k1, k2 = costs.k1, costs.k2
    return (within_budget(_power_floor(f, q if costs.route1_feasible else 0, costs), avg_power_w),
            _power_bound(f, k1, k2, avg_power_w),
            power_within_budget(k1, k2, 0, f, avg_power_w),
            power_within_budget(k1, k2, f, 0, avg_power_w))


def solve_with_costs(f: int, q: int, avg_power_w: float, costs: RouteCosts) -> PolicySolution:
    """solve_optimal for a config already validated, from the three scalars
    it reads besides the route costs: the task count F, the cache capacity
    Q in tasks (``bounds.cache_task_capacity`` of the cache size C, the
    remote input size I_remote and F) and the power budget Pbar. A sweep
    point passes its swept value in place of the config's own."""
    k1, k2 = costs.k1, costs.k2
    r2, r3 = costs.route12_feasible, costs.route3_feasible

    qf = q if costs.route1_feasible else 0

    reachable = qf + (f if r2 else 0) + (f if r3 else 0)
    if reachable < f:
        raise InfeasibleError("latency", "feasible routes cannot cover the task set")
    pmin = _power_floor(f, qf, costs)
    if not within_budget(pmin, avg_power_w):
        raise InfeasibleError("power", "minimum achievable power exceeds the budget")

    k1_gt = k1 > k2
    # the power budget's bound on x1 + x2: the cap U when k1 > k2, else the floor L
    bound = _power_bound(f, k1, k2, avg_power_w)
    upper, lower = (bound, 0) if k1_gt else (None, bound or 0)

    b2_eff = costs.b2 if r2 else float("inf")
    b3_eff = costs.b3 if r3 else float("inf")
    b3_gt_b2 = b3_eff > b2_eff

    if r2 and r3:
        if k1_gt:
            x1 = min(qf, upper)
            if b3_gt_b2:
                x2 = max(0, min(f, upper) - x1)
            else:
                x2 = 0
        else:
            x1 = qf
            x2 = (f - x1) if b3_gt_b2 else max(0, lower - x1)
    elif r2:
        x1 = qf
        x2 = f - x1
    elif r3:
        x1 = min(qf, upper) if k1_gt else qf
        x2 = 0
    else:
        x1 = min(qf, f)
        x2 = 0
    x3 = f - x1 - x2

    if k1_gt:
        if upper < f and upper <= qf:
            detail = "power-limited"
        elif upper < f:
            detail = "cache-then-power" if b3_gt_b2 else "cache-limited"
        else:
            detail = "power-ample"
    else:
        if b3_gt_b2:
            detail = "local-always"
        else:
            detail = "forced-local" if x2 > 0 else "mec-unconstrained"
    regime = _REGIME_BY_KEY[(k1_gt, b3_gt_b2, detail)]

    binding = set()
    x1_bounds = {"cache": qf, "tasks": f}
    if k1_gt:
        x1_bounds["power"] = upper
    m = min(x1_bounds.values())
    for name, bound in x1_bounds.items():
        if bound == m:
            binding.add(name)
    if k1_gt and b3_gt_b2 and r2 and r3 and upper < f:
        binding.add("power")
    if not k1_gt and x2 > 0:
        binding.add("power")
    if not (costs.route1_feasible and r2 and r3):
        binding.add("latency")
    ordered = tuple(n for n in _BINDING_ORDER if n in binding)

    b_total = (costs.b2 * x2 if x2 else 0.0) + (costs.b3 * x3 if x3 else 0.0)
    return PolicySolution(x1=x1, x2=x2, x3=x3, b_total_hz=b_total, b_avg_hz=b_total / f,
                          regime=regime, binding=ordered)


def solve_optimal(config: SystemConfig, cap: float = DEFAULT_BANDWIDTH_CAP) -> PolicySolution:
    """Closed-form bandwidth-minimal route counts for the task set."""
    validate_config(config)
    f = config.task_count
    q = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
    return solve_with_costs(f, q, config.device.avg_power_w, route_costs(config, cap))


def classify_regime(config: SystemConfig, cap: float = DEFAULT_BANDWIDTH_CAP) -> Regime:
    """Which of the nine operating regions the config sits in (unique)."""
    return solve_optimal(config, cap).regime


def baseline_counts(kind: str, f: int, q: int, avg_power_w: float,
                    costs: RouteCosts) -> tuple[int, int, int, float]:
    """(x1, x2, x3, total bandwidth) of a baseline policy for a config already
    validated, from the same three scalars as solve_with_costs (F, the cache
    capacity Q in tasks, Pbar) and the route costs; raises InfeasibleError
    when the baseline cannot serve the task set."""
    if kind == "mec_only":
        if not costs.route3_feasible:
            raise InfeasibleError("latency", "offload route cannot meet the deadline")
        if not power_within_budget(costs.k1, costs.k2, 0, f, avg_power_w):
            raise InfeasibleError("power", "offloading every task exceeds the power budget")
        return 0, 0, f, costs.b3 * f
    if kind == "local_only":
        x1 = q if costs.route1_feasible else 0
        x2 = f - x1
        if x2 > 0 and not costs.route12_feasible:
            raise InfeasibleError("latency", "download-and-compute route cannot meet the deadline")
        if x2 == 0 and not costs.route1_feasible:
            raise InfeasibleError("latency", "local compute cannot meet the deadline")
        if not power_within_budget(costs.k1, costs.k2, f, 0, avg_power_w):
            raise InfeasibleError("power", "computing every task locally exceeds the power budget")
        return x1, x2, 0, costs.b2 * x2 if x2 else 0.0
    if kind == "local_no_cache":
        if not costs.route12_feasible:
            raise InfeasibleError("latency", "download-and-compute route cannot meet the deadline")
        if not power_within_budget(costs.k1, costs.k2, f, 0, avg_power_w):
            raise InfeasibleError("power", "computing every task locally exceeds the power budget")
        return 0, f, 0, costs.b2 * f
    raise InvalidFieldError("kind", f"unknown baseline {kind!r}")


def baseline_policy(kind: str, config: SystemConfig,
                    cap: float = DEFAULT_BANDWIDTH_CAP) -> PolicySolution:
    """Fixed reference policies: "mec_only" offloads everything,
    "local_only" computes everything locally (cache first), "local_no_cache"
    computes locally without using the cache.

    The regime reported is the config's own, so a baseline of a config whose
    optimum is infeasible raises too."""
    validate_config(config)
    costs = route_costs(config, cap)
    f = config.task_count
    q = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
    scalars = (f, q, config.device.avg_power_w)
    x1, x2, x3, b_total = baseline_counts(kind, *scalars, costs)
    return PolicySolution(x1=x1, x2=x2, x3=x3, b_total_hz=b_total,
                          b_avg_hz=b_total / config.task_count,
                          regime=solve_with_costs(*scalars, costs).regime, binding=())
