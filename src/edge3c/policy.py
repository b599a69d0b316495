"""Bandwidth-optimal split of the task set across the three service routes.

With F identical tasks, uniform request probabilities and per-task route
bandwidths B1 = 0 <= B2, B3, the per-task problem collapses to choosing counts
(x1, x2, x3): x1 tasks served from cache, x2 via download-then-local-compute,
x3 offloaded, minimizing x2*B2 + x3*B3 subject to

    x1 * I_remote <= cache_bits          (cache)
    k1*(x1 + x2) + k2*x3 <= avg_power_w  (power)
    x1 + x2 + x3 = F, all >= 0 integers.

The argmin has a closed form. Write Q = min(F, floor(C / I_remote)) for the
cache capacity in tasks. The power draw is min(k1, k2)*F + |k1 - k2|*h, with
h the tasks on the hungrier route (local when k1 > k2, else offloaded), so
the budget caps h; ``bounds.power_cap`` gives that cap, the largest h the
budget rule accepts. Cached tasks cost no bandwidth, so x1 is always pushed
to its cap; the rest splits by which route is cheaper per Hz and which
direction the power budget cuts:

* k1 > k2 (local computing is the power-hungry option): the budget caps the
  number of locally computed tasks at U = cap.
  - B3 > B2: x1 = min(Q, U), x2 = max(0, min(F, U) - x1), x3 = rest.
  - B3 <= B2: x1 = min(Q, U), x2 = 0, x3 = rest (offload is cheaper in both
    bandwidth and power, so route 2 is never used).
* k1 <= k2 (offloading is the power-hungry option, or neither): the budget
  puts a floor L = F - cap on the number of locally computed tasks, which is
  0 when k1 == k2 and the budget holds any mix.
  - B3 > B2: offloading never helps: x1 = Q, x2 = F - Q, x3 = 0.
  - B3 <= B2: x1 = Q, x2 = max(0, L - x1), x3 = rest; x2 > 0 exactly when the
    power budget forces tasks off the otherwise-cheaper offload route.

When a route cannot meet the deadline at any bandwidth the same objective is
minimized over the remaining routes; coverage is checked first (latency), then
the minimum achievable power (power), so infeasibility is reported with the
constraint that actually bites.

A solve is facts, decision and read-out: ``_facts`` gathers every discrete
fact that the optimum and the baselines read, ``_decide`` turns them into the
counts, the regime and ``binding`` (or the infeasible constraint), and one
read-out, x2*B2 + x3*B3, gives the bandwidth of the optimum and of each
baseline. B2 and B3 enter only there and in B3 > B2, so a sweep decides once
per distinct facts.

Configs classify into nine regimes: the sign of k1 - k2, the ordering of B2
and B3 (ties map to the B3 <= B2 branch), and where the power bound sits
relative to the cache capacity and F.

A solution's ``binding`` lists the constraints that hold it, in this order:

* "cache": Q, taken as 0 when route 1 misses the deadline, is the tightest
  bound on x1;
* "power": when k1 > k2, U is the tightest bound on x1, or U < F stops
  downloads while B3 > B2 and routes 2 and 3 both meet the deadline; when
  k1 <= k2, L forces downloads onto the pricier route 2 (x2 > 0 while
  B3 <= B2: the forced-local regime);
* "tasks": F is the tightest bound on x1;
* "latency": some route misses the deadline.
"""

from __future__ import annotations

from typing import NamedTuple

from .bandwidth import RouteCosts, route_costs
from .bounds import cache_task_capacity, power_cap
from .errors import InfeasibleError, InvalidFieldError
from .model import SystemConfig, validate_config


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


class _Decision(NamedTuple):
    """A solve's answer without its bandwidth."""

    x1: int
    x2: int
    x3: int
    regime: Regime
    binding: tuple[str, ...]


def _facts(f: int, q: int, avg_power_w: float, costs: RouteCosts) -> tuple:
    """Every discrete fact that the optimum and the three baselines read:
    qf (Q, or 0 when route 1 misses the deadline), the three route flags,
    the power cap (``bounds.power_cap``), k1 > k2, and B3 > B2 (a route that
    misses the deadline costs infinity). Whether a mix fits the budget is
    whether its h is at most the cap, so no fit needs a fact of its own."""
    r1, r2, r3 = costs.route1_feasible, costs.route12_feasible, costs.route3_feasible
    return (q if r1 else 0, r1, r2, r3, power_cap(costs.k1, costs.k2, f, avg_power_w),
            costs.k1 > costs.k2, r2 and (not r3 or costs.b3 > costs.b2))


def _decide(f: int, facts: tuple) -> _Decision | InfeasibleError:
    """The optimum's decision at F from its ``_facts``, or the InfeasibleError,
    returned, not raised: latency when the feasible routes cannot cover the
    task set, else power when the least-power mix does not fit."""
    qf, r1, r2, r3, cap, k1_gt, b3_gt_b2 = facts
    if qf + (f if r2 else 0) + (f if r3 else 0) < f:
        return InfeasibleError("latency", "feasible routes cannot cover the task set")
    # h of the least-power mix: offload all when k1 > k2, else compute all
    # locally, as far as the routes that meet the deadline allow
    if ((0 if r3 else f) if k1_gt else (f - qf if r3 and not r2 else 0)) > cap:
        return InfeasibleError("power", "minimum achievable power exceeds the budget")

    # the power budget's bound on x1 + x2, in [0, F]: the cap U when k1 > k2,
    # else the floor L
    bound = cap if k1_gt else f - cap
    tightest = min(qf, bound) if k1_gt else qf  # the tightest bound on x1; Q <= F always holds
    x1 = tightest if r3 else qf  # without route 3: route 2, or route 1 alone with Q = F
    if not r3:
        x2 = f - x1
    elif not r2:
        x2 = 0
    elif k1_gt:
        x2 = bound - x1 if b3_gt_b2 else 0
    else:
        x2 = f - x1 if b3_gt_b2 else max(0, bound - x1)
    x3 = f - x1 - x2

    if not k1_gt:
        detail = "local-always" if b3_gt_b2 else "forced-local" if x2 > 0 else "mec-unconstrained"
    elif bound >= f:
        detail = "power-ample"
    elif bound <= qf:
        detail = "power-limited"
    else:
        detail = "cache-then-power" if b3_gt_b2 else "cache-limited"

    binding = tuple(name for name, holds in (
        ("cache", qf == tightest),
        ("power", (bound == tightest or (b3_gt_b2 and r2 and r3 and bound < f)) if k1_gt
         else detail == "forced-local"),
        ("tasks", f == tightest),
        ("latency", not (r1 and r2 and r3)),
    ) if holds)
    return _Decision(x1, x2, x3, _REGIME_BY_KEY[(k1_gt, b3_gt_b2, detail)], binding)


def _bandwidth(x2: int, x3: int, costs: RouteCosts) -> float:
    """Total bandwidth of x2 downloads and x3 offloads: the one read-out of
    B2 and B3, for the optimum and the baselines alike."""
    return (costs.b2 * x2 if x2 else 0.0) + (costs.b3 * x3 if x3 else 0.0)


def _solution(f: int, decision: _Decision, costs: RouteCosts) -> PolicySolution:
    x1, x2, x3, regime, binding = decision
    b_total = _bandwidth(x2, x3, costs)
    return PolicySolution(x1, x2, x3, b_total, b_total / f, regime, binding)


def solve_with_costs(f: int, q: int, avg_power_w: float, costs: RouteCosts) -> PolicySolution:
    """solve_optimal for a config already validated, from the three scalars
    it reads besides the route costs: the task count F, the cache capacity
    Q in tasks (``bounds.cache_task_capacity`` of the cache size C, the
    remote input size I_remote and F) and the power budget Pbar."""
    decision = _decide(f, _facts(f, q, avg_power_w, costs))
    if isinstance(decision, InfeasibleError):
        raise decision
    return _solution(f, decision, costs)


def _scalars(config: SystemConfig) -> tuple[int, int, float]:
    """(F, Q, Pbar) of a config: the three scalars solve_with_costs and
    ``_facts`` read besides the route costs."""
    f = config.task_count
    q = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
    return f, q, config.device.avg_power_w


def solve_optimal(config: SystemConfig) -> PolicySolution:
    """Closed-form bandwidth-minimal route counts for the task set."""
    validate_config(config)
    return solve_with_costs(*_scalars(config), route_costs(config))


def classify_regime(config: SystemConfig) -> Regime:
    """Which of the nine operating regions the config sits in (unique)."""
    return solve_optimal(config).regime


def baseline_counts(kind: str, f: int, facts: tuple) -> tuple[int, int, int] | InfeasibleError:
    """(x1, x2, x3) of a baseline policy at F, from the optimum's ``_facts``,
    or the InfeasibleError, returned, not raised, when it cannot serve the
    task set."""
    qf, _, r2, r3, cap, k1_gt, _ = facts
    if kind == "mec_only":
        if not r3:
            return InfeasibleError("latency", "offload route cannot meet the deadline")
        if (0 if k1_gt else f) > cap:
            return InfeasibleError("power", "offloading every task exceeds the power budget")
        return 0, 0, f
    if kind in ("local_only", "local_no_cache"):
        # x1 < F unless route 1 serves, so x2 = 0 needs no check of route 1
        x1 = qf if kind == "local_only" else 0
        x2 = f - x1
        if x2 and not r2:
            return InfeasibleError("latency", "download-and-compute route cannot meet the deadline")
        if (f if k1_gt else 0) > cap:
            return InfeasibleError("power", "computing every task locally exceeds the power budget")
        return x1, x2, 0
    raise InvalidFieldError("kind", f"unknown baseline {kind!r}")


def baseline_policy(kind: str, config: SystemConfig) -> PolicySolution:
    """Fixed reference policies: "mec_only" offloads everything,
    "local_only" computes everything locally (cache first), "local_no_cache"
    computes locally without using the cache.

    The regime reported is the config's own, so a baseline of a config whose
    optimum is infeasible raises too."""
    validate_config(config)
    costs = route_costs(config)
    f, q, avg_power_w = _scalars(config)
    facts = _facts(f, q, avg_power_w, costs)
    counts, decision = baseline_counts(kind, f, facts), _decide(f, facts)
    for outcome in (counts, decision):  # the baseline's error first
        if isinstance(outcome, InfeasibleError):
            raise outcome
    return _solution(f, _Decision(*counts, decision.regime, ()), costs)
