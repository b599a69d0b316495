"""Tradeoff analysis: turning points of the bandwidth-vs-cpu curve and
parameter sweeps.

As the device CPU speeds up (everything else fixed), the minimum total
bandwidth traverses up to four phases separated by three turning points:

* ``f1``: the download route's bandwidth falls below the offload route's
  (B2 crosses B3) and non-cached tasks switch from offloading to
  downloading; before this point the curve is flat, because B3 does not
  depend on the device CPU. With the transfer costs a1, a2 and the air time
  a3 of route 3 (see bandwidth), B2 = B3 at
  ``f1 = w*I_total / (tau - a3*I_remote / (SE_down*(sqrt(a1) + sqrt(a2))^2))``.
* ``f2``: local computing power k1 grows with cpu^2 until the budget stops
  covering all F tasks locally; solves k1(f2) * F = Pbar, giving
  ``f2 = sqrt(tau * Pbar / (mu * w * (I_local + I_remote)))``.
* ``f3``: the power cap on locally computed tasks drops to the cache
  capacity; solves (Pbar - F*k2)/(k1 - k2) = C/I_remote in its continuous
  form (integer floors dropped), giving
  ``f3 = sqrt(tau*F*(Pbar - F*k2)*I_remote / (mu*w*I_total*C)
              + tau*F*k2 / (mu*w*I_total))``.

Each point is absent (with a recorded reason) when its defining crossing
cannot occur, or lies at a cpu speed beyond float range or, positive but 0
in floats, below it. Sweeps re-solve the policy on a value grid for one
parameter, mark infeasible points rather than dropping them, and serialize
to a fixed CSV schema; regime-label changes between consecutive grid points
locate the turning points empirically.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bandwidth import _compute_time, _link_costs, _point_costs, route_costs
from .bounds import _HUGE, _TINY, _exact, _ratio, cache_task_capacity
from .errors import InfeasibleError, InvalidFieldError, TooLargeError
from .model import (
    SystemConfig,
    _draws_violation,
    downlink_spectral_efficiency,
    field_violation,
    validate_config,
)
from .policy import PolicySolution, _bandwidth, _decide, _facts, _solution, baseline_counts

SWEEP_PARAMETERS = {
    "cache_bits": "device.cache_bits",
    "device_cpu_hz": "device.cpu_hz",
    "avg_power_w": "device.avg_power_w",
    "deadline_s": "task.deadline_s",
}

BASELINE_KINDS = ("mec_only", "local_only", "local_no_cache")

#: literal token emitted for infeasible cells in CSV output
INF_TOKEN = "INF"

#: largest ``steps`` a sweep accepts: a hundred times the paper's 1,000-step
#: CPU sweep; the rows and CSV text of a sweep with all three baselines take
#: about 1.2 KiB per step, so about 120 MiB at the cap
MAX_SWEEP_STEPS = 100_000


class TurningPoints(NamedTuple):
    f1_hz: float | None
    f2_hz: float | None
    f3_hz: float | None
    absence_reasons: dict

    def to_dict(self) -> dict:
        return {"f1_hz": self.f1_hz, "f2_hz": self.f2_hz, "f3_hz": self.f3_hz,
                "absent": dict(self.absence_reasons)}


def turning_points(config: SystemConfig) -> TurningPoints:
    """The up-to-three cpu-speed turning points of the config's bandwidth curve, each the float
    expression where every partial result is normal, else the exact value rounded once."""
    validate_config(config)
    t, d = config.task, config.device
    tau, f, pbar, mu, w = t.deadline_s, config.task_count, d.avg_power_w, d.switched_capacitance, t.cycles_per_bit
    i_total = t.input_local_bits + t.input_remote_bits
    # an I_total past float range is half of each input, which is exact, times 2
    bits = (i_total,) if i_total <= _HUGE else (t.input_local_bits / 2 + t.input_remote_bits / 2, 2.0)
    costs = route_costs(config)
    absent: dict[str, str] = {}
    no_dynamic_power = mu <= 0 or w <= 0 or i_total <= 0

    f2 = None
    if no_dynamic_power:
        absent["f2"] = "local computing draws no dynamic power: the budget never saturates"
    elif _TINY <= (radicand := _ratio(tau, pbar, mu, w, i_total)) <= _HUGE:
        f2 = math.sqrt(radicand)
    else:
        f2 = _exact((tau, pbar), (mu, w, *bits), root=True)

    f1 = None
    if t.input_remote_bits <= 0:
        absent["f1"] = "no remote input: the download route needs no bandwidth at any cpu speed"
    elif not costs.route3_feasible:
        absent["f1"] = "offload route infeasible: no crossing to reach"
    elif costs.b3 == 0:
        absent["f1"] = "offload route needs no bandwidth: the download route never crosses it"
    else:
        root = math.sqrt(costs.a1) + math.sqrt(costs.a2)
        try:
            peak = (root ** 2,)
        except OverflowError:  # libm's pow raises past float range: square in the quotient
            peak = (root, root)
        slack = tau - _ratio(costs.a3, t.input_remote_bits,
                             downlink_spectral_efficiency(config), *peak)
        if slack <= 0:
            absent["f1"] = "download bandwidth exceeds the offload bandwidth at every cpu speed"
        else:
            f1 = _compute_time(config, slack)  # the work over the slack

    f3 = exact = None
    if t.input_remote_bits <= 0:
        absent["f3"] = "no remote input: the cache bound never binds"
    elif d.cache_bits <= 0:
        absent["f3"] = "empty cache: the cache bound is fixed at zero"
    elif no_dynamic_power:
        absent["f3"] = "local computing draws no dynamic power: the cache bound never meets it"
    else:
        # tau*F/(mu*w*I_total) * ((Pbar - F*k2)*I_remote/C + k2), as two terms
        k2, head, mu_w = costs.k2, tau * f, mu * w
        den = mu_w * i_total
        den_c, signed = den * d.cache_bits, head * (pbar - f * k2)
        num = signed * t.input_remote_bits  # the first term's numerator, of the sign of Pbar - F*k2
        partials = (head, mu_w, den, den_c, abs(signed), abs(num)) + ((f * k2, head * k2) if k2 else ())
        normal = all(_TINY <= x <= _HUGE for x in partials) \
            and _TINY <= (radicand := num / den_c + head * k2 / den) <= _HUGE
        if normal and num > 0:
            f3 = math.sqrt(radicand)
        else:  # the exact radicand over its positive factor tau*F/(mu*w*I_total)
            from fractions import Fraction
            exact = (Fraction(pbar) - f * Fraction(k2)) * Fraction(t.input_remote_bits) \
                / Fraction(d.cache_bits) + Fraction(k2)
            if exact < 0:
                absent["f3"] = "power budget below the offload-only draw: no speed balances cache and power"
            else:  # a normal float sum of an exactly positive radicand is kept
                f3 = math.sqrt(radicand) if normal and exact > 0 \
                    else _exact((tau, f, exact), (mu, w, *bits), root=True)

    # 0 Hz is exact for f1 of tasks that take no cycles and f3 of an exactly-0 radicand
    exact_zero = {"f1": w == 0, "f3": exact == 0}
    for name, hz in (points := {"f1": f1, "f2": f2, "f3": f3}).items():
        if hz == math.inf:
            absent[name] = "the crossing lies beyond float range: no finite cpu speed reaches it"
        elif hz == 0 and not exact_zero.get(name):
            absent[name] = "below float range: the crossing's cpu speed is positive but rounds to 0 Hz"
    return TurningPoints(*(None if name in absent else hz for name, hz in points.items()), absent)


class SweepSpec(NamedTuple):
    parameter: str
    start: float
    stop: float
    steps: int
    baselines: tuple[str, ...] = ()
    log_scale: bool = False

    def validate(self) -> "SweepSpec":
        if self.parameter not in SWEEP_PARAMETERS:
            raise InvalidFieldError("parameter",
                                    f"must be one of {sorted(SWEEP_PARAMETERS)}, got {self.parameter!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise InvalidFieldError("start/stop", "must be finite")
        if not self.start < self.stop:
            raise InvalidFieldError("start/stop", "start must be < stop")
        if self.steps < 2:
            raise InvalidFieldError("steps", "must be >= 2")
        if self.steps > MAX_SWEEP_STEPS:
            raise TooLargeError("steps", self.steps, MAX_SWEEP_STEPS)
        if self.log_scale and self.start <= 0:
            raise InvalidFieldError("start", "must be > 0 for a log-scale grid")
        for b in self.baselines:
            if b not in BASELINE_KINDS:
                raise InvalidFieldError("baselines", f"unknown baseline {b!r}")
        return self


class SweepRow(NamedTuple):
    parameter: str
    value: float
    solution: PolicySolution | None
    error: str | None
    baselines: dict


def grid_values(spec: SweepSpec) -> list[float]:
    n, a, b, log = spec.steps, spec.start, spec.stop, spec.log_scale
    try:  # a float ** past float range raises
        step = (b / a) ** (1.0 / (n - 1)) if log else (b - a) / (n - 1)  # a factor on a log scale
        values = [a * step ** i if log else a + step * i for i in range(n)]
        if values[-1] <= _HUGE:
            return values
    except OverflowError:
        pass
    # past float range: the weighted geometric or arithmetic mean of the ends, kept between them
    return [min(b, max(a, a ** (1 - s) * b ** s if log else a * (1 - s) + b * s))
            for s in (i / (n - 1) for i in range(n))]


def sweep(config: SystemConfig, spec: SweepSpec) -> list[SweepRow]:
    """Re-solve the policy over a value grid for one parameter.

    Infeasible grid points become error rows, not gaps, and so do values the
    validator rejects: the swept field's own rule, or the derived power draws
    (a huge CPU speed overflows k1, a tiny deadline k2). A baseline cell is
    None when the baseline or the optimum is infeasible. The base config is
    validated once and no point builds a config. A ``cache_bits`` or
    ``avg_power_w`` sweep costs its routes once; a ``device_cpu_hz`` or
    ``deadline_s`` point reruns only the per-point part of route_costs.

    Each point computes its ``policy._facts``. The decision and the
    baselines' counts are made once per distinct facts, and each point reads
    its bandwidths from them at its own B2 and B3. A row shares the previous
    row's solution object while the facts, and the B2 and B3 that the
    optimum's counts read, repeat; every row has its own baselines dict.
    """
    validate_config(config)
    spec.validate()
    param, kinds = spec.parameter, spec.baselines
    dotted = SWEEP_PARAMETERS[param]
    f, i_remote, d = config.task_count, config.task.input_remote_bits, config.device
    point = {"cache_bits": d.cache_bits, "device_cpu_hz": d.cpu_hz,
             "avg_power_w": d.avg_power_w, "deadline_s": config.task.deadline_s}
    moves_costs = param in ("device_cpu_hz", "deadline_s")
    if moves_costs:
        link = _link_costs(config)
    else:
        costs = route_costs(config)
    q = cache_task_capacity(d.cache_bits, i_remote, f)
    # facts -> (decision, baseline counts or None per kind) of the points so far
    decided: dict = {}
    last_key = solution = None
    rows = []
    for value in grid_values(spec):
        valid = field_violation(dotted, value) is None
        if valid:
            point[param] = value
            if moves_costs:
                costs = _point_costs(config, link, point["deadline_s"], point["device_cpu_hz"])
                valid = _draws_violation(config, costs.k1, costs.k2) is None
        if not valid:
            rows.append(SweepRow(param, value, None, "invalid_config", dict.fromkeys(kinds)))
            continue
        if param == "cache_bits":
            q = cache_task_capacity(value, i_remote, f)
        facts = _facts(f, q, point["avg_power_w"], costs)
        hit = decided.get(facts)
        if hit is None:
            decision = _decide(f, facts)
            counts = None if isinstance(decision, InfeasibleError) else [
                None if isinstance(c, InfeasibleError) else c
                for c in (baseline_counts(kind, f, facts) for kind in kinds)]
            hit = decided[facts] = decision, counts
        decision, counts = hit
        if counts is None:
            rows.append(SweepRow(param, value, None, decision.constraint, dict.fromkeys(kinds)))
            continue
        key = (facts, costs.b2 if decision.x2 else None, costs.b3 if decision.x3 else None)
        if key != last_key:
            last_key, solution = key, _solution(f, decision, costs)
        rows.append(SweepRow(param, value, solution, None, {
            kind: None if c is None else _bandwidth(c[1], c[2], costs)
            for kind, c in zip(kinds, counts)}))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Fixed-schema CSV: param,value,x1,x2,x3,b_total_hz,b_avg_hz,regime, then
    one <baseline>_hz column per key of the first row's baselines, in order;
    INF marks infeasible cells.

    Floats use repr() (shortest round-trip), keeping output byte-stable. A
    row whose solution is the previous row's object and whose baselines
    equal the previous row's reuses that row's result cells (equal floats
    format alike, bar the sign of a zero, which no bandwidth total has).
    """
    baselines = tuple(rows[0].baselines) if rows else ()
    header = ["param", "value", "x1", "x2", "x3", "b_total_hz", "b_avg_hz", "regime"]
    header += [f"{kind}_hz" for kind in baselines]
    lines = [",".join(header)]
    unsolved = ",".join([INF_TOKEN] * 6)
    prev_solution, prev_baselines, cells = object(), None, ""
    for parameter, value, s, _, row_baselines in rows:
        if s is not prev_solution or row_baselines != prev_baselines:
            prev_solution, prev_baselines = s, row_baselines
            cells = unsolved if s is None else \
                f"{s.x1},{s.x2},{s.x3},{s.b_total_hz!r},{s.b_avg_hz!r},{s.regime.label}"
            for kind in baselines:
                v = row_baselines.get(kind)
                cells += f",{INF_TOKEN if v is None else repr(float(v))}"
        lines.append(f"{parameter},{float(value)!r},{cells}")
    return "\n".join(lines) + "\n"


def detect_breakpoints(rows: list[SweepRow]) -> list[float]:
    """Grid values where the regime label changes from the previous row.

    Needs at least 3 rows with strictly ascending values from a single-
    parameter sweep; infeasible rows participate as their own label so a
    feasibility edge also counts as a breakpoint.
    """
    if len(rows) < 3:
        raise InvalidFieldError("rows", "need at least 3 sweep rows")
    params = {r.parameter for r in rows}
    if len(params) != 1:
        raise InvalidFieldError("rows", "rows mix different sweep parameters")
    values = [r.value for r in rows]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidFieldError("rows", "values must be strictly ascending")
    labels = [r.solution.regime.label if r.solution is not None else INF_TOKEN for r in rows]
    return [rows[i].value for i in range(1, len(rows)) if labels[i] != labels[i - 1]]
