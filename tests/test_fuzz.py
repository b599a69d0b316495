"""Differential fuzz: the closed form against the lattice oracle, and the
lattice oracle against the per-task oracle, on an unstratified sampler.

The stratified sampler behind verify draws only feasible configs. This one
also draws what it never reaches: zero payloads, an empty cache, zero
switched capacitance, links from -30 to 40 dB, compute times on both sides
of the deadline on each route, and power budgets on both sides of the floor.

A second, wide-range sampler draws every magnitude across nearly the whole
float range, where products underflow and overflow. On every config the
validator accepts it checks that the turning points stay finite and
positive, or absent, and, for F up to 200, that the closed form matches the
lattice oracle and no baseline beats the optimum; above F = 200 it compares
the closed form with the lattice oracle on every tenth valid draw. The
turning-point check also draws f1_edge_config, whose f1 lies near the top
of the float range, and compares f1 with its value in exact arithmetic; on
the wide and the full-range draws, f2 and f3 are compared with theirs.

A third sampler, full_config, draws magnitudes over the whole float range,
subnormals and exact float edges included. On it the closed form must match
the lattice oracle, and route_costs must pass the certificate below.

Three more checks reuse the samplers:
- the power budget moved to within a few ulps of a draw, or of its
  tolerance-window edge, where the batched and the per-count power rules must
  accept the same counts, and the cache moved likewise around a whole number
  of remote inputs; at both, the closed form must match the lattice oracle;
- each route's latency at a wide draw's own bandwidths, which must be
  finite, or a typed error where a bandwidth underflowed to 0;
- a certificate of route_costs read off route_latency alone: each route's
  flag holds exactly when the route meets the deadline, at the reported
  bandwidths or, for a route flagged infeasible, at the bandwidth cap;
- the derived quantities against their formulas in exact arithmetic: the
  power draws k1 and k2, where they are finite and where the validator
  rejects them as overflowing, and each PSD-path link efficiency.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import pairwise

import pytest

from edge3c import (
    BASELINE_KINDS,
    DEFAULT_BANDWIDTH_CAP,
    ChannelParams,
    DegenerateChannelError,
    DeviceParams,
    Edge3cError,
    InfeasibleError,
    InvalidConfigError,
    InvalidFieldError,
    ServerParams,
    SystemConfig,
    TaskSpec,
    baseline_policy,
    downlink_spectral_efficiency,
    enumerate_optimal,
    enumerate_per_task,
    power_coefficients,
    relative_error,
    replace_field,
    route_costs,
    route_latency,
    sample_config,
    solve_optimal,
    spectral_efficiency,
    turning_points,
    uplink_spectral_efficiency,
    validate_config,
)
from edge3c.bounds import (
    REL_EPS,
    cache_task_capacity,
    counts_within_power_budget,
    power_within_budget,
)
from edge3c.model import config_violations

SEED = 20201
COUNT = 4000
PER_TASK_MAX_F = 6
WIDE_SEED = 20260
WIDE_COUNT = 16_000
WIDE_LATTICE_MAX_F = 200
#: draws of f1_edge_config after the wide draws of the turning-point test
F1_EDGE_COUNT = 400
#: above WIDE_LATTICE_MAX_F, the lattice checks every this-many-th valid draw
WIDE_LATTICE_STRIDE = 10
FULL_SEED = 1
FULL_COUNT = 20_000


def fuzz_config(rng: random.Random) -> SystemConfig:
    """A valid config with F in [1, 60], drawn without targeting any regime."""
    f = rng.randint(1, 60)

    def payload() -> float:
        return 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(3.0, 7.0)

    i_local, i_remote, out_bits = payload(), payload(), payload()
    w = 0.0 if rng.random() < 0.05 else rng.uniform(1.0, 20.0)
    tau = 10.0 ** rng.uniform(-2.0, 0.0)
    work = (i_local + i_remote) * w or 1e9

    def cpu_hz() -> float:
        # compute time between 3% and 200% of the deadline
        return work / (tau * 10.0 ** rng.uniform(-1.5, 0.3))

    if rng.random() < 0.2:
        cache = 0.0
    elif i_remote > 0:
        cache = rng.uniform(0.0, f + 2.0) * i_remote
    else:
        cache = 10.0 ** rng.uniform(3.0, 9.0)
    config = SystemConfig(
        task_count=f,
        task=TaskSpec(input_local_bits=i_local, input_remote_bits=i_remote,
                      output_bits=out_bits, cycles_per_bit=w, deadline_s=tau),
        device=DeviceParams(cpu_hz=cpu_hz(),
                            switched_capacitance=0.0 if rng.random() < 0.1
                            else 10.0 ** rng.uniform(-29.0, -26.0),
                            cache_bits=cache, avg_power_w=1.0,
                            uplink_psd=10.0 ** rng.uniform(-8.0, -5.0)),
        server=ServerParams(cpu_hz=cpu_hz(), downlink_psd=1e-6),
        channel=ChannelParams(gain=1.0, noise_psd=1e-9,
                              snr_up_db=rng.uniform(-30.0, 40.0),
                              snr_down_db=rng.uniform(-30.0, 40.0)),
    )
    # budget from a tenth to twice the dearer all-one-route draw
    k1, k2 = power_coefficients(config)
    scale = f * max(k1, k2)
    budget = scale * 10.0 ** rng.uniform(-1.0, 0.3) if scale > 0 else 10.0 ** rng.uniform(-3.0, 1.0)
    return validate_config(replace_field(config, "device.avg_power_w", budget))


def outcome(solver, config) -> tuple[str, float | None]:
    """("solved", total bandwidth) or (infeasible constraint, None)."""
    try:
        return "solved", solver(config).b_total_hz
    except InfeasibleError as exc:
        return exc.constraint, None


def assert_agree(a, b, config, names):
    assert a[0] == b[0], (names, a, b, config)
    if a[0] == "solved":
        assert relative_error(a[1], b[1]) <= 1e-9, (names, a, b, config)


def test_closed_form_and_oracles_agree_on_unstratified_configs():
    rng = random.Random(SEED)
    seen = Counter()
    for _ in range(COUNT):
        config = fuzz_config(rng)
        costs = route_costs(config)
        seen["route 1 infeasible"] += not costs.route1_feasible
        seen["route 1+2 infeasible"] += not costs.route12_feasible
        seen["route 3 infeasible"] += not costs.route3_feasible
        lattice = outcome(enumerate_optimal, config)
        seen[lattice[0]] += 1
        assert_agree(outcome(solve_optimal, config), lattice, config, "closed form vs lattice")
        if config.task_count <= PER_TASK_MAX_F:
            seen["per-task"] += 1
            assert_agree(lattice, outcome(enumerate_per_task, config), config, "lattice vs per-task")
    # every restriction of the lattice box, and both infeasibility classes, occurred
    for branch in ("route 1 infeasible", "route 1+2 infeasible", "route 3 infeasible",
                   "latency", "power", "solved", "per-task"):
        assert seen[branch] > 0, (branch, seen)


def wide_config(rng: random.Random) -> SystemConfig:
    """A config, valid or not: every magnitude log-uniform over 1e-300 to
    1e300 (a nonnegative one 0 one time in ten), and each SNR override
    absent or in [-3200, 3200] dB."""
    def mag() -> float:
        return 10.0 ** rng.uniform(-300.0, 300.0)

    def nonneg() -> float:
        return 0.0 if rng.random() < 0.1 else mag()

    def snr_db() -> float | None:
        return None if rng.random() < 0.3 else rng.uniform(-3200.0, 3200.0)

    return SystemConfig(
        task_count=rng.randint(1, 1000),
        task=TaskSpec(input_local_bits=nonneg(), input_remote_bits=nonneg(),
                      output_bits=nonneg(), cycles_per_bit=nonneg(), deadline_s=mag()),
        device=DeviceParams(cpu_hz=mag(), switched_capacitance=nonneg(), cache_bits=nonneg(),
                            avg_power_w=mag(), uplink_psd=mag()),
        server=ServerParams(cpu_hz=mag(), downlink_psd=mag()),
        channel=ChannelParams(gain=mag(), noise_psd=mag(),
                              snr_up_db=snr_db(), snr_down_db=snr_db()),
    )


#: the exact values a full_config magnitude takes one time in ten: the least
#: subnormal, the least normal float, 1 and the greatest float
FLOAT_EDGES = (5e-324, 2.0 ** -1022, 1.0, 1.7976931348623157e308)


def full_config(rng: random.Random) -> SystemConfig:
    """A config, valid or not, over the whole float range: every magnitude
    log-uniform over 5e-324 to 1.8e308, or one time in ten a FLOAT_EDGES
    value (a nonnegative one 0 one time in ten), and each SNR override absent
    or in [-3200, 3200] dB. One draw in five moves the device CPU speed so
    that the local compute time lies within 1e-12 of the deadline."""
    def mag() -> float:
        if rng.random() < 0.1:
            return rng.choice(FLOAT_EDGES)
        return math.ldexp(2.0 ** rng.random(), rng.randint(-1074, 1023))

    def nonneg() -> float:
        return 0.0 if rng.random() < 0.1 else mag()

    def snr_db() -> float | None:
        return None if rng.random() < 0.3 else rng.uniform(-3200.0, 3200.0)

    task = TaskSpec(input_local_bits=nonneg(), input_remote_bits=nonneg(),
                    output_bits=nonneg(), cycles_per_bit=nonneg(), deadline_s=mag())
    cpu_hz = mag()
    if rng.random() < 0.2:
        near = (task.input_local_bits + task.input_remote_bits) * task.cycles_per_bit \
            / (task.deadline_s * (1.0 + rng.uniform(-1e-12, 1e-12)))
        cpu_hz = near if 0.0 < near < math.inf else cpu_hz
    return SystemConfig(
        task_count=rng.randint(1, 200),
        task=task,
        device=DeviceParams(cpu_hz=cpu_hz, switched_capacitance=nonneg(), cache_bits=nonneg(),
                            avg_power_w=mag(), uplink_psd=mag()),
        server=ServerParams(cpu_hz=mag(), downlink_psd=mag()),
        channel=ChannelParams(gain=mag(), noise_psd=mag(),
                              snr_up_db=snr_db(), snr_down_db=snr_db()),
    )


def f1_edge_config(rng: random.Random) -> SystemConfig:
    """A config, valid or not, whose turning point f1 lies near the top of
    the float range. f1 = work / slack, and route 3 meets the deadline only
    where work < tau * f_S, so with f_S at most 1e300 an f1 past float range
    needs a slack below 6e-9 * tau, which wide_config never draws. Here the
    slack is a share eps of tau, log-uniform over 1e-11 to 1e-6, and f_S is
    1e290 to 1e300. With no local input the slack is tau - a3 * I_remote / O,
    so f1_exact gives f1 in exact arithmetic."""
    # tau below 1e5 s keeps the work, at most tau * f_S, in float range
    tau, f_s = 10.0 ** rng.uniform(-100.0, 5.0), 10.0 ** rng.uniform(290.0, 300.0)
    ratio, eps = rng.uniform(1.5, 4.0), 10.0 ** rng.uniform(-11.0, -6.0)
    out_bits = 10.0 ** rng.uniform(-3.0, 8.0) * tau / ratio  # B3 at most 7e10 Hz
    i_remote = ratio * out_bits
    # a3 = tau * (1 - eps) / ratio, so a3 * I_remote / O = tau * (1 - eps)
    w = f_s * (tau / i_remote) * ((ratio - 1.0 + eps) / ratio)
    return SystemConfig(
        task_count=rng.randint(1, 1000),
        task=TaskSpec(input_local_bits=0.0, input_remote_bits=i_remote, output_bits=out_bits,
                      cycles_per_bit=w, deadline_s=tau),
        device=DeviceParams(cpu_hz=10.0 ** rng.uniform(-300.0, 300.0), switched_capacitance=0.0,
                            cache_bits=0.0, avg_power_w=1.0, uplink_psd=1.0),
        server=ServerParams(cpu_hz=f_s, downlink_psd=1.0),
        channel=ChannelParams(gain=1.0, noise_psd=1.0, snr_up_db=None,
                              snr_down_db=rng.uniform(-30.0, 40.0)),
    )


def f1_exact(config: SystemConfig):
    """f1 of a config with no local input and a positive slack, as a
    Fraction: SE_down * a2 is O exactly, so the slack is tau - a3 * I_remote / O."""
    t = config.task
    work = Fraction(t.input_remote_bits) * Fraction(t.cycles_per_bit)
    tau = Fraction(t.deadline_s)
    a3 = tau - work / Fraction(config.server.cpu_hz)
    slack = tau - a3 * Fraction(t.input_remote_bits) / Fraction(t.output_bits)
    return work / slack


def squared_speed_per_watt(config: SystemConfig) -> Fraction:
    """tau / (mu * w * I_total) as a Fraction: all F tasks computed locally
    draw P watts at the cpu speed whose square is this times P."""
    t, d = config.task, config.device
    return Fraction(t.deadline_s) / (Fraction(d.switched_capacitance) * Fraction(t.cycles_per_bit)
                                     * (Fraction(t.input_local_bits) + Fraction(t.input_remote_bits)))


def f2_exact(config: SystemConfig) -> Fraction:
    """f2 squared, tau * Pbar / (mu * w * I_total), as a Fraction."""
    return squared_speed_per_watt(config) * Fraction(config.device.avg_power_w)


def f3_exact(config: SystemConfig) -> Fraction:
    """f3 squared, tau * F * ((Pbar - F*k2) * I_remote / C + k2) / (mu * w *
    I_total), as a Fraction, with k2 as route_costs gives it."""
    f, d, k2 = config.task_count, config.device, Fraction(route_costs(config).k2)
    return squared_speed_per_watt(config) * f * ((Fraction(d.avg_power_w) - f * k2)
                                                 * Fraction(config.task.input_remote_bits)
                                                 / Fraction(d.cache_bits) + k2)


def true_of_the_square(hz: float | None, reason: str, squared: Fraction) -> bool:
    """Whether a turning point is true of its exact square: a printed speed
    within 2 ulps of its root, "beyond float range" of a root that rounds
    to inf (at least the greatest float plus half its ulp), "below float
    range" of a positive root that rounds to 0 (at most half the least
    positive float), and the offload-only reason of a negative square."""
    if "beyond float range" in reason:
        return squared >= (FLOAT_MAX + 2 ** 970) ** 2
    if "below float range" in reason:
        return 0 < squared <= Fraction(1, 2 ** 2150)
    if "offload-only draw" in reason:
        return squared < 0
    ulps = 2 * Fraction(math.ulp(hz))
    return max(Fraction(hz) - ulps, 0) ** 2 <= squared <= (Fraction(hz) + ulps) ** 2


def test_turning_points_return_on_wide_range_configs():
    rng, edge_rng = random.Random(WIDE_SEED), random.Random(WIDE_SEED + 4)
    seen = Counter()
    for i in range(WIDE_COUNT + F1_EDGE_COUNT):
        config = wide_config(rng) if i < WIDE_COUNT else f1_edge_config(edge_rng)
        try:
            validate_config(config)
        except InvalidConfigError:
            continue
        tp = turning_points(config)
        for name, hz in (("f1", tp.f1_hz), ("f2", tp.f2_hz), ("f3", tp.f3_hz)):
            # 0 only where it is exact: f1 of tasks that take no cycles
            assert hz is None or (math.isfinite(hz) and hz > 0) \
                or (hz == 0 and name == "f1" and config.task.cycles_per_bit == 0), (name, hz, config)
            reason = tp.absence_reasons.get(name, "")
            seen[name, "finite" if hz is not None else
                 "beyond float range" if "beyond float range" in reason else
                 "below float range" if "below float range" in reason else "no crossing"] += 1
        if i >= WIDE_COUNT:
            # the float slack is within a few 1e-16 * tau of the exact one, at
            # least 1e-11 * tau, so f1 is within 0.1% of the exact f1
            seen["f1 edge"] += 1
            exact = f1_exact(config)
            if exact > 1.001 * sys.float_info.max:
                assert "beyond float range" in tp.absence_reasons["f1"], (exact, tp, config)
            elif exact < 0.999 * sys.float_info.max:
                assert relative_error(tp.f1_hz, float(exact)) <= 1e-3, (exact, tp, config)
    # each point came out finite, beyond and below float range, and absent
    # for a reason of its own
    for name in ("f1", "f2", "f3"):
        for outcome in ("finite", "beyond float range", "below float range", "no crossing"):
            assert seen[name, outcome] > 0, seen
    assert seen["f1 edge"] > F1_EDGE_COUNT // 2, seen


@pytest.mark.parametrize("sampler, seed, count", [
    (wide_config, WIDE_SEED, WIDE_COUNT),
    (full_config, FULL_SEED, FULL_COUNT),
    # the one in-range draw sample_config(2, 485), where F = 4, Pbar = 0.0166 W
    # and F*k2 = 0.0411 W: f3's float sum cancels and prints 197372.39417893725
    # Hz, 264 ulps below the correctly rounded 197372.39417894493 Hz
    pytest.param(sample_config, 2, 485, marks=pytest.mark.xfail(strict=True, reason=(
        "CHANGES.md FOUND: turning_points keeps f3's float sum on in-range configs, "
        "and that sum loses digits where its terms cancel"))),
])
def test_turning_points_f2_and_f3_are_exact(sampler, seed, count):
    """Every printed f2 and f3 is within 2 ulps of its formula in exact
    arithmetic, and every float-range or offload-only reason is true of it.
    A sample_config case checks its one draw, trial ``count`` of ``seed``."""
    seen = Counter()
    ranged = sampler is not sample_config
    for config in valid_draws(sampler, seed, count) if ranged else [sample_config(seed, count)]:
        tp = turning_points(config)
        for name, hz, exact in (("f2", tp.f2_hz, f2_exact), ("f3", tp.f3_hz, f3_exact)):
            reason = tp.absence_reasons.get(name, "")
            if hz is None and not ("float range" in reason or "offload-only draw" in reason):
                continue  # no dynamic power, no remote input or an empty cache
            assert true_of_the_square(hz, reason, exact(config)), (name, hz, reason, config)
            seen[name, "finite" if hz is not None else reason.split(":")[0]] += 1
    if not ranged:
        return
    for name in ("f2", "f3"):
        for outcome in ("finite", "the crossing lies beyond float range", "below float range"):
            assert seen[name, outcome] > 0, seen
    assert seen["f3", "power budget below the offload-only draw"] > 0, seen


# a power draw past float range overflows to inf, which the budget rule
# rightly rejects; nothing here computes with numpy, so any RuntimeWarning
# here is a fault
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_lattice_and_baselines_agree_on_wide_range_configs():
    rng = random.Random(WIDE_SEED)
    seen = Counter()
    above = 0  # valid draws with F above WIDE_LATTICE_MAX_F
    for _ in range(WIDE_COUNT):
        config = wide_config(rng)
        try:
            validate_config(config)
        except InvalidConfigError:
            continue
        if config.task_count > WIDE_LATTICE_MAX_F:
            # every WIDE_LATTICE_STRIDE-th of them, on outcome and total only
            above += 1
            if above % WIDE_LATTICE_STRIDE == 0:
                lattice = outcome(enumerate_optimal, config)
                seen["F > 200", lattice[0]] += 1
                assert_agree(outcome(solve_optimal, config), lattice, config,
                             "closed form vs lattice, F > 200")
            continue
        lattice = outcome(enumerate_optimal, config)
        seen[lattice[0]] += 1
        assert_agree(outcome(solve_optimal, config), lattice, config, "closed form vs lattice")
        if lattice[0] != "solved":
            continue
        for kind in BASELINE_KINDS:
            try:
                total = baseline_policy(kind, config).b_total_hz
            except InfeasibleError:
                continue
            seen[kind] += 1
            assert total >= lattice[1] or relative_error(total, lattice[1]) <= 1e-9, \
                (kind, total, lattice, config)
    # both infeasibility classes, solved configs and every feasible baseline occurred
    for branch in ("latency", "power", "solved", *BASELINE_KINDS,
                   *(("F > 200", name) for name in ("latency", "power", "solved"))):
        assert seen[branch] > 0, (branch, seen)


def test_route_latency_never_divides_by_zero_on_wide_range_configs():
    """At its own route_costs bandwidths, a valid wide draw's route latency is
    a finite number, or a typed error where a bandwidth underflowed to 0."""
    rng = random.Random(WIDE_SEED)
    seen = Counter()
    for _ in range(WIDE_COUNT // 4):
        config = wide_config(rng)
        try:
            validate_config(config)
            costs = route_costs(config)
        except Edge3cError:  # an invalid config, or a dead uplink with bits to send
            continue
        legs = []
        if costs.b2 is not None:
            legs.append((2, {"downlink_hz": costs.b2}))
        if costs.b3 is not None:
            legs.append((3, {"uplink_hz": costs.bu3, "downlink_hz": costs.bd3}))
        for route, bandwidths in legs:
            try:
                latency = route_latency(route, config, **bandwidths)
            except Edge3cError as exc:
                seen[route, exc.code] += 1
                continue
            assert not math.isnan(latency), (route, bandwidths, config)
            seen[route, "infinite" if latency == math.inf else "finite"] += 1
    # route_latency takes each leg's bits / (se * bw) exactly where se * bw
    # leaves the normal floats, so no rate underflows to an infinite latency;
    # a bandwidth reported as 0.0 Hz occurred on both routes
    for route in (2, 3):
        assert seen[route, "finite"] > 0 and seen[route, "invalid_field"] > 0, seen
        assert seen[route, "infinite"] == 0, seen


#: the certificate's one exemption: a leg with bits to move whose reported
#: bandwidth underflowed to 0.0 Hz. The route looks free, and its latency at
#: that bandwidth is infinite, but the total is right to within about 1e-300 Hz
UNDERFLOWED = "underflowed bandwidth"


def latency_or_inf(route: int, config: SystemConfig, uplink_hz: float = 0.0,
                   downlink_hz: float = 0.0) -> float:
    """route_latency, where a leg with bits to move over a dead link, or with
    no bandwidth, takes forever."""
    try:
        return route_latency(route, config, uplink_hz, downlink_hz)
    except (DegenerateChannelError, InvalidFieldError):
        return math.inf


def route_certificate(config: SystemConfig, costs) -> list[str]:
    """The checks of route_costs' flags and bandwidths that a valid config
    fails, by name, or UNDERFLOWED where a check does not apply. Reads only
    route_latency, the spectral efficiencies and the config fields: a flag
    holds exactly when its route meets the deadline, at the reported
    bandwidths within 1e-9, and a route flagged infeasible misses it at the
    bandwidth cap, which route 3 splits in proportion sqrt(a1) : sqrt(a2)."""
    t, tau = config.task, config.task.deadline_s
    fails = []
    if (latency_or_inf(1, config) <= tau) != costs.route1_feasible:
        fails.append("route 1 flag")
    if costs.route12_feasible:
        if costs.b2 == 0.0 and t.input_remote_bits > 0:
            fails.append(UNDERFLOWED)
        elif not latency_or_inf(2, config, downlink_hz=costs.b2) <= tau * (1 + 1e-9):
            fails.append("route 2 misses the deadline at B2")
    elif latency_or_inf(2, config, downlink_hz=DEFAULT_BANDWIDTH_CAP) <= tau:
        fails.append("route 2 flagged infeasible meets the deadline at the cap")
    if costs.route3_feasible:
        if (costs.bu3 == 0.0 and t.input_local_bits > 0) \
                or (costs.bd3 == 0.0 and t.output_bits > 0):
            fails.append(UNDERFLOWED)
        elif not latency_or_inf(3, config, costs.bu3, costs.bd3) <= tau * (1 + 1e-9):
            fails.append("route 3 misses the deadline at Bu3 and Bd3")
    else:
        # sqrt(a1) : sqrt(a2), taken through logarithms so that no part
        # leaves float range
        logs = [0.5 * (math.log(bits) - math.log(se)) if bits > 0 < se else -math.inf
                for bits, se in ((t.input_local_bits, uplink_spectral_efficiency(config)),
                                 (t.output_bits, downlink_spectral_efficiency(config)))]
        m = max(logs)  # -inf with nothing to move, where any split will do
        r1, r2 = (math.exp(x - m) for x in logs) if m > -math.inf else (1.0, 1.0)
        up = DEFAULT_BANDWIDTH_CAP * r1 / (r1 + r2)
        down = DEFAULT_BANDWIDTH_CAP * r2 / (r1 + r2)
        if latency_or_inf(3, config, up, down) <= tau:
            fails.append("route 3 flagged infeasible meets the deadline at the cap")
    return fails


def valid_draws(sampler, seed: int, count: int):
    """The configs of ``count`` draws of ``sampler`` that the validator accepts."""
    rng = random.Random(seed)
    for _ in range(count):
        config = sampler(rng)
        try:
            validate_config(config)
        except InvalidConfigError:
            continue
        yield config


def certificate_configs(sampler: str):
    """sample_config seeds 0-2 x trials 0-999, 4,000 fuzz_config draws, or
    the valid ones of 4,000 wide_config or 20,000 full_config draws."""
    if sampler == "sample_config":
        yield from (sample_config(seed, trial) for seed in range(3) for trial in range(1000))
    elif sampler == "fuzz_config":
        rng = random.Random(SEED + 3)
        yield from (fuzz_config(rng) for _ in range(COUNT))
    elif sampler == "wide_config":
        yield from valid_draws(wide_config, WIDE_SEED + 3, WIDE_COUNT // 4)
    else:
        yield from valid_draws(full_config, FULL_SEED, FULL_COUNT)


@pytest.mark.parametrize("sampler", ["sample_config", "fuzz_config", "wide_config", "full_config"])
def test_route_costs_pass_the_latency_certificate(sampler):
    seen = Counter()
    for config in certificate_configs(sampler):
        costs = route_costs(config)
        fails = route_certificate(config, costs)
        assert set(fails) <= {UNDERFLOWED}, (fails, costs, config)
        seen["route 2", costs.route12_feasible] += 1
        seen["route 3", costs.route3_feasible] += 1
    # the checks of a feasible flag ran on each route, and those of an
    # infeasible one too, except on the stratified sampler, which draws
    # only configs whose every route is feasible
    flags = (True,) if sampler == "sample_config" else (True, False)
    assert all(seen[route, ok] > 0 for route in ("route 2", "route 3") for ok in flags), seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_and_lattice_agree_on_full_range_configs():
    """On every valid full_config draw, at F up to 200, the closed form
    matches the lattice oracle in outcome class and total."""
    seen = Counter()
    for config in valid_draws(full_config, FULL_SEED, FULL_COUNT):
        lattice = outcome(enumerate_optimal, config)
        seen[lattice[0]] += 1
        assert_agree(outcome(solve_optimal, config), lattice, config, "closed form vs lattice")
    for branch in ("latency", "power", "solved"):
        assert seen[branch] > 0, (branch, seen)


def within_3_ulps(x: float) -> list[float]:
    """The seven floats from 3 ulps below x to 3 ulps above it."""
    for _ in range(3):
        x = math.nextafter(x, -math.inf)
    near = [x]
    for _ in range(6):
        near.append(math.nextafter(near[-1], math.inf))
    return near


def budgets_near_draws(k1: float, k2: float, f: int, rng: random.Random) -> set[float]:
    """Positive finite budgets within 3 ulps of the exact draws at 0, a random
    count and F local tasks, and of each draw's tolerance-window edge."""
    budgets = set()
    for s in (0, rng.randint(0, f), f):
        draw = k1 * s + k2 * (f - s)
        for target in (draw, draw / (1.0 + REL_EPS)):
            budgets.update(b for b in within_3_ulps(target) if 0.0 < b < math.inf)
    return budgets


def caches_near_multiples(config: SystemConfig, rng: random.Random) -> set[float]:
    """Finite caches >= 0 within 3 ulps of n remote inputs, for n the config's
    cache capacity Q and a random count, and of each multiple's floor_eps
    window edge."""
    i_remote, f = config.task.input_remote_bits, config.task_count
    caches = set()
    if i_remote == 0:  # the capacity is F at every cache size
        return caches
    for n in (cache_task_capacity(config.device.cache_bits, i_remote, f), rng.randint(1, f)):
        for ratio in (n, n - REL_EPS * max(1.0, n)):
            caches.update(c for c in within_3_ulps(ratio * i_remote) if 0.0 <= c < math.inf)
    return caches


def edge_configs():
    rng = random.Random(SEED + 1)
    for seed in range(3):
        for trial in range(27):
            yield sample_config(seed, trial)
    for _ in range(60):
        yield fuzz_config(rng)
    wide_rng = random.Random(WIDE_SEED + 1)
    kept = 0
    while kept < 40:
        config = wide_config(wide_rng)
        if config.task_count > WIDE_LATTICE_MAX_F:
            continue
        try:
            validate_config(config)
        except InvalidConfigError:
            continue
        kept += 1
        yield config


def test_batched_power_rule_matches_the_per_count_rule_at_tolerance_edges():
    """With the budget a few ulps from a draw or from its window edge, the
    batched rule accepts exactly the counts the per-count rule accepts, and
    the closed form agrees with the lattice oracle. So it does with the cache
    a few ulps from a whole number of remote inputs or from its window edge."""
    rng, cache_rng = random.Random(SEED + 2), random.Random(SEED + 4)
    seen = Counter()
    for config in edge_configs():
        costs = route_costs(config)
        k1, k2, f = costs.k1, costs.k2, config.task_count
        counts = range(f + 1)
        accepted = set()
        for budget in sorted(budgets_near_draws(k1, k2, f, rng)):
            fits = counts_within_power_budget(k1, k2, f, counts, budget)
            assert fits == [s for s in counts if power_within_budget(k1, k2, s, f - s, budget)], \
                (budget, config)
            accepted.add(tuple(fits))
            moved = replace_field(config, "device.avg_power_w", budget)
            lattice = outcome(enumerate_optimal, moved)
            seen[lattice[0]] += 1
            assert_agree(outcome(solve_optimal, moved), lattice, moved,
                         "closed form vs lattice at a power edge")
        # the budgets straddled a boundary of the rule on this config
        seen["edge crossed"] += len(accepted) > 1
        capacities = []
        for cache in sorted(caches_near_multiples(config, cache_rng)):
            capacities.append((cache, cache_task_capacity(cache, config.task.input_remote_bits, f)))
            moved = replace_field(config, "device.cache_bits", cache)
            lattice = outcome(enumerate_optimal, moved)
            seen["cache", lattice[0]] += 1
            assert_agree(outcome(solve_optimal, moved), lattice, moved,
                         "closed form vs lattice at a cache edge")
        # one ulp more cache held one more task on this config
        seen["cache edge crossed"] += any(
            math.nextafter(a, math.inf) == b and qa != qb
            for (a, qa), (b, qb) in pairwise(capacities))
    for branch in ("solved", "power", "edge crossed", ("cache", "solved"), ("cache", "power"),
                   ("cache", "latency"), "cache edge crossed"):
        assert seen[branch] > 0, (branch, seen)


def exact_k1(config: SystemConfig) -> Fraction:
    """k1 in exact arithmetic."""
    t, d = config.task, config.device
    return Fraction(d.switched_capacitance) * Fraction(d.cpu_hz) ** 2 * Fraction(t.cycles_per_bit) \
        * (Fraction(t.input_local_bits) + Fraction(t.input_remote_bits)) \
        / (Fraction(t.deadline_s) * config.task_count)


def exact_k2(config: SystemConfig) -> Fraction:
    """k2 in exact arithmetic over the float uplink efficiency."""
    t = config.task
    if t.input_local_bits == 0:
        return Fraction(0)
    return Fraction(config.device.uplink_psd) * Fraction(t.input_local_bits) \
        / (config.task_count * Fraction(t.deadline_s) * Fraction(uplink_spectral_efficiency(config)))


#: the greatest float, and the relative tolerance of a derived quantity, as Fractions
FLOAT_MAX, DERIVED_REL = Fraction(sys.float_info.max), Fraction(1e-12)


def matches(value: float, exact: Fraction) -> bool:
    """Whether ``value`` is ``exact`` rounded once, or within 1e-12 of it."""
    if exact > FLOAT_MAX:
        return False
    return value == float(exact) or abs(Fraction(value) - exact) <= DERIVED_REL * exact


#: the reasons of the validator's rules on the derived power draws
K1_OVERFLOW = "makes the local computing power k1 overflow"
K2_OVERFLOW = "makes the uplink power k2 overflow"


@pytest.mark.parametrize("seed, draw, valid", [(3, 14645, True), (8, 2117, True), (8, 5276, False)])
def test_latency_certificate_where_a_link_or_the_work_leaves_float_range(seed, draw, valid):
    # 0-based full_config draws whose uplink SNR is past float range (seed 3
    # #14645, seed 8 #5276) or whose local work underflows (seed 8 #2117).
    # Taken exactly, the last one's uplink power is past float range, so the
    # validator rejects it.
    rng = random.Random(seed)
    for _ in range(draw):
        full_config(rng)
    config = full_config(rng)
    if valid:
        validate_config(config)
        assert set(route_certificate(config, route_costs(config))) <= {UNDERFLOWED}
    else:
        assert [v.reason for v in config_violations(config)] == [K2_OVERFLOW]
        assert exact_k2(config) > FLOAT_MAX


@pytest.mark.parametrize("sampler, seed, count", [(wide_config, WIDE_SEED, WIDE_COUNT),
                                                   (full_config, FULL_SEED, FULL_COUNT)])
def test_power_draws_and_link_efficiencies_are_exact(sampler, seed, count):
    """On the draws whose fields each pass their own rule, k1 and k2 match
    their formulas in exact arithmetic, and a draw rejected as overflowing is
    past float range exactly. A PSD-path efficiency is within 1e-12 of log1p
    of the exact SNR, rounded once, over ln 2, and past float range within
    1e-15 of the SNR's logarithm."""
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(count):
        config = sampler(rng)
        # a field's own rule fails before the rules on the draws run
        reasons = [v.reason for v in config_violations(config)]
        if not reasons:
            k1, k2 = power_coefficients(config)
            assert matches(k1, exact_k1(config)) and matches(k2, exact_k2(config)), config
            seen["valid"] += 1
        elif reasons == [K1_OVERFLOW]:
            assert exact_k1(config) > FLOAT_MAX, config
            seen["k1 past range"] += 1
        elif reasons == [K2_OVERFLOW]:
            assert exact_k2(config) > FLOAT_MAX, config
            seen["k2 past range"] += 1
        elif len(reasons) > 1 or "spectral efficiency of 0" not in reasons[0]:
            continue
        ch = config.channel
        for psd, override in ((config.device.uplink_psd, ch.snr_up_db),
                              (config.server.downlink_psd, ch.snr_down_db)):
            if override is not None:
                continue
            se = spectral_efficiency(psd, ch.gain, ch.noise_psd)
            snr = Fraction(psd) * Fraction(ch.gain) ** 2 / Fraction(ch.noise_psd)
            if snr <= FLOAT_MAX:
                assert relative_error(se, math.log1p(float(snr)) / math.log(2.0)) <= 1e-12, (psd, ch)
                seen["SNR in range"] += 1
            else:  # log(SNR) from its integer numerator and denominator
                log2_snr = (math.log(snr.numerator) - math.log(snr.denominator)) / math.log(2.0)
                assert relative_error(se, log2_snr) <= 1e-15, (psd, ch)
                seen["SNR past range"] += 1
    for branch in ("valid", "k1 past range", "k2 past range", "SNR in range", "SNR past range"):
        assert seen[branch] > 0, (branch, seen)
