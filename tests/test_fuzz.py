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
the closed form with the lattice oracle on every tenth valid draw.

Three more checks reuse the samplers:
- the power budget moved to within a few ulps of a draw, or of its
  tolerance-window edge, where the batched and the per-count power rules must
  accept the same counts, and the cache moved likewise around a whole number
  of remote inputs; at both, the closed form must match the lattice oracle;
- each route's latency at a wide draw's own bandwidths, which must be
  finite, or a typed error where a bandwidth underflowed to 0;
- a certificate of route_costs read off route_latency alone: each route's
  flag holds exactly when the route meets the deadline, at the reported
  bandwidths or, for a route flagged infeasible, at the bandwidth cap.
"""

import math
import random
from collections import Counter
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

SEED = 20201
COUNT = 4000
PER_TASK_MAX_F = 6
WIDE_SEED = 20260
WIDE_COUNT = 16_000
WIDE_LATTICE_MAX_F = 200
#: above WIDE_LATTICE_MAX_F, the lattice checks every this-many-th valid draw
WIDE_LATTICE_STRIDE = 10


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


def test_turning_points_return_on_wide_range_configs():
    rng = random.Random(WIDE_SEED)
    seen = Counter()
    for _ in range(WIDE_COUNT):
        config = wide_config(rng)
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
    # each point came out finite, beyond and below float range, and absent
    # for a reason of its own
    for name in ("f1", "f2", "f3"):
        for outcome in ("finite", "beyond float range", "below float range", "no crossing"):
            assert seen[name, outcome] > 0, seen


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
    # route_latency divides by se and then by bw, so no rate underflows to an
    # infinite latency; a bandwidth reported as 0.0 Hz occurred on both routes
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
        # sqrt(a1) : sqrt(a2), scaled so that neither part leaves float range
        g1, g2 = (math.sqrt(bits) / math.sqrt(se) if bits > 0 < se else 0.0
                  for bits, se in ((t.input_local_bits, uplink_spectral_efficiency(config)),
                                   (t.output_bits, downlink_spectral_efficiency(config))))
        m = max(g1, g2)
        r1, r2 = (g1 / m, g2 / m) if m > 0 else (1.0, 1.0)  # nothing to move: any split
        up = DEFAULT_BANDWIDTH_CAP * r1 / (r1 + r2)
        down = DEFAULT_BANDWIDTH_CAP * r2 / (r1 + r2)
        if latency_or_inf(3, config, up, down) <= tau:
            fails.append("route 3 flagged infeasible meets the deadline at the cap")
    return fails


def certificate_configs(sampler: str):
    """sample_config seeds 0-2 x trials 0-999, 4,000 fuzz_config draws, or
    the valid ones of 4,000 wide_config draws."""
    if sampler == "sample_config":
        yield from (sample_config(seed, trial) for seed in range(3) for trial in range(1000))
    elif sampler == "fuzz_config":
        rng = random.Random(SEED + 3)
        yield from (fuzz_config(rng) for _ in range(COUNT))
    else:
        rng = random.Random(WIDE_SEED + 3)
        for _ in range(WIDE_COUNT // 4):
            config = wide_config(rng)
            try:
                validate_config(config)
            except InvalidConfigError:
                continue
            yield config


@pytest.mark.parametrize("sampler", [
    "sample_config", "fuzz_config",
    pytest.param("wide_config", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="three draws report a subnormal bandwidth, B2 = 2.5e-320 Hz, Bu3 = "
               "8.7e-319 Hz or Bd3 = 4.2e-318 Hz, too imprecise to meet the deadline; "
               "see CHANGES.md"))])
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
