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
"""

import math
import random
from collections import Counter

import pytest

from edge3c import (
    BASELINE_KINDS,
    ChannelParams,
    DeviceParams,
    InfeasibleError,
    InvalidConfigError,
    ServerParams,
    SystemConfig,
    TaskSpec,
    baseline_policy,
    enumerate_optimal,
    enumerate_per_task,
    power_coefficients,
    relative_error,
    replace_field,
    route_costs,
    solve_optimal,
    turning_points,
    validate_config,
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


# a power draw past float range overflows to inf in the lattice's numpy
# arithmetic, and the budget rule rightly rejects it; the oracle silences
# that overflow, so any RuntimeWarning here is a fault
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
