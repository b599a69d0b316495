import hashlib
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from edge3c import (
    REGIMES,
    InfeasibleError,
    InvalidConfigError,
    InvalidFieldError,
    SweepSpec,
    TooLargeError,
    config_from_dict,
    enumerate_optimal,
    enumerate_per_task,
    kkt_split,
    numeric_bandwidth_split,
    relative_error,
    replace_field,
    route_costs,
    run_verification,
    sample_config,
    solve_optimal,
    sweep,
)
from edge3c.bounds import TIE_REL, cache_task_capacity, power_within_budget
from edge3c.oracle import OracleSolution
from edge3c.sampling import _Pcg64
from conftest import CONFIG_DIR, build_config, power_floor_config
from test_fuzz import fuzz_config


def test_enumeration_matches_constructed_optimum():
    sol = enumerate_optimal(build_config())
    assert (sol.x1, sol.x2, sol.x3) == (3, 2, 5)
    assert sol.b_total_hz == 12.0
    assert sol.num_optima == 1


def test_enumeration_power_floor():
    sol = enumerate_optimal(power_floor_config())
    assert (sol.x1, sol.x2, sol.x3) == (2, 3, 5)
    assert sol.b_total_hz == 14.0
    assert sol.num_optima == 1


def test_nothing_to_move_ties_every_split():
    # no bits to transfer on any route: all C(5,2) = 10 count triples cost 0 Hz
    cfg = build_config(task_count=3, input_local_bits=0.0, input_remote_bits=0.0,
                      output_bits=0.0)
    lattice = enumerate_optimal(cfg)
    per = enumerate_per_task(cfg)
    assert lattice.b_total_hz == per.b_total_hz == 0.0
    assert lattice.num_optima == per.num_optima == 10
    assert solve_optimal(cfg).b_total_hz == 0.0


def test_per_task_agrees_with_lattice_and_closed_form():
    cfg = build_config(task_count=3)
    per = enumerate_per_task(cfg)
    lattice = enumerate_optimal(cfg)
    sol = solve_optimal(cfg)
    assert (per.x1, per.x2, per.x3) == (lattice.x1, lattice.x2, lattice.x3)
    assert (per.x1, per.x2, per.x3) == (sol.x1, sol.x2, sol.x3) == (1, 0, 2)
    assert per.b_total_hz == lattice.b_total_hz == sol.b_total_hz == 4.0
    assert per.num_optima == lattice.num_optima == 1


def test_guard_limits():
    with pytest.raises(TooLargeError):
        enumerate_optimal(build_config(task_count=5001))
    with pytest.raises(TooLargeError) as info:
        enumerate_optimal(build_config(task_count=2001))
    assert str(info.value) == "task_count 2001 exceeds the limit 2000"
    with pytest.raises(TooLargeError):
        enumerate_per_task(build_config(task_count=11))


def test_lattice_memory_at_the_limit():
    # all three routes open and the cache holds every task: the box is the
    # full 2001 x 2001 lattice
    cfg = build_config(task_count=2000, cache_bits=1e9, avg_power_w=1e9)
    tracemalloc.start()
    try:
        sol = enumerate_optimal(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sol.x1, sol.x2, sol.x3, sol.b_total_hz, sol.num_optima) == (2000, 0, 0, 0.0, 1)
    assert peak < 2 * 2**20


def scan_every_cell(config) -> OracleSolution | None:
    """enumerate_optimal by a literal scan of every (x1, x2) cell of the
    lattice, in row-major order; None where no cell is feasible."""
    costs = route_costs(config)
    f = config.task_count
    q = cache_task_capacity(config.device.cache_bits, config.task.input_remote_bits, f)
    b2, b3 = costs.b2 or 0.0, costs.b3 or 0.0
    cells = []
    for x1 in range(f + 1):
        for x2 in range(f + 1 - x1):
            x3 = f - x1 - x2
            if x1 > q or (x1 and not costs.route1_feasible) \
                    or (x2 and not costs.route12_feasible) or (x3 and not costs.route3_feasible):
                continue
            if power_within_budget(costs.k1, costs.k2, x1 + x2, x3, config.device.avg_power_w):
                cells.append((b2 * x2 + b3 * x3, x1, x2))
    if not cells:
        return None
    best, x1, x2 = min(cells)
    window = best + TIE_REL * max(1.0, abs(best))
    return OracleSolution(x1=x1, x2=x2, x3=f - x1 - x2, b_total_hz=best,
                          num_optima=sum(value <= window for value, _, _ in cells))


def test_lattice_oracle_equals_a_scan_of_every_cell():
    rng = random.Random(2024)
    configs = [c for c in (fuzz_config(rng) for _ in range(600)) if c.task_count <= 40]
    # b2 = 0, with nothing to download: every split of a local count ties,
    # and with nothing to upload either, every split of F ties
    configs += [build_config(task_count=f, input_remote_bits=0.0, input_local_bits=bits,
                             avg_power_w=watts)
                for f in (1, 9, 40) for bits in (0.0, 1.0) for watts in (1.0, 15.0, 1e9)]
    seen = Counter()
    for config in configs:
        expected = scan_every_cell(config)
        if expected is None:
            seen["infeasible"] += 1
            with pytest.raises(InfeasibleError):
                enumerate_optimal(config)
            continue
        assert enumerate_optimal(config) == expected, config
        f = config.task_count
        seen["ties" if expected.num_optima > 1 else "unique"] += 1
        seen["every split ties"] += expected.num_optima == (f + 1) * (f + 2) // 2 > 1
    assert min(seen["infeasible"], seen["unique"], seen["ties"], seen["every split ties"]) > 0, seen


def test_pcg64_port_matches_numpy():
    rng = random.Random(64)
    edges = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7)
    pairs = [(seed, trial) for seed in edges for trial in edges]
    pairs += [(rng.getrandbits(rng.choice((8, 32, 40, 140))), rng.getrandbits(rng.choice((4, 20, 33, 70))))
              for _ in range(1000)]
    for seed, trial in pairs:
        ours = _Pcg64(seed, trial)
        theirs = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed,
                                                                           spawn_key=(trial,))))
        # integer draws read the 32-bit half that an earlier one buffered,
        # across any random and uniform draws in between
        for _ in range(12):
            kind = rng.randrange(3)
            if kind == 0:
                lo = rng.randrange(-100, 100)
                hi = lo + rng.choice((1, 2, rng.randrange(1, 300), rng.randrange(1, 2**32 - 1)))
                assert ours.integers(lo, hi) == theirs.integers(lo, hi), (seed, trial)
            elif kind == 1:
                # uniform(0, 1) is the bare [0, 1) double: 0 + 1 * r == r
                assert ours.uniform(0.0, 1.0) == theirs.random(), (seed, trial)
            else:
                lo = rng.uniform(-5.0, 5.0)
                hi = lo + rng.uniform(0.0, 50.0)
                assert ours.uniform(lo, hi) == theirs.uniform(lo, hi), (seed, trial)


def test_verification_validates_and_costs_each_trial_once(monkeypatch):
    # the sampler returns validated configs; neither solver validates again,
    # and both work from one route_costs result
    def no_validation(config):
        raise AssertionError("a sampled config was validated again")

    costed = []

    def counting_route_costs(config, *args):
        costed.append(config)
        return route_costs(config, *args)

    monkeypatch.setattr("edge3c.oracle.validate_config", no_validation)
    monkeypatch.setattr("edge3c.policy.validate_config", no_validation)
    monkeypatch.setattr("edge3c.oracle.route_costs", counting_route_costs)
    assert run_verification(trials=9, seed=4)["pass"] is True
    assert len(costed) == 9


def test_oracles_agree_on_power_infeasibility():
    cfg = build_config(avg_power_w=9.0)  # floor is 10 W
    for solver in (solve_optimal, enumerate_optimal, enumerate_per_task):
        with pytest.raises(InfeasibleError) as exc:
            solver(cfg)
        assert exc.value.constraint == "power"


def test_oracles_agree_on_latency_infeasibility():
    cfg = build_config(cpu_hz=0.5, server_cpu_hz=1.0)
    for solver in (solve_optimal, enumerate_optimal, enumerate_per_task):
        with pytest.raises(InfeasibleError) as exc:
            solver(cfg)
        assert exc.value.constraint == "latency"


def test_latency_beats_power_with_oversized_cache():
    # every route misses the deadline; the huge cache must not be counted as
    # coverage (cached tasks still compute locally)
    cfg = build_config(cpu_hz=0.5, server_cpu_hz=1.0, cache_bits=1e9,
                      task_count=3)
    for solver in (solve_optimal, enumerate_optimal, enumerate_per_task):
        with pytest.raises(InfeasibleError) as exc:
            solver(cfg)
        assert exc.value.constraint == "latency"


def test_numeric_split_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a1 = 10.0 ** rng.uniform(-3, 5)
        a2 = 10.0 ** rng.uniform(-3, 5)
        a3 = 10.0 ** rng.uniform(-2, 1)
        bu, bd = kkt_split(a1, a2, a3)
        nu, nd = numeric_bandwidth_split(a1, a2, a3)
        assert relative_error(bu + bd, nu + nd) < 1e-6


def test_numeric_split_degenerate_legs():
    assert numeric_bandwidth_split(0.0, 5.0, 2.0) == (0.0, 2.5)
    assert numeric_bandwidth_split(5.0, 0.0, 2.0) == (2.5, 0.0)
    with pytest.raises(InvalidFieldError):
        numeric_bandwidth_split(0.0, 0.0, 1.0)
    with pytest.raises(InvalidFieldError):
        numeric_bandwidth_split(1.0, 1.0, 0.0)


def test_relative_error_definition():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(2.0, 2.0) == 0.0
    assert relative_error(1.0, 2.0) == 0.5
    assert relative_error(0.0, 5.0) == 1.0


def test_sampler_is_deterministic_and_valid():
    a = sample_config(11, 7)
    b = sample_config(11, 7)
    assert a == b
    assert sample_config(11, 8) != a
    assert sample_config(12, 7) != a
    # every draw solves (sampling only emits feasible systems)
    for trial in range(18):
        solve_optimal(sample_config(0, trial))


def test_sampler_covers_all_nine_regimes():
    # trial i lands on the regime it targets, the shared table's entry i % 9
    for seed in range(3):
        for trial in range(900):
            assert solve_optimal(sample_config(seed, trial)).regime is REGIMES[trial % 9]


def test_sampler_oracle_and_verify_output_are_pinned():
    # the sampler's draw sequence is a compatibility surface, and a speed-up
    # may not change a byte of the oracle's answers or of verify's stdout
    sampled, solved = hashlib.sha256(), hashlib.sha256()
    for seed in range(3):
        for trial in range(1000):
            config = sample_config(seed, trial)
            sampled.update(repr(config).encode())
            solved.update(repr(enumerate_optimal(config)).encode())
    assert sampled.hexdigest() == "88a71821450beeacb31d69603224318b1ff44739433df7e1df54b4d40781bbbb"
    assert solved.hexdigest() == "841cd9b3ab00bb3f75a9b7fcb29a25cb148bf185d327bfb1d86b817bed67a67e"
    for seed, digest in enumerate((
            "70dc287e70ed0eaee2408c8070c5adf5caac14afd301996c60590cfc865f9f8a",
            "7c74037d10ebdc8e177d27db7d2f4aacf3e848437041a0783fa232bfd2dba7ee",
            "def1137b760c32b81373b74fbe919ad60f549270ed742a44719c904b344c443c")):
        stdout = json.dumps(run_verification(trials=900, seed=seed), indent=2) + "\n"
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest, seed


@pytest.mark.parametrize("call, kwargs, field, reason", [
    (sample_config, {"seed": -1, "trial": 0}, "seed", "must be >= 0"),
    (sample_config, {"seed": 0, "trial": -1}, "trial", "must be >= 0"),
    (sample_config, {"seed": 1.5, "trial": 0}, "seed", "must be an integer"),
    (sample_config, {"seed": 0, "trial": True}, "trial", "must be an integer"),
    (run_verification, {"seed": 1.5}, "seed", "must be an integer"),
    (run_verification, {"seed": False}, "seed", "must be an integer"),
    (run_verification, {"trials": 2.5}, "trials", "must be an integer"),
    (run_verification, {"trials": True}, "trials", "must be an integer"),
], ids=["negative-seed", "negative-trial", "float-seed", "bool-trial",
        "verify-float-seed", "verify-bool-seed", "verify-float-trials", "verify-bool-trials"])
def test_sampler_and_verify_reject_a_bad_seed_or_trial_up_front(call, kwargs, field, reason):
    with pytest.raises(InvalidFieldError) as info:
        call(**kwargs)
    assert (info.value.field, info.value.reason) == (field, reason)


def test_run_verification_report():
    rep = run_verification(trials=27, seed=4)
    assert rep["pass"] is True
    assert rep["trials"] == 27
    assert rep["max_rel_error"] <= rep["tolerance"] == 1e-9
    assert sum(rep["regimes"].values()) == 27
    assert rep["failures"] == []


@pytest.mark.parametrize("make", [build_config, power_floor_config], ids=["k1>k2", "k1<k2"])
def test_power_bound_follows_the_budget_rule(make):
    # 5 local tasks draw exactly 15 W, 7.5e-9 W over this budget but inside
    # its tolerance window: the oracle allows them, so the closed form must
    cfg = replace_field(make(), "device.avg_power_w", 15.0 / (1.0 + 0.5e-9))
    closed, lattice = solve_optimal(cfg), enumerate_optimal(cfg)
    assert (closed.x1, closed.x2, closed.x3) == (lattice.x1, lattice.x2, lattice.x3)
    assert closed.x1 + closed.x2 == 5


def test_verify_passes_where_the_power_bound_sits_at_the_window_edge():
    # trial 57 of this seed has u = 72.99999992, and 73 local tasks fit the
    # budget's tolerance window
    assert run_verification(trials=58, seed=1724776852)["pass"] is True


def test_dead_uplink_rejected_by_both_solvers(reference_config):
    # -4000 dB underflows the uplink spectral efficiency to 0 while 1 Mbit per
    # task must be uploaded, so no finite uplink power exists
    raw = json.loads((CONFIG_DIR / "reference.json").read_text())
    raw["channel"]["snr_up_db"] = -4000
    with pytest.raises(InvalidConfigError) as info:
        config_from_dict(raw)
    assert [v.field for v in info.value.violations] == ["channel.snr_up_db"]

    dead = replace_field(reference_config, "channel.snr_up_db", -4000.0)
    for solver in (solve_optimal, enumerate_optimal):
        with pytest.raises(InvalidConfigError) as info:
            solver(dead)
        assert [v.field for v in info.value.violations] == ["channel.snr_up_db"]

    # with nothing to upload the dead link is harmless, and both solvers agree
    no_upload = replace_field(dead, "task.input_local_bits", 0.0)
    closed, lattice = solve_optimal(no_upload), enumerate_optimal(no_upload)
    assert (closed.x1, closed.x2, closed.x3) == (lattice.x1, lattice.x2, lattice.x3)
    assert closed.b_total_hz == lattice.b_total_hz


def outcome(solver, config):
    """(x1, x2, x3, total bandwidth) or the infeasible constraint."""
    try:
        sol = solver(config)
    except InfeasibleError as exc:
        return exc.constraint
    return sol.x1, sol.x2, sol.x3, sol.b_total_hz


@pytest.mark.parametrize("overrides, expected", [
    # every mix draws about 1e-301 W, far above the 1e-310 W budget but
    # within 1e-300 W of it: the tolerance must be relative only
    (dict(avg_power_w=1e-310, switched_capacitance=5e-302, uplink_psd=2e-301), "power"),
    # an empty cache holds no remote input, however small
    # (B2 is subnormal, so it is reported one ulp up)
    (dict(cache_bits=0.0, input_remote_bits=1e-310, task_count=5),
     (0, 5, 0, 3.33333333333365e-310)),
    # an uplink cost past float range leaves only the local routes, which
    # draw 20 W against 15 W
    (dict(snr_up_db=None, uplink_psd=1e-310), "power"),
    # slack * SE_down = 1e-25 s * 1e-300 underflows, but B2 = 1e-315 / 1e-325
    # is about 1e10 Hz, and route 3 cannot move 1e10 bits over that downlink
    (dict(task_count=3, input_local_bits=0.0, input_remote_bits=1e-315, output_bits=1e10,
          cycles_per_bit=0.0, deadline_s=1e-25, cache_bits=0.0, snr_down_db=-3001.6),
     (0, 3, 0, 30057075007.214252)),
    # a1 + sqrt(a1*a2) = 2e308 overflows, but over a3 = 9.925e299 s each leg
    # needs about 2e8 Hz
    (dict(task_count=3, input_local_bits=1e308, input_remote_bits=0.0, output_bits=1e308,
          cycles_per_bit=1e-10, deadline_s=1e300, cpu_hz=1e-5, cache_bits=0.0, uplink_psd=1e-8),
     (0, 0, 3, 1209068010.0755665)),
    # the work w * I_remote = 1.5e385 overflows, but the server computes it
    # in 6.9e88 s, so a3 = 2.8e88 s; the downlink SNR 1e400 is past float
    # range too, where SE_down = log2(1e400)
    (dict(task_count=1, input_local_bits=0.0, input_remote_bits=8.6e91, output_bits=2.9e91,
          cycles_per_bit=1.75e293, deadline_s=9.73e88, cpu_hz=1e10, switched_capacitance=0.0,
          cache_bits=0.0, avg_power_w=1.0, uplink_psd=1.0, server_cpu_hz=2.17e296,
          downlink_psd=1e200, gain=1e100, snr_up_db=None, snr_down_db=None),
     (0, 0, 1, 0.7809822408574371)),
])
def test_all_three_solvers_agree_at_the_float_edges(overrides, expected):
    cfg = build_config(**overrides)
    for solver in (solve_optimal, enumerate_optimal, enumerate_per_task):
        assert outcome(solver, cfg) == expected, solver.__name__


def test_overflowing_local_power_rejected_everywhere(reference_config):
    # 1e200 Hz makes k1 overflow to inf, where the solvers have no common
    # answer: the all-offload mix would draw inf * 0 = NaN watts
    fast = replace_field(reference_config, "device.cpu_hz", 1e200)
    for solver in (solve_optimal, enumerate_optimal, enumerate_per_task):
        with pytest.raises(InvalidConfigError) as info:
            solver(fast)
        assert [v.field for v in info.value.violations] == ["device.cpu_hz"]
    spec = SweepSpec(parameter="device_cpu_hz", start=4e9, stop=1e200, steps=2)
    rows = sweep(reference_config, spec)
    assert rows[0].solution == solve_optimal(reference_config)
    assert (rows[1].solution, rows[1].error) == (None, "invalid_config")
