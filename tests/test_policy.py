import hashlib
import math
import random

import pytest

from edge3c import (
    Edge3cError,
    InfeasibleError,
    REGIMES,
    RouteCosts,
    baseline_policy,
    classify_regime,
    enumerate_optimal,
    power_within_budget,
    route_costs,
    solve_optimal,
)
from edge3c.policy import solve_with_costs
from edge3c.tradeoff import BASELINE_KINDS
from conftest import build_config, numpy_sample_config, power_floor_config
from test_fuzz import fuzz_config, wide_config


def test_power_caps_local_tasks():
    # k1 = 2 > k2 = 1, B3 = 2 > B2 = 1, cache fits 3, power allows 5 local:
    # fill the cache, then download up to the power cap, offload the rest.
    sol = solve_optimal(build_config())
    assert (sol.x1, sol.x2, sol.x3) == (3, 2, 5)
    assert sol.b_total_hz == 12.0
    assert sol.b_avg_hz == 1.2
    assert sol.regime.label == "k1>k2/B3>B2/cache-then-power"
    assert sol.binding == ("cache", "power")


def test_power_floor_forces_downloads():
    # k1 = 1 < k2 = 2: offloading is the power-hungry option, so the budget
    # floors the number of local tasks at 5 even though offload bandwidth
    # (B3 = 1) beats download bandwidth (B2 = 3).
    sol = solve_optimal(power_floor_config())
    assert (sol.x1, sol.x2, sol.x3) == (2, 3, 5)
    assert sol.b_total_hz == 14.0
    assert sol.regime.label == "k1<=k2/B3<=B2/forced-local"
    assert "power" in sol.binding and "cache" in sol.binding


def test_power_floor_rejects_naive_split():
    # using the cache and offloading the rest would be cheaper in bandwidth
    # (2*0 + 8*1 = 8 Hz) but draws 2*1 + 8*2 = 18 W against a 15 W budget
    cfg = power_floor_config()
    costs = route_costs(cfg)
    naive_power = costs.k1 * 2 + costs.k2 * 8
    assert naive_power > cfg.device.avg_power_w
    assert (solve_optimal(cfg).x1, solve_optimal(cfg).x2, solve_optimal(cfg).x3) != (2, 0, 8)


def _assert_extreme_power_bound(f, k1, k2, budget):
    # with an empty cache and the power bound on the cheaper route, x2 is the
    # bound: the cap U when k1 > k2, the floor L otherwise. The rule accepts
    # it, and no count up to 2,000 beyond it
    b2, b3 = (1.0, 2.0) if k1 > k2 else (2.0, 1.0)
    costs = RouteCosts(b2=b2, b3=b3, bu3=b3, bd3=0.0, a1=1.0, a2=1.0, a3=1.0,
                       k1=k1, k2=k2, route1_feasible=True)
    sol = solve_with_costs(f, 0, budget, costs)
    bound = sol.x2
    beyond = range(bound + 1, min(f, bound + 2000) + 1) if k1 > k2 else \
        range(max(0, bound - 2000), bound)
    assert sol.x1 == 0
    assert power_within_budget(k1, k2, bound, f - bound, budget)
    assert not [n for n in beyond if power_within_budget(k1, k2, n, f - n, budget)]


@pytest.mark.parametrize("f, k1, k2, budget", [
    (2, 1.295659547951793, 1.2956323478557785, 2.591291893216279),
    (3, 0.03427003561780377, 0.03207999621387544, 0.10062006734886289),
    (2, 4.214759014167177, 4.21476017373596, 8.429519179473616),
    (3, 0.48967115966410146, 0.48967115966434693, 1.4690134775235362),
    (10, 1.0 + 1e-10, 1.0, 10.0),
    (10, 1.0, 1.0 + 1e-10, 10.0),
    (193647022645042, 8.580995864138455e-06, 8.580995883177511e-06, 1661684302.256143),
], ids=["k1>k2-step-up", "k1>k2-step-down", "k1<k2-step-down", "k1<k2-step-up",
        "k1>k2-wide-window", "k1<k2-wide-window", "k1<k2-huge-f"])
def test_power_bound_is_the_extreme_count_the_budget_rule_accepts(f, k1, k2, budget):
    # the first four budgets' tolerance windows end within float rounding of
    # a count's draw, where rounding the window's edge lands one count off;
    # the next two windows span more than F counts; at the last F, an ulp of
    # the draw spans many counts
    _assert_extreme_power_bound(f, k1, k2, budget)


def test_power_bound_is_the_extreme_count_on_near_ties_at_huge_f():
    # |k1 - k2| / k2 from 1e-16 to 1e-6 and F from 1e6 to 1e15, with the
    # budget set to the draw of a random mix: the draw's rounding spans many
    # counts, so the bound must come from the rule, not from the window's edge
    rng = random.Random(2024)
    for _ in range(400):
        f = int(10.0 ** rng.uniform(6.0, 15.0))
        k2 = 10.0 ** rng.uniform(-9.0, 3.0)
        k1 = k2 * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -6.0))
        n = rng.randrange(f + 1)
        _assert_extreme_power_bound(f, k1, k2, k1 * n + k2 * (f - n))


@pytest.mark.parametrize("overrides", [
    {"switched_capacitance": 0.0},
    {"switched_capacitance": 4.25e307, "uplink_psd": 1.25e308, "snr_up_db": 0.0,
     "deadline_s": 0.5, "input_remote_bits": 0.0},
    {"switched_capacitance": 0.0, "cpu_hz": 0.1, "server_cpu_hz": 0.5},
], ids=["k1<k2", "k1>k2", "no-route"])
def test_power_bound_where_the_budget_window_and_f_k2_are_infinite(overrides):
    # a budget this close to the largest float puts the window's end past
    # float range, and F*k2 overflows too; every count fits, as the lattice
    # oracle finds
    cfg = build_config(**{"uplink_psd": 1e299, "snr_up_db": -100.0,
                          "avg_power_w": 1.7976931348623157e308, **overrides})
    costs = route_costs(cfg)
    assert math.isinf(cfg.task_count * costs.k2) and costs.k1 != costs.k2

    def outcome(solve):
        try:
            sol = solve(cfg)
        except InfeasibleError as exc:
            return exc.constraint
        return sol.b_total_hz

    assert outcome(solve_optimal) == outcome(enumerate_optimal)
    for kind in BASELINE_KINDS:
        outcome(lambda c: baseline_policy(kind, c))


def test_cache_binding_when_power_ample():
    sol = solve_optimal(build_config(avg_power_w=1000.0))
    # power allows all 10 local; cache holds 3, download is cheaper than offload
    assert (sol.x1, sol.x2, sol.x3) == (3, 7, 0)
    assert sol.regime.label == "k1>k2/B3>B2/power-ample"
    assert sol.binding == ("cache",)


def test_power_limited_regime():
    # power cap below cache capacity: U = 2 < Q = 3
    sol = solve_optimal(build_config(avg_power_w=12.0))
    assert (sol.x1, sol.x2, sol.x3) == (2, 0, 8)
    assert sol.regime.label == "k1>k2/B3>B2/power-limited"
    assert sol.binding == ("power",)


def test_offload_cheaper_skips_downloads():
    # a bigger remote input raises only the download bandwidth (B2 = 3 > B3 = 1),
    # so no task uses route 2 even though power (U = 5) would allow more local
    cfg = build_config(input_remote_bits=3.0, cpu_hz=4.0,
                       switched_capacitance=0.625, server_cpu_hz=4.0)
    costs = route_costs(cfg)
    assert (costs.b2, costs.b3) == (3.0, 1.0)
    assert (costs.k1, costs.k2) == (2.0, 1.0)
    sol = solve_optimal(cfg)
    assert (sol.x1, sol.x2, sol.x3) == (1, 0, 9)
    assert sol.regime.label == "k1>k2/B3<=B2/cache-limited"
    assert sol.binding == ("cache",)


def test_every_label_is_known():
    labels = [r.label for r in REGIMES]
    assert len(set(labels)) == 9
    for label in labels:
        assert "," not in label
    sol = solve_optimal(build_config())
    assert sol.regime in REGIMES
    assert classify_regime(build_config()).label == sol.regime.label


def test_equal_power_coefficients_drop_power_bound():
    # k1 == k2 == 2: any mix draws 20 W; budget 20 W is exactly feasible
    cfg = build_config(uplink_psd=40.0, avg_power_w=20.0)
    costs = route_costs(cfg)
    assert costs.k1 == costs.k2 == 2.0
    sol = solve_optimal(cfg)
    # B2 = 1 < B3 = 2: cache 3, download the rest, never offload
    assert (sol.x1, sol.x2, sol.x3) == (3, 7, 0)
    assert not sol.regime.k1_gt_k2
    with pytest.raises(InfeasibleError) as exc:
        solve_optimal(build_config(uplink_psd=40.0, avg_power_w=19.0))
    assert exc.value.constraint == "power"


def test_tie_between_routes_runs_offload_branch():
    # B2 == B3 == 2 Hz: ties classify as B3 <= B2, so the offload branch
    # runs; total bandwidth is 2 Hz per uncached task either way
    cfg = build_config(input_remote_bits=2.0, cpu_hz=3.0, server_cpu_hz=2.0,
                       switched_capacitance=2.0)
    costs = route_costs(cfg)
    assert costs.b2 == costs.b3 == 2.0
    sol = solve_optimal(cfg)
    assert not sol.regime.b3_gt_b2
    assert (sol.x1, sol.x2, sol.x3) == (1, 0, 9)
    assert sol.b_total_hz == (10 - sol.x1) * 2.0


def test_latency_coverage_infeasible():
    # local compute impossible and offload impossible: nothing covers the tasks
    cfg = build_config(cpu_hz=0.5, server_cpu_hz=1.0)
    with pytest.raises(InfeasibleError) as exc:
        solve_optimal(cfg)
    assert exc.value.constraint == "latency"


def test_latency_partial_coverage_flags_binding():
    # local compute infeasible but offload fine: everything must offload
    cfg = build_config(cpu_hz=0.5, avg_power_w=1000.0)
    sol = solve_optimal(cfg)
    assert (sol.x1, sol.x2, sol.x3) == (0, 0, 10)
    assert "latency" in sol.binding
    assert sol.b_total_hz == 10 * route_costs(cfg).b3


def test_power_infeasible_when_floor_exceeds_budget():
    # cheapest mix still draws more than the budget
    cfg = build_config(avg_power_w=9.0)  # floor is 10*k2 = 10 W
    with pytest.raises(InfeasibleError) as exc:
        solve_optimal(cfg)
    assert exc.value.constraint == "power"


def test_baselines_constructed():
    cfg = build_config(avg_power_w=1000.0)
    mec = baseline_policy("mec_only", cfg)
    assert (mec.x1, mec.x2, mec.x3) == (0, 0, 10)
    assert mec.b_total_hz == 20.0
    local = baseline_policy("local_only", cfg)
    assert (local.x1, local.x2, local.x3) == (3, 7, 0)
    assert local.b_total_hz == 7.0
    bare = baseline_policy("local_no_cache", cfg)
    assert (bare.x1, bare.x2, bare.x3) == (0, 10, 0)
    assert bare.b_total_hz == 10.0
    best = solve_optimal(cfg).b_total_hz
    for b in (mec, local, bare):
        assert best <= b.b_total_hz


def test_baselines_report_infeasibility():
    # power budget 15 W: all-local draws 20 W, all-mec draws 10 W
    cfg = build_config()
    with pytest.raises(InfeasibleError):
        baseline_policy("local_only", cfg)
    assert baseline_policy("mec_only", cfg).b_total_hz == 20.0
    with pytest.raises(InfeasibleError):
        baseline_policy("mec_only", build_config(server_cpu_hz=1.0, avg_power_w=1000.0))


def test_solution_dict_shape():
    d = solve_optimal(build_config()).to_dict()
    assert list(d) == ["x1", "x2", "x3", "b_total_hz", "b_avg_hz", "regime", "binding"]
    assert d["regime"] in {r.label for r in REGIMES}
    assert isinstance(d["binding"], list)


def _pinned_answer(config) -> str:
    try:
        sol = solve_optimal(config)
    except InfeasibleError as exc:
        return f"infeasible {exc.constraint}"
    except Edge3cError as exc:
        return type(exc).__name__
    return repr((sol.x1, sol.x2, sol.x3, repr(sol.b_total_hz), sol.regime.label, sol.binding))


def _pinned_configs() -> list:
    """7,000 configs: sample_config seeds 0-2 x trials 0-999 on numpy's
    stream, and 2,000 draws from each fuzz sampler."""
    configs = [numpy_sample_config(seed, trial) for seed in range(3) for trial in range(1000)]
    fuzz, wide = random.Random(14), random.Random(15)
    configs += [fuzz_config(fuzz) for _ in range(2000)]
    configs += [wide_config(wide) for _ in range(2000)]
    return configs


def test_closed_form_answers_are_pinned():
    # binding has no oracle to check it, so its answers, with the counts,
    # the bandwidth and the regime, are pinned on the stratified sampler and
    # on both fuzz samplers
    digest = hashlib.sha256()
    for config in _pinned_configs():
        digest.update(_pinned_answer(config).encode() + b"\n")
    assert digest.hexdigest() == "cf39a66052fd9137f492e81355451ec381d58ac9aaa862bc3356025ed029e8ee"


def test_baseline_answers_are_pinned():
    # each baseline's counts and total, or its error, on the configs above
    digest = hashlib.sha256()
    for config in _pinned_configs():
        for kind in BASELINE_KINDS:
            try:
                sol = baseline_policy(kind, config)
            except Edge3cError as exc:
                answer = repr((type(exc).__name__, getattr(exc, "constraint", None), str(exc)))
            else:
                answer = repr((sol.x1, sol.x2, sol.x3, repr(sol.b_total_hz)))
            digest.update(answer.encode() + b"\n")
    assert digest.hexdigest() == "8f7bfaaf83f6d374d0686e016047d1c15c4606836a4546692de465fca286b997"
