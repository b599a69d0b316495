import math

import numpy as np
import pytest

from edge3c import (
    DEFAULT_BANDWIDTH_CAP,
    InvalidFieldError,
    kkt_split,
    route_costs,
    route_latency,
)
from conftest import build_config

# reference-config (deadline 0.143 s) values at 50-digit precision
A1_REFCFG = 266081.96324128305
A2_REFCFG = 1068849.2747268960
A3_REFCFG = 0.13166666666666665
B3_REFCFG = 18239372.703358161
BU_REFCFG = 6071202.8903413093
BD_REFCFG = 12168169.813016852
B2_REFCFG = 17016505.866298844
# cache-sweep config (deadline 0.5 s)
B2_RELAXED = 3738052.1083344998


def test_latencies_constructed():
    cfg = build_config()
    assert route_latency(1, cfg) == 1.0          # 2 bits * 1 cyc/bit / 2 Hz
    # 1 bit up at 1 Hz and SE 1, then 2 / (4/3) s at the server
    assert route_latency(3, cfg, 1.0) == 2.5


def test_route1_zero_or_infeasible():
    costs = route_costs(build_config())
    assert costs.route1_feasible
    # boundary: compute time exactly equals the deadline
    assert route_costs(build_config(cpu_hz=1.0)).route1_feasible
    assert not route_costs(build_config(cpu_hz=0.5)).route1_feasible


def test_route2_constructed():
    # 9 bits to download in 1 s of slack at SE 3: exactly 3 Hz
    cfg = build_config(input_remote_bits=9.0, input_local_bits=1.0,
                       cpu_hz=10.0, snr_down_db=None, downlink_psd=7.0)
    assert route_costs(cfg).b2 == 3.0
    assert route_costs(build_config()).b2 == 1.0


def test_route2_infeasible_without_slack():
    costs = route_costs(build_config(cpu_hz=1.0))  # slack exactly 0
    assert costs.b2 is None and not costs.route12_feasible
    assert costs.route1_feasible
    # nothing to download: 0 Hz even with zero slack
    costs = route_costs(build_config(cpu_hz=0.5, input_remote_bits=0.0))
    assert costs.b2 == 0.0 and costs.route12_feasible
    # 2e-7 s of slack on a -3200 dB downlink: B2 = 1 / (2e-7 * 1.4e-320) is
    # past float range
    costs = route_costs(build_config(cpu_hz=1.0000001, snr_down_db=-3200.0))
    assert costs.b2 is None and not costs.route12_feasible


def test_route3_constructed():
    # a1 = 4, a2 = 9, a3 = 1: Bu = 10, Bd = 15, B3 = 25
    cfg = build_config(input_local_bits=4.0, output_bits=9.0, input_remote_bits=6.0,
                       cycles_per_bit=1.0, deadline_s=2.0, server_cpu_hz=10.0,
                       cpu_hz=40.0, avg_power_w=1e6, uplink_psd=1.0)
    costs = route_costs(cfg)
    assert (costs.b3, costs.bu3, costs.bd3) == (25.0, 10.0, 15.0)
    # the deadline is exactly met at that split
    assert route_latency(3, cfg, uplink_hz=costs.bu3,
                         downlink_hz=costs.bd3) == pytest.approx(2.0, rel=1e-12)


def test_route3_no_air_time():
    costs = route_costs(build_config(server_cpu_hz=1.0))  # server compute = deadline
    assert not costs.route3_feasible
    assert costs.b3 is costs.bu3 is costs.bd3 is None


def test_route3_infeasible_when_a_transfer_cost_overflows():
    # SE_up is about 1.4e-310, so uploading 1 bit costs a1 = inf Hz-seconds;
    # with no output, sqrt(a1 * a2) would be inf * 0 = NaN rather than a cost
    costs = route_costs(build_config(snr_up_db=None, uplink_psd=1e-310))
    assert (costs.a1, costs.a2) == (math.inf, 0.0)
    assert not costs.route3_feasible and costs.b3 is None
    assert costs.route12_feasible


def test_kkt_split_closed_form():
    assert kkt_split(4.0, 9.0, 1.0) == (10.0, 15.0)
    assert kkt_split(0.0, 9.0, 2.0) == (0.0, 4.5)
    assert kkt_split(9.0, 0.0, 2.0) == (4.5, 0.0)
    assert kkt_split(0.0, 0.0, 1.0) == (0.0, 0.0)


def test_kkt_split_beats_grid():
    # closed form must not lose to any point of a fine feasible grid
    rng = np.random.default_rng(42)
    for _ in range(200):
        a1 = 10.0 ** rng.uniform(-2, 4)
        a2 = 10.0 ** rng.uniform(-2, 4)
        a3 = 10.0 ** rng.uniform(-2, 1)
        bu, bd = kkt_split(a1, a2, a3)
        best = bu + bd
        grid_bu = np.linspace(a1 / a3 * 1.0001, a1 / a3 * 50, 400)
        grid_bd = a2 / (a3 - a1 / grid_bu)
        assert np.all(best <= grid_bu + grid_bd + 1e-9 * best)
        # and the constraint is tight at the optimum
        assert math.isclose(a1 / bu + a2 / bd, a3, rel_tol=1e-12)


def test_route_latency_zero_payload_terms():
    cfg = build_config(output_bits=0.0)
    # no output: downlink bandwidth irrelevant on route 3
    lat = route_latency(3, cfg, uplink_hz=2.0, downlink_hz=0.0)
    assert lat == 0.5 + 1.5


def test_route_latency_is_infinite_where_the_rate_underflows():
    # -10 dB gives SE = log2(1.1) < 0.5, so the rate of the least subnormal
    # bandwidth rounds to 0, and one bit on each leg takes longer than the
    # largest float
    cfg = build_config(output_bits=1.0, snr_up_db=-10.0, snr_down_db=-10.0)
    tiny = math.ulp(0.0)
    assert route_latency(2, cfg, downlink_hz=tiny) == math.inf
    assert route_latency(3, cfg, uplink_hz=tiny, downlink_hz=1.0) == math.inf
    assert route_latency(3, cfg, uplink_hz=1.0, downlink_hz=tiny) == math.inf
    # a bandwidth that is 0 before any rounding is still a typed error
    with pytest.raises(InvalidFieldError):
        route_latency(2, cfg, downlink_hz=0.0)


def test_route_latency_keeps_a_tiny_spectral_efficiency_in_range():
    # SE_down is about 5.9e-296, so bits / SE_down alone would overflow, yet
    # at its own B2 route 2 takes the whole 1e300 s deadline
    cfg = build_config(input_remote_bits=5.6e13, snr_down_db=-2953.9, deadline_s=1e300,
                       cycles_per_bit=0.0)
    latency = route_latency(2, cfg, downlink_hz=route_costs(cfg).b2)
    assert math.isfinite(latency) and math.isclose(latency, 1e300, rel_tol=1e-9)


def test_route_costs_aggregate(reference_config):
    costs = route_costs(reference_config)
    assert math.isclose(costs.b2, B2_REFCFG, rel_tol=1e-12)
    assert math.isclose(costs.b3, B3_REFCFG, rel_tol=1e-12)
    assert math.isclose(costs.bu3, BU_REFCFG, rel_tol=1e-12)
    assert math.isclose(costs.bd3, BD_REFCFG, rel_tol=1e-12)
    assert math.isclose(costs.a1, A1_REFCFG, rel_tol=1e-12)
    assert math.isclose(costs.a2, A2_REFCFG, rel_tol=1e-12)
    assert math.isclose(costs.a3, A3_REFCFG, rel_tol=1e-12)
    assert costs.route1_feasible and costs.route12_feasible and costs.route3_feasible


def test_route_costs_cache_sweep_reference(relaxed_deadline_config):
    assert math.isclose(route_costs(relaxed_deadline_config).b2, B2_RELAXED, rel_tol=1e-12)


def test_route_costs_flags_degenerate():
    costs = route_costs(build_config(cpu_hz=0.5))
    assert not costs.route1_feasible and not costs.route12_feasible
    assert costs.b2 is None
    assert costs.route3_feasible
    d = costs.to_dict()
    assert d["b2_hz"] is None and d["route3_feasible"] is True


def test_bandwidth_cap_cuts_off():
    # with no compute the whole 2 s deadline is air time, at 1 bit/s/Hz each
    # way: B2 = I_remote / 2 s. A bandwidth exactly at the cap is still feasible
    at_cap = route_costs(build_config(cycles_per_bit=0.0, input_remote_bits=2e12))
    assert at_cap.b2 == DEFAULT_BANDWIDTH_CAP == 1e12 and at_cap.route12_feasible
    past = route_costs(build_config(cycles_per_bit=0.0, input_remote_bits=2.0000001e12))
    assert past.b2 is None and not past.route12_feasible
    offload = route_costs(build_config(cycles_per_bit=0.0, output_bits=3e12))
    assert offload.b3 is None and offload.bu3 is None and not offload.route3_feasible
