"""Property-based checks of the algebraic invariants the solver relies on."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from edge3c import (
    InfeasibleError,
    enumerate_optimal,
    floor_eps,
    kkt_split,
    power_within_budget,
    route_costs,
    route_latency,
    solve_optimal,
    spectral_efficiency,
)
from conftest import build_config

finite = dict(allow_nan=False, allow_infinity=False)


@given(psd=st.floats(min_value=0.0, max_value=1e6, **finite),
       bump=st.floats(min_value=1e-6, max_value=1e6, **finite),
       gain=st.floats(min_value=1e-3, max_value=1e3, **finite),
       noise=st.floats(min_value=1e-9, max_value=1e3, **finite))
# psd * gain^2 underflows to 0 in floats, but the SNR is 5e-317
@example(psd=5e-324, bump=1.0, gain=0.1, noise=1e-9)
def test_spectral_efficiency_monotone_and_zero_iff(psd, bump, gain, noise):
    lo = spectral_efficiency(psd, gain, noise)
    hi = spectral_efficiency(psd + bump, gain, noise)
    # monotone; strictness can be lost to float plateaus at huge SNR only
    assert hi >= lo
    if psd + bump <= 1e3 * noise / (gain * gain):
        assert hi > lo
    # zero exactly when the exact SNR rounds to zero: neither a partial
    # product nor the log step may lose a nonzero ratio or invent one
    assert (lo == 0.0) == (float(Fraction(psd) * Fraction(gain) ** 2 / Fraction(noise)) == 0.0)
    assert spectral_efficiency(0.0, gain, noise) == 0.0


@given(f_d=st.floats(min_value=1e-2, max_value=1e8, **finite))
def test_local_power_quadruples_when_cpu_doubles(f_d):
    # doubling is a pure binade shift, so the ratio is exactly 4
    k1 = route_costs(build_config(cpu_hz=f_d, validate=False)).k1
    k1_2x = route_costs(build_config(cpu_hz=2.0 * f_d, validate=False)).k1
    assert k1_2x == 4.0 * k1


@given(f=st.integers(min_value=1, max_value=10_000),
       tau=st.floats(min_value=1e-3, max_value=1e3, **finite))
def test_power_coefficients_scale_inversely_with_load(f, tau):
    base = route_costs(build_config())
    other = route_costs(build_config(task_count=f, deadline_s=tau, validate=False))
    assert math.isclose(other.k1 * f * tau, base.k1 * 10 * 2.0, rel_tol=1e-12)
    assert math.isclose(other.k2 * f * tau, base.k2 * 10 * 2.0, rel_tol=1e-12)


@given(slow=st.floats(min_value=1.1, max_value=100.0, **finite),
       faster=st.floats(min_value=1.01, max_value=100.0, **finite))
def test_download_bandwidth_shrinks_with_cpu_speed(slow, faster):
    # more cpu speed leaves more slack for the download, never less
    b_slow = route_costs(build_config(cpu_hz=slow)).b2
    b_fast = route_costs(build_config(cpu_hz=slow * faster)).b2
    assert b_fast < b_slow


@given(a1=st.floats(min_value=1e-6, max_value=1e9, **finite),
       a2=st.floats(min_value=1e-6, max_value=1e9, **finite),
       a3=st.floats(min_value=1e-6, max_value=1e3, **finite))
def test_offload_split_bounds_and_tightness(a1, a2, a3):
    bu, bd = kkt_split(a1, a2, a3)
    total = bu + bd
    # (sqrt(a1)+sqrt(a2))^2 lies between a1+a2 and 2(a1+a2)
    assert total >= (a1 + a2) / a3 * (1.0 - 1e-12)
    assert total <= 2.0 * (a1 + a2) / a3 * (1.0 + 1e-12)
    assert math.isclose(a1 / bu + a2 / bd, a3, rel_tol=1e-12)


@given(a1=st.floats(min_value=1e-6, max_value=1e6, **finite),
       a2=st.floats(min_value=1e-6, max_value=1e6, **finite),
       a3=st.floats(min_value=1e-3, max_value=1e3, **finite),
       slack=st.floats(min_value=1e-6, max_value=0.999999, **finite))
def test_offload_split_is_minimal(a1, a2, a3, slack):
    # any other feasible split costs at least as much
    bu, bd = kkt_split(a1, a2, a3)
    bu_alt = a1 / (a3 * slack)          # spend `slack` of the air time uplink
    bd_alt = a2 / (a3 * (1.0 - slack))  # and the rest downlink
    assert bu + bd <= (bu_alt + bd_alt) * (1.0 + 1e-9)


@given(i_s=st.floats(min_value=0.1, max_value=10.0, **finite),
       cpu=st.floats(min_value=6.5, max_value=50.0, **finite))
def test_route_latencies_tight_at_minimum_bandwidth(i_s, cpu):
    # cpu floor keeps local slack positive and the fast server keeps the
    # offload air time positive, so both minima exist for every draw
    cfg = build_config(input_remote_bits=i_s, cpu_hz=cpu,
                       input_local_bits=2.0, output_bits=3.0,
                       server_cpu_hz=50.0)
    costs = route_costs(cfg)
    assume(costs.route12_feasible and costs.route3_feasible)
    tau = cfg.task.deadline_s
    assert route_latency(2, cfg, downlink_hz=costs.b2) == pytest.approx(tau, rel=1e-9)
    assert route_latency(3, cfg, uplink_hz=costs.bu3,
                         downlink_hz=costs.bd3) == pytest.approx(tau, rel=1e-9)


@given(n=st.integers(min_value=-10**8, max_value=10**8),
       tiny=st.floats(min_value=0.0, max_value=1e-11, **finite))
def test_eps_rounding_absorbs_float_noise(n, tiny):
    # counts stay far below 1e9, where the relative epsilon is still << 1
    wobble = tiny * max(1.0, abs(n))
    assert floor_eps(n + wobble) == n
    assert floor_eps(n - wobble) in (n - 1, n)
    assert floor_eps(float(n)) == n


@given(k1=st.floats(min_value=0.0, max_value=10.0, **finite),
       k2=st.floats(min_value=0.0, max_value=10.0, **finite),
       x12=st.integers(min_value=0, max_value=50),
       x3=st.integers(min_value=0, max_value=50))
@example(k1=1e-300, k2=0.0, x12=1, x3=0)
def test_power_budget_boundary(k1, k2, x12, x3):
    draw = k1 * x12 + k2 * x3
    assert power_within_budget(k1, k2, x12, x3, draw)          # exact boundary
    assert power_within_budget(k1, k2, x12, x3, draw * 1.001)
    # the tolerance is purely relative: a budget 1% short fails wherever it
    # is a float distinct from the draw, subnormal draws included
    if draw * 0.99 < draw:
        assert not power_within_budget(k1, k2, x12, x3, draw * 0.99)


config_draw = st.fixed_dictionaries({
    "task_count": st.integers(min_value=1, max_value=30),
    "input_local_bits": st.floats(min_value=0.0, max_value=20.0, **finite),
    "input_remote_bits": st.floats(min_value=0.0, max_value=20.0, **finite),
    "output_bits": st.floats(min_value=0.0, max_value=20.0, **finite),
    "cycles_per_bit": st.floats(min_value=0.0, max_value=4.0, **finite),
    "deadline_s": st.floats(min_value=0.5, max_value=4.0, **finite),
    "cpu_hz": st.floats(min_value=0.25, max_value=50.0, **finite),
    "server_cpu_hz": st.floats(min_value=0.25, max_value=50.0, **finite),
    "switched_capacitance": st.floats(min_value=0.0, max_value=3.0, **finite),
    "cache_bits": st.floats(min_value=0.0, max_value=100.0, **finite),
    "avg_power_w": st.floats(min_value=0.1, max_value=100.0, **finite),
    "uplink_psd": st.floats(min_value=0.1, max_value=100.0, **finite),
    "snr_up_db": st.floats(min_value=-10.0, max_value=20.0, **finite),
    "snr_down_db": st.floats(min_value=-10.0, max_value=20.0, **finite),
})


@settings(max_examples=300, deadline=None)
@given(params=config_draw)
def test_closed_form_matches_enumeration_everywhere(params):
    """Adversarial configs: the closed form and the lattice oracle must agree
    on the optimal bandwidth, or fail with the same constraint."""
    cfg = build_config(**params)
    try:
        solved = solve_optimal(cfg)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as oexc:
            enumerate_optimal(cfg)
        assert oexc.value.constraint == exc.constraint
        return
    reference = enumerate_optimal(cfg)
    assert math.isclose(solved.b_total_hz, reference.b_total_hz,
                        rel_tol=1e-9, abs_tol=0.0) or solved.b_total_hz == reference.b_total_hz


@given(scale=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_solution_invariant_under_unit_rescaling(scale):
    # scaling every bit count, the cache and the deadline by a power of two
    # moves no floats off their values: identical counts and bandwidths
    base = solve_optimal(build_config())
    scaled = solve_optimal(build_config(
        input_local_bits=scale, input_remote_bits=scale,
        output_bits=0.0, cache_bits=3.5 * scale, deadline_s=2.0 * scale))
    assert (scaled.x1, scaled.x2, scaled.x3) == (base.x1, base.x2, base.x3)
    assert scaled.b_total_hz == base.b_total_hz
    assert scaled.regime == base.regime
