"""The package's public surface: every export resolves, once, and nothing
that was removed is still exported."""

import edge3c

REMOVED = (
    "Assignment", "InvalidCountsError", "RouteInfeasibleError",
    "cache_power_balance_cpu_hz", "download_offload_crossover_cpu_hz",
    "expand_assignment", "format_bits", "format_seconds", "format_watts",
    "power_saturation_cpu_hz", "route1_bandwidth", "route2_bandwidth",
    "route3_bandwidth", "route_power", "ceil_eps", "REGIME_LABELS",
    "local_compute_latency", "server_compute_latency",
)


def test_all_resolves_without_duplicates():
    assert len(edge3c.__all__) == len(set(edge3c.__all__))
    for name in edge3c.__all__:
        assert hasattr(edge3c, name), name


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in edge3c.__all__, name
        assert not hasattr(edge3c, name), name
