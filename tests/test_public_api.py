"""The package's public surface: every export resolves, once, and nothing
that was removed is still exported; and every name the benchmark's tracer
looks up resolves."""

import os
import subprocess
import sys

import edge3c
from conftest import REPO_ROOT

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


def test_every_name_the_tracer_looks_up_resolves():
    # bench/spans.py wraps each (module, function) of TARGETS, found through
    # sys.modules after a bare ``import edge3c.cli``, and its ordered_map
    # counter reads parallel.worker_count; a fresh interpreter sees only
    # what that import loads
    script = """
import sys
import edge3c.cli
from spans import PACKAGE, TARGETS
names = list(TARGETS)
if ("parallel", "ordered_map") in TARGETS:
    names.append(("parallel", "worker_count"))
for module, fn in names:
    assert callable(getattr(sys.modules[f"{PACKAGE}.{module}"], fn)), (module, fn)
print(len(names))
"""
    path = os.pathsep.join(str(REPO_ROOT / d) for d in ("src", "bench"))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, cwd=REPO_ROOT)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) >= 16
