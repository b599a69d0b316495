import math
import random
from collections import Counter

import numpy as np
import pytest

import edge3c.model
from edge3c import (
    Edge3cError,
    InfeasibleError,
    InvalidConfigError,
    InvalidFieldError,
    SweepSpec,
    baseline_policy,
    detect_breakpoints,
    grid_values,
    power_coefficients,
    replace_field,
    route_costs,
    rows_to_csv,
    solve_optimal,
    sweep,
    turning_points,
    validate_config,
)
from edge3c.policy import _facts, _scalars
from edge3c.tradeoff import BASELINE_KINDS, INF_TOKEN, MAX_SWEEP_STEPS, SWEEP_PARAMETERS, SweepRow
from conftest import build_config
from test_fuzz import fuzz_config, wide_config

# 50-digit evaluations of the three turning points of the reference config
F1_REFCFG = 3452613191.6823191
F2_REFCFG = 5425972398.6201986
F3_REFCFG = 6563141670.0792541


def test_power_saturation_inversion():
    # computing all tasks locally at f2 draws exactly the budget: F*k1 == Pbar
    rng = np.random.default_rng(1)
    for _ in range(100):
        i_remote = 10.0 ** rng.uniform(4, 8)
        cfg = build_config(task_count=int(rng.integers(1, 400)),
                           deadline_s=10.0 ** rng.uniform(-2, 1),
                           avg_power_w=10.0 ** rng.uniform(-1, 2),
                           switched_capacitance=10.0 ** rng.uniform(-28, -25),
                           cycles_per_bit=rng.uniform(1, 30), input_remote_bits=i_remote,
                           input_local_bits=i_remote * rng.uniform(0.0, 2.0))
        f2 = turning_points(cfg).f2_hz
        k1 = route_costs(replace_field(cfg, "device.cpu_hz", f2)).k1
        assert math.isclose(cfg.task_count * k1, cfg.device.avg_power_w, rel_tol=1e-12)


def test_cache_power_balance_inversion():
    # at f3 the power bound on local tasks equals the continuous cache
    # capacity: u == C / I_remote
    rng = np.random.default_rng(2)
    for _ in range(100):
        tau = 10.0 ** rng.uniform(-2, 1)
        f_count = int(rng.integers(2, 400))
        i_s = 10.0 ** rng.uniform(4, 7)
        i_local = i_s * rng.uniform(0.01, 2.0)
        k2 = 10.0 ** rng.uniform(-4, -1)
        # 0 dB uplink: k2 = uplink_psd * I_local / (F * tau)
        cfg = build_config(task_count=f_count, deadline_s=tau, input_remote_bits=i_s,
                           input_local_bits=i_local, cache_bits=i_s * rng.uniform(0.2, 50),
                           uplink_psd=k2 * f_count * tau / i_local,
                           avg_power_w=f_count * k2 * rng.uniform(1.05, 4.0),  # P > F k2
                           switched_capacitance=10.0 ** rng.uniform(-28, -25),
                           cycles_per_bit=rng.uniform(1, 30))
        f3 = turning_points(cfg).f3_hz
        costs = route_costs(replace_field(cfg, "device.cpu_hz", f3))
        u = (cfg.device.avg_power_w - f_count * costs.k2) / (costs.k1 - costs.k2)
        assert math.isclose(u, cfg.device.cache_bits / i_s, rel_tol=1e-9)


def test_crossover_config_costs_meet():
    # at the crossover speed the download and offload routes cost the same
    cfg = build_config(input_local_bits=4.0, input_remote_bits=25.0, output_bits=9.0,
                      server_cpu_hz=29.0, cpu_hz=29.0, switched_capacitance=1e-6,
                      avg_power_w=1000.0, cache_bits=0.0)
    tp = turning_points(cfg)
    assert math.isclose(tp.f1_hz, 29.0, rel_tol=1e-12)
    costs = route_costs(cfg)
    assert costs.b2 == costs.b3 == 25.0


def test_reference_turning_points(reference_config):
    tp = turning_points(reference_config)
    assert math.isclose(tp.f1_hz, F1_REFCFG, rel_tol=1e-12)
    assert math.isclose(tp.f2_hz, F2_REFCFG, rel_tol=1e-12)
    assert math.isclose(tp.f3_hz, F3_REFCFG, rel_tol=1e-12)
    assert tp.f1_hz < tp.f2_hz < tp.f3_hz
    assert tp.absence_reasons == {}
    d = tp.to_dict()
    assert list(d) == ["f1_hz", "f2_hz", "f3_hz", "absent"]


def test_absence_reasons():
    tp = turning_points(build_config(input_remote_bits=0.0))
    assert tp.f1_hz is None and tp.f3_hz is None
    assert tp.absence_reasons["f1"].startswith("no remote input")
    assert tp.absence_reasons["f3"].startswith("no remote input")

    tp = turning_points(build_config(server_cpu_hz=1.0))  # offload cannot fit
    assert tp.f1_hz is None
    assert "offload route infeasible" in tp.absence_reasons["f1"]

    tp = turning_points(build_config(input_local_bits=0.0, output_bits=0.0))
    assert tp.f1_hz is None
    assert "needs no bandwidth" in tp.absence_reasons["f1"]

    tp = turning_points(build_config(cycles_per_bit=0.0, input_remote_bits=1000.0,
                                     cache_bits=2000.0))
    assert tp.f1_hz is None and tp.f2_hz is None
    assert "exceeds the offload" in tp.absence_reasons["f1"]
    assert "never saturates" in tp.absence_reasons["f2"]

    # a3 = 0.5 and B3 = 2: download meets offload only at infinite cpu speed
    tp = turning_points(build_config(input_remote_bits=4.0, cycles_per_bit=3.0,
                                     server_cpu_hz=10.0))
    assert tp.f1_hz is None
    assert "exceeds the offload" in tp.absence_reasons["f1"]

    tp = turning_points(build_config(switched_capacitance=0.0))
    assert tp.f2_hz is None and tp.f3_hz is None
    assert "never saturates" in tp.absence_reasons["f2"]
    assert "no dynamic power: the cache bound never meets it" in tp.absence_reasons["f3"]

    tp = turning_points(build_config(cache_bits=0.0))
    assert tp.f3_hz is None
    assert "empty cache" in tp.absence_reasons["f3"]

    tp = turning_points(build_config(uplink_psd=400.0))  # k2 = 20, F k2 >> budget
    assert tp.f3_hz is None
    assert "offload-only draw" in tp.absence_reasons["f3"]

    # a3 = 0.5, B3 = 8 and I_remote = 8 - 2**-49, so the slack of f1 is
    # 1 - 0.5 * I_remote / 4 = 2**-52 s, and f1 = work * 2**52, about 3.6e309 Hz
    i_remote = 8.0 - 2.0 ** -49
    tp = turning_points(build_config(input_local_bits=0.0, input_remote_bits=i_remote,
                                     output_bits=4.0, cycles_per_bit=1e293, deadline_s=1.0,
                                     server_cpu_hz=2.0 * i_remote * 1e293))
    assert tp.f1_hz is None
    assert "beyond float range" in tp.absence_reasons["f1"]

    # w * I_total = 2e-330 underflows to 0, yet mu, w and I_total are all
    # positive, so local computing draws dynamic power and f2, f3 exist
    tp = turning_points(build_config(cycles_per_bit=1e-170, input_local_bits=1e-160,
                                     input_remote_bits=1e-160, switched_capacitance=1e100))
    assert tp.f2_hz == pytest.approx(3.872983346207417e115, rel=1e-12)
    assert tp.f3_hz == pytest.approx(7.270291799999699e35, rel=1e-12)

    # a3 * I_remote = 1e310 overflows, yet the slack of f1 is
    # 1e300 - 1e300 * 1e10 / 1e308 = 1e300 - 100 s, so f1 = 1e290 / 1e300 Hz
    tp = turning_points(build_config(input_local_bits=0.0, input_remote_bits=1e10,
                                     output_bits=1e308, cycles_per_bit=1e280, deadline_s=1e300,
                                     cpu_hz=1.0, server_cpu_hz=1e10, switched_capacitance=1e-300))
    assert tp.f1_hz == pytest.approx(1e-10, rel=1e-12)

    # mu * w = 1e-320 is subnormal, so mu * w * I_total = 2e-220 is normal
    # but keeps only a few digits; f2 = sqrt(2 * 15 / 2e-220) is exact to 1e-15
    tp = turning_points(build_config(switched_capacitance=1e-200, cycles_per_bit=1e-120,
                                     input_local_bits=1e100, input_remote_bits=1e100))
    assert tp.f2_hz == pytest.approx(math.sqrt(15e220), rel=1e-15)

    # tasks that take no cycles: download undercuts offload at every speed,
    # so the crossing sits at exactly 0 Hz, which is kept
    tp = turning_points(build_config(cycles_per_bit=0.0, input_remote_bits=0.5))
    assert tp.f1_hz == 0.0 and "f1" not in tp.absence_reasons


def test_f3_reason_takes_the_exact_radicand_sign():
    # a wide-range draw of tests/test_fuzz.py (seed 20260): the first term
    # of f3's radicand underflows to -0.0 and the second is positive, so the
    # float sum is positive while the exact radicand is negative
    cfg = build_config(task_count=49, input_local_bits=4.024358466646795e-98,
                       input_remote_bits=5.012821122538432e+294,
                       output_bits=1.8937742968848985e-154, cycles_per_bit=5.823736660337069e-270,
                       deadline_s=1.4889841773919064e-238, cpu_hz=1.307584087524439e-83,
                       switched_capacitance=1.5002155801116434e+60,
                       cache_bits=1.8623798357699268e+266, avg_power_w=1.4240678585047889e-36,
                       uplink_psd=6.672184902573947e-86, server_cpu_hz=1.8901227893556615e-300,
                       downlink_psd=3.987735992744227e-46, gain=5.435034188573172e+198,
                       noise_psd=1.162786436731023e-40, snr_up_db=212.57813104236266,
                       snr_down_db=None)
    tp = turning_points(cfg)
    assert tp.f3_hz is None
    assert "offload-only draw" in tp.absence_reasons["f3"]


def test_grid_values_exact():
    lin = grid_values(SweepSpec("avg_power_w", 0.0, 1.0, 3).validate())
    assert lin == [0.0, 0.5, 1.0]
    log = grid_values(SweepSpec("avg_power_w", 1.0, 16.0, 5, log_scale=True).validate())
    assert log == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_sweep_spec_validation():
    with pytest.raises(InvalidFieldError):
        SweepSpec("nope", 0.0, 1.0, 3).validate()
    with pytest.raises(InvalidFieldError):
        SweepSpec("avg_power_w", 1.0, 1.0, 3).validate()
    with pytest.raises(InvalidFieldError):
        SweepSpec("avg_power_w", 0.0, 1.0, 1).validate()
    with pytest.raises(InvalidFieldError):
        SweepSpec("avg_power_w", 0.0, 1.0, 3, log_scale=True).validate()
    with pytest.raises(InvalidFieldError):
        SweepSpec("avg_power_w", 0.0, 1.0, 3, baselines=("nope",)).validate()
    assert set(SWEEP_PARAMETERS) == {"cache_bits", "device_cpu_hz", "avg_power_w", "deadline_s"}
    assert SweepSpec("avg_power_w", 0.0, 1.0, MAX_SWEEP_STEPS).validate().steps == MAX_SWEEP_STEPS


def test_power_sweep_rows():
    spec = SweepSpec("avg_power_w", 9.0, 25.0, 5, baselines=("mec_only", "local_only"))
    rows = sweep(build_config(), spec)
    assert [r.value for r in rows] == [9.0, 13.0, 17.0, 21.0, 25.0]
    assert rows[0].solution is None and rows[0].error == "power"
    got = [(r.solution.x1, r.solution.x2, r.solution.x3) for r in rows[1:]]
    assert got == [(3, 0, 7), (3, 4, 3), (3, 7, 0), (3, 7, 0)]
    totals = [r.solution.b_total_hz for r in rows[1:]]
    assert totals == [14.0, 10.0, 7.0, 7.0]  # non-increasing in the budget
    # baselines: all-offload needs 10 W, all-local needs 20 W
    assert rows[0].baselines == {"mec_only": None, "local_only": None}
    assert rows[1].baselines == {"mec_only": 20.0, "local_only": None}
    assert rows[3].baselines == {"mec_only": 20.0, "local_only": 7.0}


def test_cache_sweep_descends_one_task_per_step():
    cfg = build_config(avg_power_w=1000.0)
    rows = sweep(cfg, SweepSpec("cache_bits", 0.0, 10.0, 11))
    assert [r.solution.x1 for r in rows] == list(range(11))
    assert [r.solution.b_total_hz for r in rows] == [float(10 - k) for k in range(11)]


def test_csv_schema_and_tokens():
    spec = SweepSpec("avg_power_w", 9.0, 25.0, 5, baselines=("mec_only",))
    rows = sweep(build_config(), spec)
    text = rows_to_csv(rows, spec.baselines)
    lines = text.splitlines()
    assert lines[0] == "param,value,x1,x2,x3,b_total_hz,b_avg_hz,regime,mec_only_hz"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "avg_power_w" and first[1] == "9.0"
    assert first[2:8] == [INF_TOKEN] * 6 and first[8] == INF_TOKEN
    third = lines[3].split(",")
    assert third[2:5] == ["3", "4", "3"]
    assert third[5] == "10.0" and third[8] == "20.0"
    assert text == rows_to_csv(rows, spec.baselines)  # pure function


def test_csv_reuses_cells_only_for_the_same_solution_and_baselines():
    # consecutive rows share one solution object but differ in baselines,
    # and an equal solution that is another object follows
    s = sweep(build_config(avg_power_w=1000.0), SweepSpec("cache_bits", 0.0, 10.0, 11))[5].solution
    rows = [SweepRow("cache_bits", value, solution, None, {"mec_only": b})
            for value, solution, b in ((1.0, s, 2.0), (2, s, 2.0), (3.0, s, None), (4.0, s, 5),
                                       (5.0, None, 5.0), (6.0, None, None),
                                       (7.0, s._replace(x1=4), None))]
    ok = "5,5,0,5.0,0.5,k1>k2/B3>B2/power-ample"
    assert rows_to_csv(rows, ("mec_only",)).splitlines()[1:] == [
        f"cache_bits,1.0,{ok},2.0",
        f"cache_bits,2.0,{ok},2.0",
        f"cache_bits,3.0,{ok},INF",
        f"cache_bits,4.0,{ok},5.0",
        "cache_bits,5.0,INF,INF,INF,INF,INF,INF,5.0",
        "cache_bits,6.0,INF,INF,INF,INF,INF,INF,INF",
        "cache_bits,7.0,4,5,0,5.0,0.5,k1>k2/B3>B2/power-ample,INF",
    ]


#: (parameter, start, stop): each grid crosses several regimes and, on both
#: shipped configs, reaches infeasible points (or invalid ones, below 0 bits)
EQUIVALENCE_GRIDS = (
    ("cache_bits", -1e9, 4e9),
    ("device_cpu_hz", 5e8, 6e10),
    ("avg_power_w", 0.5, 100.0),
    ("deadline_s", 0.005, 1.0),
)
#: configs drawn per sampler of tests/test_fuzz.py, and steps per grid on them
DRAWN_CONFIGS = 6
DRAWN_STEPS = 30


def drawn_configs(sampler, seed):
    rng = random.Random(seed)
    configs = []
    while len(configs) < DRAWN_CONFIGS:
        config = sampler(rng)
        try:
            configs.append(validate_config(config))
        except InvalidConfigError:
            pass
    return configs


def shipped_specs(steps):
    for param, start, stop in EQUIVALENCE_GRIDS:
        yield SweepSpec(param, start, stop, steps, BASELINE_KINDS)
        yield SweepSpec(param, 1e6 if start <= 0 else start, stop, steps, BASELINE_KINDS,
                        log_scale=True)


def relative_specs(config, steps):
    """Linear and log grids of every parameter around the config's own value."""
    for param, dotted in SWEEP_PARAMETERS.items():
        section, _, name = dotted.partition(".")
        v = getattr(getattr(config, section), name)
        yield SweepSpec(param, -v or -1.0, 4.0 * v or 1.0, steps, BASELINE_KINDS)
        yield SweepSpec(param, (v or 1.0) / 1e3, min((v or 1.0) * 1e3, 1e308), steps,
                        BASELINE_KINDS, log_scale=True)


def overflow_specs(config, steps):
    """A log CPU grid up to 1e200 Hz, where k1 overflows, and a log deadline
    grid down to 1e-300 of the config's own, where k1 or k2 does."""
    cpu_hz, tau = config.device.cpu_hz, config.task.deadline_s
    if cpu_hz < 1e200:
        yield SweepSpec("device_cpu_hz", cpu_hz, 1e200, steps, BASELINE_KINDS, log_scale=True)
    yield SweepSpec("deadline_s", max(tau * 1e-300, 5e-324), tau, steps, BASELINE_KINDS,
                    log_scale=True)


def dense_specs(config, steps):
    """Grids on which many points share a cache capacity or a power bound:
    cache sizes over four tasks' worth of remote input, and budgets within
    three tasks' draw difference |k1 - k2| of the all-cheaper-route draw
    F*min(k1, k2), where the power floor starts to fit while the bound holds
    (or around the config's own budget when that span is empty in floats)."""
    f, i_remote = config.task_count, config.task.input_remote_bits
    yield SweepSpec("cache_bits", 0.0, 4.0 * i_remote or 1.0, steps, BASELINE_KINDS)
    k1, k2 = power_coefficients(config)
    floor, step = f * min(k1, k2), 3.0 * abs(k1 - k2)
    lo, hi = floor - step, floor + step
    if not -math.inf < lo < hi < math.inf:
        lo, hi = config.device.avg_power_w / 2, config.device.avg_power_w * 2
    yield SweepSpec("avg_power_w", lo, hi, steps, BASELINE_KINDS)


def sweep_cases(config_name, request):
    """(config, grid specs) pairs of one config source."""
    if config_name in ("reference", "relaxed_deadline"):
        config = request.getfixturevalue(f"{config_name}_config")
        return [(config, [*shipped_specs(60), *overflow_specs(config, 60),
                          *dense_specs(config, 200)])]
    sampler, seed = {"fuzz": (fuzz_config, 7), "wide": (wide_config, 8)}[config_name]
    return [(config, [*relative_specs(config, DRAWN_STEPS), *overflow_specs(config, DRAWN_STEPS),
                      *dense_specs(config, 4 * DRAWN_STEPS)])
            for config in drawn_configs(sampler, seed)]


def row_kind(error, exc):
    """The error of a row, with an invalid one split by the rule it broke."""
    if error != "invalid_config":
        return error
    reason = exc.violations[0].reason
    return "invalid: k1" if "k1 overflow" in reason else \
        "invalid: k2" if "k2 overflow" in reason else "invalid: field rule"


@pytest.mark.parametrize("config_name", ["reference", "relaxed_deadline", "fuzz", "wide"])
def test_sweep_matches_per_point_public_calls(config_name, request):
    # every row equals what replace_field and the public solvers give on
    # that point, on the shipped configs and on configs drawn by both
    # samplers of tests/test_fuzz.py
    kinds = set()
    shared = Counter()  # rows that reuse the previous row's solution, per parameter
    for config, specs in sweep_cases(config_name, request):
        for spec in specs:
            rows = sweep(config, spec)
            assert [r.value for r in rows] == grid_values(spec)
            shared[spec.parameter] += sum(a.solution is b.solution is not None
                                          for a, b in zip(rows, rows[1:]))
            for row in rows:
                cfg = replace_field(config, SWEEP_PARAMETERS[spec.parameter], row.value)
                exc = None
                try:
                    expected, error = solve_optimal(cfg), None
                except InfeasibleError as e:
                    expected, error = None, e.constraint
                except InvalidConfigError as e:
                    expected, error, exc = None, "invalid_config", e
                assert repr(row.solution) == repr(expected), (spec, row.value)
                assert row.error == error, (spec, row.value)
                kinds.add(row_kind(error, exc))
                for kind in BASELINE_KINDS:
                    try:
                        want = baseline_policy(kind, cfg).b_total_hz
                    except Edge3cError:
                        want = None
                    assert repr(row.baselines[kind]) == repr(want), (spec, row.value, kind)
    # a k2 that overflows before k1 needs a draw from the wide sampler
    want = {None, "power", "latency", "invalid: field rule", "invalid: k1"}
    assert want | ({"invalid: k2"} if config_name == "wide" else set()) <= kinds, kinds
    # the dense grids reach solutions a cache or power sweep solved once for many points
    assert shared["cache_bits"] > 0 and shared["avg_power_w"] > 0, shared
    # and a CPU sweep where the optimum only caches and offloads, because B3
    # does not depend on the device CPU
    assert shared["device_cpu_hz"] > 0, shared


@pytest.mark.parametrize("param", sorted(SWEEP_PARAMETERS))
def test_sweep_costs_only_what_its_parameter_changes(param, reference_config, monkeypatch):
    # no point builds a config or checks its power draws through the
    # validator, a cache or power sweep costs its routes once, and every
    # sweep decides, and counts the baselines, once per distinct facts
    # tuple, not once per point
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("edge3c.tradeoff.route_costs", counting("route_costs", route_costs))
    for name in ("_decide", "baseline_counts"):
        monkeypatch.setattr(f"edge3c.tradeoff.{name}",
                            counting(name, getattr(edge3c.tradeoff, name)))
    for name in ("replace_field", "derived_violation"):
        fn = getattr(edge3c.model, name)
        monkeypatch.setattr(f"edge3c.model.{name}", counting(name, fn))
        monkeypatch.setattr(f"edge3c.tradeoff.{name}", counting(name, fn), raising=False)
    _, start, stop = next(g for g in EQUIVALENCE_GRIDS if g[0] == param)
    rows = sweep(reference_config, SweepSpec(param, start, stop, 400, BASELINE_KINDS))
    assert len(rows) == 400
    assert calls["route_costs"] == (1 if param in ("cache_bits", "avg_power_w") else 0)
    assert calls["replace_field"] == 0
    assert calls["derived_violation"] == 1  # validating the base config
    facts = {}  # distinct facts of the valid points -> whether the optimum is feasible
    for row in rows:
        if row.error != "invalid_config":
            cfg = replace_field(reference_config, SWEEP_PARAMETERS[param], row.value)
            facts[_facts(*_scalars(cfg), route_costs(cfg))] = row.error is None
    assert 1 < len(facts) < sum(r.error != "invalid_config" for r in rows)
    assert calls["_decide"] == len(facts)
    assert calls["baseline_counts"] == len(BASELINE_KINDS) * sum(facts.values())
    shared = [i for i in range(1, len(rows))
              if rows[i].solution is rows[i - 1].solution is not None]
    # a row that shares its solution with the row before still owns its baselines dict
    before = [dict(r.baselines) for r in rows]
    i = shared[0] if shared else len(rows) // 2
    rows[i].baselines["mec_only"] = "edited"
    assert [r.baselines for r in rows[:i] + rows[i + 1:]] == before[:i] + before[i + 1:]


def test_detect_breakpoints_on_power_sweep():
    rows = sweep(build_config(), SweepSpec("avg_power_w", 9.0, 25.0, 5))
    # INF -> power-limited -> cache-then-power -> power-ample
    assert detect_breakpoints(rows) == [13.0, 17.0, 21.0]


def test_detect_breakpoints_input_rules():
    rows = sweep(build_config(), SweepSpec("avg_power_w", 9.0, 25.0, 5))
    with pytest.raises(InvalidFieldError):
        detect_breakpoints(rows[:2])
    mixed = rows[:2] + [SweepRow("cache_bits", 99.0, None, "power", {})]
    with pytest.raises(InvalidFieldError):
        detect_breakpoints(mixed)
    with pytest.raises(InvalidFieldError):
        detect_breakpoints(list(reversed(rows)))
