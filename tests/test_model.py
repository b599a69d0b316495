import hashlib
import json
import math
import pickle

import pytest

from edge3c import (
    REGIMES,
    ChannelParams,
    ConfigParseError,
    DegenerateChannelError,
    InvalidConfigError,
    InvalidFieldError,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    downlink_spectral_efficiency,
    enumerate_optimal,
    load_config,
    power_coefficients,
    replace_field,
    route_costs,
    snr_db_to_spectral_efficiency,
    solve_optimal,
    spectral_efficiency,
    sweep,
    turning_points,
    uplink_spectral_efficiency,
)
from conftest import CONFIG_DIR, build_config

# log2(1 + 10^(db/10)) at 50-digit precision, rounded to float64
SE_UP_10_98_DB = 3.7582404602644949
SE_DOWN_28_1573_DB = 9.3558560935124566

# power draws of the cache-sweep reference (tau = 0.5 s, f_D = 4 GHz, F = 300)
K1_RELAXED = 0.018133333333333334
K2_RELAXED = 0.002463721881863732


def test_spectral_efficiency_formula():
    # log2(1 + 3*2^2/4) = log2(4) = 2
    assert spectral_efficiency(3.0, 2.0, 4.0) == 2.0
    assert spectral_efficiency(0.0, 1.0, 1.0) == 0.0


def test_spectral_efficiency_past_float_range():
    # psd * gain^2 = 1e400 overflows; the efficiency is 400 * log2(10)
    assert spectral_efficiency(1e200, 1e100, 1.0) == 1328.771237954945
    # psd * gain^2 = 1e-360 underflows to 0, yet the SNR is 1e-40, and
    # log2(1 + 1e-40) is about 1.4427e-40
    assert spectral_efficiency(1e-300, 1e-30, 1e-320) == pytest.approx(
        1e-40 / math.log(2.0), rel=1e-12)


def test_spectral_efficiency_rejects_bad_inputs():
    with pytest.raises(InvalidFieldError):
        spectral_efficiency(-1.0, 1.0, 1.0)
    with pytest.raises(InvalidFieldError):
        spectral_efficiency(1.0, 0.0, 1.0)
    with pytest.raises(InvalidFieldError):
        spectral_efficiency(1.0, 1.0, 0.0)
    with pytest.raises(InvalidFieldError):
        spectral_efficiency(math.inf, 1.0, 1.0)


def test_snr_db_conversion_golden():
    assert snr_db_to_spectral_efficiency(0.0) == 1.0
    assert math.isclose(snr_db_to_spectral_efficiency(10.98), SE_UP_10_98_DB, rel_tol=1e-12)
    assert math.isclose(snr_db_to_spectral_efficiency(28.1573), SE_DOWN_28_1573_DB, rel_tol=1e-12)


def test_snr_db_conversion_past_float_range():
    # 10 ** (dB / 10) overflows above about 3083 dB; the result stays finite
    # and continuous across that edge
    assert snr_db_to_spectral_efficiency(4000.0) == 400.0 * math.log2(10.0)
    below, above = snr_db_to_spectral_efficiency(3082.0), snr_db_to_spectral_efficiency(3084.0)
    assert math.isclose(above - below, 0.2 * math.log2(10.0), rel_tol=1e-9)
    assert math.isfinite(snr_db_to_spectral_efficiency(1.7e308))


def test_db_override_beats_psd_triple():
    cfg = build_config(uplink_psd=123.0, downlink_psd=456.0, noise_psd=7.0)
    assert uplink_spectral_efficiency(cfg) == 1.0  # 0 dB override
    assert downlink_spectral_efficiency(cfg) == 1.0
    cfg = build_config(snr_up_db=None, snr_down_db=None,
                       uplink_psd=3.0, downlink_psd=3.0, gain=2.0, noise_psd=4.0)
    assert uplink_spectral_efficiency(cfg) == 2.0
    assert downlink_spectral_efficiency(cfg) == 2.0


def test_power_coefficients_constructed():
    # mu * f_D^2 * w * I_tot / (tau F) = 5*4*1*2/20 and P_U * I_D/(F tau SE) = 20/20
    assert power_coefficients(build_config()) == (2.0, 1.0)


def test_power_coefficients_reference(relaxed_deadline_config):
    k1, k2 = power_coefficients(relaxed_deadline_config)
    assert math.isclose(k1, K1_RELAXED, rel_tol=1e-12)
    assert math.isclose(k2, K2_RELAXED, rel_tol=1e-12)


def test_k2_zero_without_local_input():
    cfg = build_config(input_local_bits=0.0)
    assert power_coefficients(cfg)[1] == 0.0


def test_degenerate_uplink_with_local_input():
    # no dB override and zero psd: SE_up = 0 while bits must be uploaded.
    # Unreachable through a validated config, so skip validation to exercise
    # the guard.
    cfg = build_config(snr_up_db=None, uplink_psd=0.0, validate=False)
    with pytest.raises(DegenerateChannelError):
        power_coefficients(cfg)
    # a positive psd whose SNR underflows to 0 is rejected by validation
    with pytest.raises(InvalidConfigError) as info:
        build_config(snr_up_db=None, uplink_psd=1e-300, gain=1e-150)
    assert [v.field for v in info.value.violations] == ["device.uplink_psd"]


@pytest.mark.parametrize("overrides, field", [
    (dict(cpu_hz=1e200), "device.cpu_hz"),           # k1 = mu * f_D^2 * ... overflows
    (dict(snr_up_db=-3100.0), "channel.snr_up_db"),  # SE_up is subnormal, so k2 overflows
    # F * tau * SE_up underflows to 0 in k2's denominator
    (dict(switched_capacitance=0.0, deadline_s=1e-310, snr_up_db=-200.0), "channel.snr_up_db"),
])
def test_power_draws_must_be_finite(overrides, field):
    # with an infinite draw the closed form's power bound (Pbar - F*k2) /
    # (k1 - k2) can be NaN, and a mix with no task on that route inf * 0
    with pytest.raises(InvalidConfigError) as info:
        build_config(**overrides)
    assert [v.field for v in info.value.violations] == [field]
    assert math.isinf(max(power_coefficients(build_config(**overrides, validate=False))))


def test_load_reference_config_units(reference_config):
    cfg = reference_config
    assert cfg.task_count == 300
    assert cfg.task.input_remote_bits == 1.6e7
    assert cfg.device.cache_bits == 3.2e9
    assert cfg.device.cpu_hz == 4e9
    assert cfg.device.uplink_psd == 0.25 / 180e3
    assert cfg.server.downlink_psd == 5.0 / 180e3
    assert cfg.task.deadline_s == 0.143


def test_config_roundtrip(reference_config):
    again = config_from_dict(config_to_dict(reference_config))
    assert again == reference_config


def test_config_to_dict_leaves_out_absent_overrides():
    raw = config_to_dict(build_config(snr_up_db=None, snr_down_db=4.0))
    assert list(raw) == ["task_count", "task", "device", "server", "channel"]
    assert raw["channel"] == {"gain": 1.0, "noise_psd": 1.0, "snr_down_db": 4.0}


#: (section or None for the top level, key, value) edits of a valid raw
#: config, where a value of None is JSON null, each with the violation it
#: must report, or None where the edited dict must load like the one without
#: the key
RAW_CONFIG_EDITS = [
    (None, "task_count", None, ("task_count", "missing")),
    (None, "task_count", 3.0, ("task_count", "must be an integer")),
    (None, "task_count", "3", ("task_count", "must be an integer")),
    (None, "task_count", True, ("task_count", "must be an integer")),
    (None, "device", None, ("device", "missing section")),
    (None, "server", [4.0, 1.0], ("server", "must be an object")),
    ("channel", "snr_up_db", None, None),
]


def test_unknown_and_missing_fields_collected():
    raw = config_to_dict(build_config())
    raw["bogus"] = 1
    raw["task"]["bogus2"] = 2
    del raw["device"]["cache_bits"]
    raw["device"]["cpu_hz"] = -1
    with pytest.raises(InvalidConfigError) as exc:
        config_from_dict(raw)
    fields = {v.field for v in exc.value.violations}
    assert {"bogus", "task.bogus2", "device.cache_bits", "device.cpu_hz"} <= fields
    for section, key, value, violation in RAW_CONFIG_EDITS:
        raw = config_to_dict(build_config())
        target = raw if section is None else raw[section]
        target[key] = value
        if violation is None:
            loaded = config_from_dict(raw)
            del target[key]
            assert loaded == config_from_dict(raw), (section, key)
            continue
        with pytest.raises(InvalidConfigError) as exc:
            config_from_dict(raw)
        assert violation in [(v.field, v.reason) for v in exc.value.violations], (key, value)


def test_validation_signs():
    with pytest.raises(InvalidConfigError):
        build_config(deadline_s=0.0)
    with pytest.raises(InvalidConfigError):
        build_config(task_count=0)
    with pytest.raises(InvalidConfigError):
        build_config(input_remote_bits=-1.0)
    with pytest.raises(InvalidConfigError):
        build_config(avg_power_w=0.0)
    with pytest.raises(InvalidConfigError):
        build_config(cache_bits=-1.0)
    with pytest.raises(InvalidConfigError):
        build_config(cycles_per_bit=-1.0)
    # boundary values that are legal
    build_config(cache_bits=0.0, output_bits=0.0, input_local_bits=0.0)


def test_parse_errors_are_distinct(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigParseError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigParseError):
        load_config(array)


def test_shipped_configs_all_load():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(path)
        assert cfg.task_count >= 1
        # shipped files must also survive a json round trip unchanged
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_replace_field():
    cfg = build_config()
    out = replace_field(cfg, "device.cpu_hz", 7.0)
    assert out.device.cpu_hz == 7.0
    assert out.task == cfg.task
    out = replace_field(cfg, "task_count", 4)
    assert out.task_count == 4
    assert cfg.device.cpu_hz == 2.0  # original untouched


def test_config_records_keep_their_module_defaults_and_repr():
    cfg = load_config(CONFIG_DIR / "reference.json")
    for record in (cfg, *cfg[1:]):
        assert type(record).__module__ == "edge3c.model"
    assert ChannelParams._field_defaults == {"snr_up_db": None, "snr_down_db": None}
    assert ChannelParams(1.0, 2.0) == (1.0, 2.0, None, None)
    # the repr of the reference config, as the records printed it when they
    # were typing.NamedTuple classes
    assert hashlib.sha256(repr(cfg).encode()).hexdigest() == (
        "49bce21a5993b7cce51e587eb1b6e88bd1a6319ee9dbbe24bf12b779c5e6f970")


@pytest.fixture(scope="module")
def records():
    """One instance of each of the package's record types, by type name."""
    cfg = build_config()
    spec = SweepSpec("cache_bits", 0.0, 7.0, 3)
    return {type(r).__name__: r for r in (
        cfg.task, cfg.device, cfg.server, cfg.channel, cfg, route_costs(cfg), REGIMES[0],
        solve_optimal(cfg), enumerate_optimal(cfg), turning_points(cfg), spec, sweep(cfg, spec)[0])}


@pytest.mark.parametrize("name", [
    "TaskSpec", "DeviceParams", "ServerParams", "ChannelParams", "SystemConfig", "RouteCosts",
    "Regime", "PolicySolution", "OracleSolution", "TurningPoints", "SweepSpec", "SweepRow"])
def test_records_are_immutable(records, name):
    record = records[name]
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, "changed")
    for copy in (record._replace(**{field: "changed"}), replace_field(record, field, "changed")):
        assert getattr(copy, field) == "changed"
        assert copy[1:] == record[1:]
    assert getattr(record, field) is before
    # a record is a tuple of its fields, and compares equal to one
    assert record == tuple(record)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
