import json
import os
import subprocess
import sys
import time

import pytest

from edge3c import REGIMES, InvalidConfigError, config_to_dict, replace_field, validate_config
from edge3c.cli import main
from conftest import CONFIG_DIR, REPO_ROOT, build_config

REFCFG = str(CONFIG_DIR / "reference.json")
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def config_commands(config) -> list[tuple[str, ...]]:
    """solve, regions, turning-points and a sweep with every baseline, on one config."""
    return [("solve", "--config", str(config)),
            ("regions", "--config", str(config), "--human"),
            ("turning-points", "--config", str(config), "--human"),
            ("sweep", "--config", str(config), "--param", "device_cpu_hz", "--start", "2 GHz",
             "--stop", "8 GHz", "--steps", "5", "--baselines",
             "mec_only,local_only,local_no_cache")]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("EDGE3C_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "edge3c.cli", *argv],
                         capture_output=True, env=env)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def test_solve_json_shape(capsys):
    assert main(["solve", "--config", REFCFG]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [out["x1"], out["x2"], out["x3"]] == [200, 100, 0]
    assert out["regime"] in {r.label for r in REGIMES}
    assert list(out) == ["x1", "x2", "x3", "b_total_hz", "b_avg_hz",
                         "regime", "binding", "routes"]
    assert out["routes"]["b1_hz"] == 0.0
    assert out["routes"]["route3_feasible"] is True


def test_solve_human_annotations(capsys):
    assert main(["solve", "--config", REFCFG, "--human"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["human"]["b_total"].endswith("GHz")
    # annotations only; SI fields unchanged
    assert isinstance(out["b_total_hz"], float)


def test_solve_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(["solve", "--config", REFCFG, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["x1"] == 200


def test_regions_shape(capsys):
    assert main(["regions", "--config", REFCFG, "--human"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "k1>k2/B3>B2/power-ample"
    assert out["k1_gt_k2"] is True and out["b3_gt_b2"] is True
    assert out["binding"] == ["cache"]
    assert out["cache_capacity_tasks"] == 200
    assert out["task_count"] == 300
    assert out["human"] == {"b2": "17.02 MHz", "b3": "18.24 MHz"}


def test_turning_points_shape(capsys):
    assert main(["turning-points", "--config", REFCFG, "--human"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"f1_hz", "f2_hz", "f3_hz", "absent", "human"}
    assert out["absent"] == {}
    assert out["human"]["f2"].endswith("GHz")


#: reference.json overrides that put a turning point at a float edge, and the
#: reason expected under "absent" for each point left out; every other point
#: is printed, and positive. Each float-range reason is true of the speed
#: itself, in exact arithmetic.
FLOAT_EDGE_CASES = {
    # a subnormal switched capacitance puts f2's float radicand past float
    # range, but f2 and f3 are about 1.7e156 and 2.1e156 Hz
    "tiny_mu": ({"device": {"switched_capacitance": 1e-320}}, {}),
    # f1's se_down * (sqrt(a1) + sqrt(a2))^2 underflows to 0
    "f1_underflow": ({"task": {"input_local_bits": 1e-200, "output_bits": 0},
                      "channel": {"snr_down_db": -1500}},
                     {"f1": "exceeds the offload bandwidth"}),
    # mu * w * I_total underflows to 0, yet f2 is about 5.4e161 Hz
    "f2_underflow": ({"device": {"switched_capacitance": 1e-320},
                      "task": {"cycles_per_bit": 1e-10}}, {}),
    # the two terms of f3's float radicand overflow with opposite signs; the
    # exact one is negative
    "f3_nan_radicand": ({"device": {"switched_capacitance": 1e-310, "avg_power_w": 1e-3},
                         "task": {"cycles_per_bit": 1e-10}},
                        {"f3": "offload-only draw"}),
    # w * I_total / slack is about 1.7e-333 Hz; f2 and f3 are about 4.5e180
    # and 5.6e180 Hz
    "f1_below_range": ({"task": {"cycles_per_bit": 1e-320, "deadline_s": 1e20}},
                       {"f1": "below float range"}),
    # f2 and f3 are about 1.7e309 and 2.1e309 Hz
    "f2_f3_beyond_range": ({"device": {"switched_capacitance": 1e-320},
                            "task": {"cycles_per_bit": 1e-305}},
                           {"f2": "beyond float range", "f3": "beyond float range"}),
    # f2 is about 2.4e-404 Hz; a tiny cpu speed keeps k1 finite
    "f2_below_range": ({"task": {"deadline_s": 1e-300, "cycles_per_bit": 1e100},
                        "device": {"avg_power_w": 1e-300, "switched_capacitance": 1e100,
                                   "cpu_hz": 1e-100}},
                       {"f1": "offload route infeasible", "f2": "below float range",
                        "f3": "offload-only draw"}),
    # with k2 = 0, f3 is about 3.1e-404 Hz
    "f3_below_range": ({"task": {"input_local_bits": 0, "deadline_s": 1e-300,
                                 "cycles_per_bit": 1e100},
                        "device": {"avg_power_w": 1e-300, "switched_capacitance": 1e100,
                                   "cpu_hz": 1e-100}},
                       {"f1": "offload route infeasible", "f2": "below float range",
                        "f3": "below float range"}),
}


@pytest.mark.parametrize("overrides, reasons", FLOAT_EDGE_CASES.values(), ids=FLOAT_EDGE_CASES)
def test_turning_points_beyond_float_range_print_strict_json(overrides, reasons, tmp_path, capsys):
    raw = json.loads((CONFIG_DIR / "reference.json").read_text())
    for section, fields in overrides.items():
        raw[section].update(fields)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(raw))
    assert main(["turning-points", "--config", str(path), "--human"]) == 0
    out = strict_json(capsys.readouterr().out)
    assert set(out["absent"]) == set(reasons)
    for name in ("f1", "f2", "f3"):
        if name in reasons:
            assert out[f"{name}_hz"] is None and out["human"][name] is None
            assert reasons[name] in out["absent"][name]
        else:
            assert out[f"{name}_hz"] > 0


def test_sweep_csv(capsys):
    assert main(["sweep", "--config", REFCFG, "--param", "device_cpu_hz",
                 "--start", "2 GHz", "--stop", "8 GHz", "--steps", "4",
                 "--baselines", "mec_only"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "param,value,x1,x2,x3,b_total_hz,b_avg_hz,regime,mec_only_hz"
    assert len(lines) == 5
    assert lines[1].startswith("device_cpu_hz,2000000000.0,")


def test_verify_small(capsys):
    assert main(["verify", "--trials", "18", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["trials"] == 18 and out["seed"] == 3
    assert sum(out["regimes"].values()) == 18


def test_exit_2_on_unreadable_or_unparseable(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "config_parse"
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["solve", "--config", str(bad)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "config_parse"


#: config files that fail to decode, each in its own way, and one over load_config's 1 MiB cap
MALFORMED_CONFIGS = {
    "not-utf8": b'{"task_count": "\xff"}',
    "deep-nesting": b"[" * 100_000,
    "digit-limit": b'{"task_count": ' + b"9" * 5000 + b"}",
    "over-the-cap": (CONFIG_DIR / "reference.json").read_bytes() + b" " * 2**20,
}


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_exits_2_without_traceback(name, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_bytes(MALFORMED_CONFIGS[name])
    assert main(["solve", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "config_parse"
    assert err == ""


@pytest.mark.parametrize("where", ["start", "config"])
def test_long_whitespace_quantity_fails_fast(where, tmp_path, capsys):
    # "1", 100,000 spaces and "!": a unit pattern whose whitespace runs can
    # touch backtracks over it in cubic time
    text = "1" + " " * 100_000 + "!"
    config, start = REFCFG, "1 MB"
    if where == "config":
        raw = json.loads((CONFIG_DIR / "reference.json").read_text())
        raw["device"]["cache_bits"] = text
        config = tmp_path / "spaces.json"
        config.write_text(json.dumps(raw))
    else:
        start = text
    begin = time.perf_counter()
    code = main(["sweep", "--config", str(config), "--param", "cache_bits", "--start", start,
                 "--stop", "2 MB", "--steps", "2"])
    elapsed = time.perf_counter() - begin
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and elapsed < 0.1, elapsed
    assert out["error"] == ("invalid_field" if where == "start" else "invalid_config")


@pytest.mark.parametrize("argv", [
    ["solve", "--config", REFCFG],
    ["sweep", "--config", REFCFG, "--param", "cache_bits", "--start", "1", "--stop", "2",
     "--steps", "2"],
    ["verify", "--trials", "100000"],
], ids=lambda argv: argv[0])
def test_exit_2_on_unwritable_output(argv, tmp_path, capsys):
    # the path is checked before the command starts: 100,000 verify trials
    # would take tens of seconds
    target = tmp_path / "missing" / "out.txt"
    start = time.perf_counter()
    assert main([*argv, "--output", str(target)]) == 2
    assert time.perf_counter() - start < 3.0
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "output_unwritable"
    assert str(target) in out["detail"]
    assert not target.parent.exists()


def test_failed_command_leaves_output_path_as_it_was(tmp_path, capsys):
    infeasible = write_config(tmp_path, build_config(avg_power_w=9.0))
    existing = tmp_path / "existing.json"
    existing.write_text("kept")
    fresh = tmp_path / "fresh.json"
    for target in (existing, fresh):
        assert main(["solve", "--config", infeasible, "--output", str(target)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "infeasible"
    assert existing.read_text() == "kept"
    assert not fresh.exists()


def test_exit_1_on_invalid_values(tmp_path, capsys):
    cfg = build_config(validate=False, deadline_s=-1.0)
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "invalid_config"
    assert any("deadline" in v for v in out["violations"])


def test_exit_1_on_infeasible(tmp_path, capsys):
    path = write_config(tmp_path, build_config(avg_power_w=9.0))
    assert main(["solve", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "infeasible"
    assert "power" in out["detail"]


def test_stdout_byte_determinism_subprocess():
    a = run_cli("solve", "--config", REFCFG)
    b = run_cli("solve", "--config", REFCFG)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_thread_env_does_not_change_output():
    args = ("verify", "--trials", "18", "--seed", "0")
    serial = run_cli(*args, env_extra={"EDGE3C_THREADS": "1"})
    threaded = run_cli(*args, env_extra={"EDGE3C_THREADS": "4"})
    assert serial.returncode == threaded.returncode == 0
    assert serial.stdout == threaded.stdout


def modules_loaded_by(*commands, threads=None, clean=False) -> set[str]:
    """The modules a fresh interpreter loads to import edge3c.cli and run
    each CLI command through its main, with EDGE3C_THREADS set to
    ``threads`` or unset. A ``clean`` interpreter runs with ``-S``, so that
    no site-packages hook loads a module first."""
    script = ("import contextlib, io, sys\n"
              "before = set(sys.modules)\n"
              "from edge3c.cli import main\n"
              f"for argv in {[list(c) for c in commands]!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(argv)\n"
              "    if code != 0:\n"
              "        sys.exit(f'{argv} exited with {code}')\n"
              "print(*sorted(set(sys.modules) - before))\n")
    env = dict(os.environ)
    env.pop("EDGE3C_THREADS", None)
    if threads is not None:
        env["EDGE3C_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    flags = ["-S"] if clean else []
    res = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_no_command_loads_numpy():
    assert "numpy" not in modules_loaded_by(*config_commands(REFCFG),
                                            ("verify", "--trials", "600", "--seed", "5"))


def test_import_loads_neither_dataclasses_nor_the_pool():
    assert not modules_loaded_by() & {"dataclasses", "inspect", "concurrent.futures", "logging"}
    # nor does a run with more than one worker: verify maps in the calling thread
    assert "concurrent.futures" not in modules_loaded_by(("verify", "--trials", "2"), threads="2")


def test_loading_a_config_needs_neither_pathlib_nor_the_warning_machinery():
    # linecache and tokenize come with the first warning shown, fractions
    # with f3's exact radicand, which only a config at the float edges takes,
    # and random with verify's sampler
    commands = [c for config in SHIPPED_CONFIGS for c in config_commands(config)]
    assert not modules_loaded_by(*commands, clean=True) & {"pathlib", "linecache", "tokenize",
                                                           "fractions", "random"}


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_configs_run_with_nothing_on_stderr(config):
    for argv in config_commands(config):
        res = run_cli(*argv)
        assert (res.returncode, res.stderr) == (0, b""), argv


def strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, error", [
    (("verify", "--trials", "-3"), "invalid_field"),
    (("verify", "--trials", "0"), "invalid_field"),
    (("verify", "--trials", "100001"), "too_large"),
    (("sweep", "--config", REFCFG, "--param", "device_cpu_hz", "--start", "2 GHz",
      "--stop", "8 GHz", "--steps", "100001"), "too_large"),
    (("verify", "--seed", "-1"), "invalid_field"),
])
def test_trial_and_step_bounds_checked_before_any_work(monkeypatch, capsys, argv, error):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr("edge3c.sampling.sample_config", no_work)
    monkeypatch.setattr("edge3c.tradeoff.route_costs", no_work)
    assert main(list(argv)) == 1
    assert strict_json(capsys.readouterr().out)["error"] == error


def test_sweep_end_past_float_range_exits_1(capsys):
    # "1e400" parses to inf
    assert main(["sweep", "--config", REFCFG, "--param", "cache_bits", "--start", "1e400",
                 "--stop", "2", "--steps", "3"]) == 1
    assert strict_json(capsys.readouterr().out) == {"error": "invalid_field",
                                                    "detail": "start/stop: must be finite"}


def test_huge_snr_solves_without_traceback(tmp_path):
    raw = json.loads((CONFIG_DIR / "reference.json").read_text())
    raw["channel"]["snr_up_db"] = 4000
    path = tmp_path / "huge_snr.json"
    path.write_text(json.dumps(raw))
    res = run_cli("solve", "--config", str(path))
    assert b"Traceback" not in res.stderr
    assert res.returncode == 0
    assert strict_json(res.stdout)["routes"]["a1_hz_s"] > 0


def test_dead_downlink_prints_valid_json(tmp_path, capsys):
    # a -4000 dB downlink has spectral efficiency 0, so the output transfer
    # cost a2 is infinite; a cache holding every task still solves
    raw = json.loads((CONFIG_DIR / "reference.json").read_text())
    raw["channel"]["snr_down_db"] = -4000
    raw["device"]["cache_bits"] = "1 GB"
    path = tmp_path / "dead_downlink.json"
    path.write_text(json.dumps(raw))
    for command in ("solve", "regions"):
        assert main([command, "--config", str(path)]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["routes"]["a2_hz_s"] is None
        assert out["routes"]["route3_feasible"] is False
    # with neither transfer route costed, --human has no bandwidth to format
    assert main(["regions", "--config", str(path), "--human"]) == 0
    assert strict_json(capsys.readouterr().out)["human"] == {"b2": None, "b3": None}


FLOAT_RANGE_COMMANDS = (
    ["solve"], ["regions"], ["turning-points"],
    ["sweep", "--param", "cache_bits", "--start", "1", "--stop", "2", "--steps", "2"])


FLOAT_RANGE_CASES = {
    # a task_count case is named by its command alone
    argv[0] if field == "task_count" else f"{argv[0]}-{field}": (argv, field)
    for field in ("task_count", "device.cache_bits", "channel.snr_up_db")
    for argv in FLOAT_RANGE_COMMANDS}


@pytest.mark.parametrize("argv, field", FLOAT_RANGE_CASES.values(), ids=FLOAT_RANGE_CASES)
def test_task_count_beyond_float_range_rejected(argv, field, tmp_path, capsys):
    # the power draws divide by F as a float, and float(10**400) overflows;
    # a quantity field is parsed with float() as well
    raw = json.loads((CONFIG_DIR / "reference.json").read_text())
    section, _, name = field.rpartition(".")
    (raw[section] if section else raw)[name] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    assert main([*argv, "--config", str(path)]) == 1
    out = strict_json(capsys.readouterr().out)
    assert out["error"] == "invalid_config"
    assert out["violations"] == [f"{field}: must be within float range"]
    # a config built in code fails validation the same way
    with pytest.raises(InvalidConfigError) as info:
        validate_config(replace_field(build_config(), field, 10**400))
    assert [str(v) for v in info.value.violations] == out["violations"]
