import json
import os
import subprocess
import sys

import pytest

from edge3c import REGIME_LABELS, config_to_dict
from edge3c.cli import main
from conftest import CONFIG_DIR, build_config

REFCFG = str(CONFIG_DIR / "reference.json")


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
    assert out["regime"] in REGIME_LABELS
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
    assert main(["regions", "--config", REFCFG]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "k1>k2/B3>B2/power-ample"
    assert out["k1_gt_k2"] is True and out["b3_gt_b2"] is True
    assert out["binding"] == ["cache"]
    assert out["cache_capacity_tasks"] == 200
    assert out["task_count"] == 300


def test_turning_points_shape(capsys):
    assert main(["turning-points", "--config", REFCFG, "--human"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"f1_hz", "f2_hz", "f3_hz", "absent", "human"}
    assert out["absent"] == {}
    assert out["human"]["f2"].endswith("GHz")


#: reference.json overrides that put a turning point at a float edge, and the
#: reason expected under "absent" for each point left out
FLOAT_EDGE_CASES = {
    # a subnormal switched capacitance puts f2 and f3 past float range
    "tiny_mu": ({"device": {"switched_capacitance": 1e-320}},
                {"f2": "float range", "f3": "float range"}),
    # f1's se_down * (sqrt(a1) + sqrt(a2))^2 underflows to 0
    "f1_underflow": ({"task": {"input_local_bits": 1e-200, "output_bits": 0},
                      "channel": {"snr_down_db": -1500}},
                     {"f1": "exceeds the offload bandwidth"}),
    # mu * w * I_total underflows to 0
    "f2_underflow": ({"device": {"switched_capacitance": 1e-320},
                      "task": {"cycles_per_bit": 1e-10}},
                     {"f2": "float range", "f3": "float range"}),
    # the two terms of f3's radicand overflow with opposite signs
    "f3_nan_radicand": ({"device": {"switched_capacitance": 1e-310, "avg_power_w": 1e-3},
                         "task": {"cycles_per_bit": 1e-10}},
                        {"f2": "float range", "f3": "offload-only draw"}),
    # w * I_total / slack underflows to 0
    "f1_below_range": ({"task": {"cycles_per_bit": 1e-320, "deadline_s": 1e20}},
                       {"f1": "below float range", "f2": "float range", "f3": "float range"}),
    # tau * Pbar underflows to 0
    "f2_below_range": ({"task": {"deadline_s": 1e-200}, "device": {"avg_power_w": 1e-200}},
                       {"f1": "offload route infeasible", "f2": "below float range",
                        "f3": "offload-only draw"}),
    # with k2 = 0, both terms of f3's radicand underflow to 0
    "f3_below_range": ({"task": {"input_local_bits": 0, "deadline_s": 1e-200},
                        "device": {"avg_power_w": 1e-200}},
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


@pytest.mark.parametrize("argv", [
    ["solve", "--config", REFCFG],
    ["sweep", "--config", REFCFG, "--param", "cache_bits", "--start", "1", "--stop", "2",
     "--steps", "2"],
    ["verify", "--trials", "3"],
], ids=lambda argv: argv[0])
def test_exit_2_on_unwritable_output(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert main([*argv, "--output", str(target)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "output_unwritable"
    assert str(target) in out["detail"]
    assert not target.parent.exists()


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


def modules_loaded_by(*commands, threads=None) -> set[str]:
    """The modules a fresh interpreter loads to import edge3c.cli and run
    each CLI command through its main, with EDGE3C_THREADS set to
    ``threads`` or unset."""
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
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_only_verify_loads_numpy():
    assert "numpy" not in modules_loaded_by(
        ("solve", "--config", REFCFG),
        ("regions", "--config", REFCFG, "--human"),
        ("turning-points", "--config", REFCFG),
        ("sweep", "--config", REFCFG, "--param", "device_cpu_hz", "--start", "2 GHz",
         "--stop", "8 GHz", "--steps", "5", "--baselines", "mec_only,local_only,local_no_cache"))
    assert "numpy" in modules_loaded_by(("verify", "--trials", "2"))


def test_import_loads_neither_dataclasses_nor_the_pool():
    assert not modules_loaded_by() & {"dataclasses", "inspect", "concurrent.futures", "logging"}
    # a run with more than one worker still gets its pool
    assert "concurrent.futures" in modules_loaded_by(("verify", "--trials", "2"), threads="2")


def test_bad_thread_env_rejected():
    res = run_cli("verify", "--trials", "2", "--seed", "0",
                  env_extra={"EDGE3C_THREADS": "zero"})
    assert res.returncode == 1
    assert json.loads(res.stdout)["error"] == "invalid_field"


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
])
def test_trial_and_step_bounds_checked_before_any_work(monkeypatch, capsys, argv, error):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr("edge3c.sampling.sample_config", no_work)
    monkeypatch.setattr("edge3c.tradeoff.route_costs", no_work)
    assert main(list(argv)) == 1
    assert strict_json(capsys.readouterr().out)["error"] == error


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


@pytest.mark.parametrize("argv", [
    ["solve"], ["regions"], ["turning-points"],
    ["sweep", "--param", "cache_bits", "--start", "1", "--stop", "2", "--steps", "2"],
], ids=lambda argv: argv[0])
def test_task_count_beyond_float_range_rejected(argv, tmp_path, capsys):
    # the power draws divide by F as a float, and float(10**400) overflows
    raw = json.loads((CONFIG_DIR / "reference.json").read_text())
    raw["task_count"] = 10**400
    path = tmp_path / "huge_f.json"
    path.write_text(json.dumps(raw))
    assert main([*argv, "--config", str(path)]) == 1
    out = strict_json(capsys.readouterr().out)
    assert out["error"] == "invalid_config"
    assert out["violations"] == ["task_count: must be within float range"]
