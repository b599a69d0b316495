"""Seeded inputs for the three workloads.

Every operation the benchmark runs is one ``edge3c`` CLI invocation. The
inputs are made here from the workload seed alone: config files perturbed
from the two shipped configs, sweep grids and verify seeds. Operations come
in cycles; cycle ``k`` of seed ``s`` draws from its own RNG, so the same
(seed, cycle) always names the same operations and files, however many
cycles a run gets through.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BASE_CONFIGS = ("configs/reference.json", "configs/relaxed_deadline.json")

WHY = {
    "oneshot": "start-up, the numpy import, unit parsing, validation and JSON "
               "dominate each call; the sweep path and the oracle are nearly idle",
    "sweep": "the per-point path through tradeoff, policy, bandwidth and model, "
             "with and without the three baselines; the oracle and sampler are idle",
    "verify": "the lattice oracle, the sampler and the thread pool: verify with "
              "EDGE3C_THREADS unset and set to 2 on the same seeds",
}

ONESHOT_COMMANDS = (("solve",), ("solve", "--human"), ("regions", "--human"),
                    ("turning-points", "--human"))
#: variants per oneshot cycle; the last one is infeasible or invalid
ONESHOT_VARIANTS = 5
BAD_KINDS = ("infeasible", "invalid")

BASELINES = "mec_only,local_only,local_no_cache"
#: grid steps per sweep invocation, sized so each takes about as long with
#: all three baselines as without any
SWEEP_STEPS_PLAIN = 6000
SWEEP_STEPS_BASELINES = 1500
#: each sweep parameter's grid: (low start, high start, low stop, high stop, unit)
SWEEP_GRIDS = {
    "cache_bits": (1.0, 50.0, 600.0, 1000.0, "MB"),
    "device_cpu_hz": (1.5, 2.5, 40.0, 70.0, "GHz"),
    "avg_power_w": (0.5, 2.0, 60.0, 120.0, "W"),
    "deadline_s": (40.0, 80.0, 600.0, 1200.0, "ms"),
}

VERIFY_TRIALS = 600
VERIFY_THREADS = ("", "2")  # EDGE3C_THREADS unset, then 2

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it should produce."""

    key: str                 # "<workload>/c<cycle>/<index>", names the op's stdout digest
    argv: tuple[str, ...]    # arguments after ``python -m edge3c.cli``
    threads: str = ""        # EDGE3C_THREADS value; "" leaves it unset
    configs: int = 1         # configs solved: 1 per invocation, steps per sweep, trials per verify
    kind: str = "ok"         # "ok", "infeasible" or "invalid", as the input was built
    config: str | None = None  # config file path, relative to the checkout root


def _scaled(value, factor: float):
    """``value`` times ``factor``, keeping a quantity string's unit."""
    if isinstance(value, str):
        number, _, unit = value.partition(" ")
        return f"{float(number) * factor:.6g} {unit}"
    return value * factor


def _variant(base: dict, rng: random.Random, kind: str) -> dict:
    raw = json.loads(json.dumps(base))
    task, device, channel = raw["task"], raw["device"], raw["channel"]
    raw["task_count"] = int(round(raw["task_count"] * rng.uniform(0.8, 1.2)))
    task["input_remote_bits"] = _scaled(task["input_remote_bits"], rng.uniform(0.9, 1.1))
    task["output_bits"] = _scaled(task["output_bits"], rng.uniform(0.8, 1.2))
    task["deadline_s"] = _scaled(task["deadline_s"], rng.uniform(0.95, 1.2))
    device["cpu_hz"] = _scaled(device["cpu_hz"], rng.uniform(0.75, 1.5))
    device["cache_bits"] = _scaled(device["cache_bits"], rng.uniform(0.6, 1.4))
    device["avg_power_w"] = _scaled(device["avg_power_w"], rng.uniform(0.8, 1.4))
    channel["snr_up_db"] = round(channel["snr_up_db"] + rng.uniform(-1.0, 1.0), 4)
    channel["snr_down_db"] = round(channel["snr_down_db"] + rng.uniform(-1.0, 1.0), 4)
    if kind == "infeasible":
        # a 2 ms deadline is shorter than any route's compute time alone
        task["deadline_s"] = "2 ms"
    elif kind == "invalid":
        task["deadline_s"] = _scaled(task["deadline_s"], -1.0)
    return raw


def _write(path: Path, raw: dict) -> None:
    path.write_text(json.dumps(raw, indent=2) + "\n")


def cycle_ops(workload: str, seed: int, cycle: int, root: Path, workdir: Path) -> list[Op]:
    """The operations of one cycle, with their config files written to ``workdir``.

    ``workdir`` must lie inside ``root``; the ops name files relative to it.
    """
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    bases = [json.loads((root / p).read_text()) for p in BASE_CONFIGS]
    rel = workdir.relative_to(root)
    prefix = f"{workload}/c{cycle}"
    ops: list[Op] = []

    if workload == "oneshot":
        for v in range(ONESHOT_VARIANTS):
            kind = BAD_KINDS[cycle % 2] if v == ONESHOT_VARIANTS - 1 else "ok"
            raw = _variant(bases[rng.randrange(2)], rng, kind)
            name = f"{rel}/oneshot-{seed}-{cycle}-{v}.json"
            _write(root / name, raw)
            for cmd in ONESHOT_COMMANDS:
                ops.append(Op(key=f"{prefix}/{len(ops)}", argv=(cmd[0], "--config", name) + cmd[1:],
                              kind=kind, config=name))
    elif workload == "sweep":
        for param, (lo0, hi0, lo1, hi1, unit) in SWEEP_GRIDS.items():
            raw = _variant(bases[rng.randrange(2)], rng, "ok")
            name = f"{rel}/sweep-{seed}-{cycle}-{param}.json"
            _write(root / name, raw)
            log_with_baselines = rng.random() < 0.5
            for with_baselines in (False, True):
                steps = SWEEP_STEPS_BASELINES if with_baselines else SWEEP_STEPS_PLAIN
                argv = ("sweep", "--config", name, "--param", param,
                        "--start", f"{rng.uniform(lo0, hi0):.6g} {unit}",
                        "--stop", f"{rng.uniform(lo1, hi1):.6g} {unit}",
                        "--steps", str(steps))
                if with_baselines:
                    argv += ("--baselines", BASELINES)
                if with_baselines == log_with_baselines:
                    argv += ("--log-scale",)
                ops.append(Op(key=f"{prefix}/{len(ops)}", argv=argv, configs=steps, config=name))
    elif workload == "verify":
        verify_seed = rng.randrange(2**31)
        for threads in VERIFY_THREADS:
            ops.append(Op(key=f"{prefix}/{len(ops)}",
                          argv=("verify", "--trials", str(VERIFY_TRIALS), "--seed", str(verify_seed)),
                          threads=threads, configs=VERIFY_TRIALS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
