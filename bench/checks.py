"""Output checks, run outside the timed region.

Each check returns a list of problems; an operation with any problem counts
as failed. The reference for ``solve``, ``regions`` and sampled sweep rows is
``oracle.enumerate_optimal``, which enumerates the whole count lattice and
shares none of the closed form's structure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import warnings
from pathlib import Path

from inputs import Op

#: relative tolerance between the closed form and the oracle
REL_TOL = 1e-9
#: sweep rows checked against the oracle per invocation
SWEEP_SAMPLES = 6
#: exit code the CLI uses for domain errors (infeasible or invalid input)
EXIT_DOMAIN = 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Checker:
    """Checks the stdout and exit code of each op against the oracle.

    ``digests`` maps op keys to the sha256 of their stdout as recorded at a
    known-good commit; ops without an entry are not digest-checked.
    """

    def __init__(self, root: Path, digests: dict[str, str] | None = None):
        from edge3c import bounds, errors, model, oracle, tradeoff
        self.root = root
        self.digests = digests or {}
        self._bounds, self._errors, self._model = bounds, errors, model
        self._oracle, self._tradeoff = oracle, tradeoff
        self._reference: dict[str, tuple] = {}

    def _load(self, path: str):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return self._model.load_config(self.root / path)

    def _solve_reference(self, config):
        """("ok", OracleSolution) or (error code, exception) from the oracle."""
        try:
            return "ok", self._oracle.enumerate_optimal(config)
        except self._errors.Edge3cError as exc:
            return exc.code, exc

    def reference(self, path: str):
        """Loaded config (or None) and oracle outcome for a config file, cached."""
        if path not in self._reference:
            try:
                config = self._load(path)
            except self._errors.Edge3cError as exc:
                self._reference[path] = (None, (exc.code, exc))
            else:
                self._reference[path] = (config, self._solve_reference(config))
        return self._reference[path]

    def check(self, op: Op, exit_code: int, stdout: bytes) -> list[str]:
        expected_digest = self.digests.get(op.key)
        problems = []
        if expected_digest is not None and sha256(stdout) != expected_digest:
            problems.append(f"{op.key}: stdout digest differs from the recorded one")
        try:
            text = stdout.decode("ascii")
            command = op.argv[0]
            if command in ("solve", "regions", "turning-points"):
                problems += self._check_oneshot(op, exit_code, text)
            elif command == "sweep":
                problems += self._check_sweep(op, exit_code, text)
            elif command == "verify":
                problems += self._check_verify(op, exit_code, text)
            else:
                problems.append(f"{op.key}: no check for command {command!r}")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{op.key}: unreadable output ({type(exc).__name__}: {exc})")
        return problems

    def _check_oneshot(self, op: Op, exit_code: int, text: str) -> list[str]:
        command = op.argv[0]
        config, (outcome, solution) = self.reference(op.config)
        expected_outcome = {"ok": "ok", "infeasible": "infeasible",
                            "invalid": "invalid_config"}[op.kind]
        if outcome != expected_outcome:
            return [f"{op.key}: input built as {op.kind} but the oracle says {outcome}"]
        # turning points need a valid config, not a feasible one
        if command == "turning-points" and outcome == "infeasible":
            outcome = "ok"
        payload = json.loads(text)
        if outcome != "ok":
            if exit_code != EXIT_DOMAIN:
                return [f"{op.key}: exit {exit_code}, expected {EXIT_DOMAIN} ({outcome})"]
            if payload.get("error") != outcome:
                return [f"{op.key}: error {payload.get('error')!r}, oracle raised {outcome!r}"]
            return []
        if exit_code != 0:
            return [f"{op.key}: exit {exit_code}, expected 0"]
        if command == "solve":
            return self._check_solve(op, payload, config, solution)
        if command == "regions":
            return self._check_regions(op, payload, config, solution)
        return self._check_turning_points(op, payload, config)

    def _check_solve(self, op, payload, config, solution) -> list[str]:
        problems = []
        if not _close(payload["b_total_hz"], solution.b_total_hz):
            problems.append(f"{op.key}: b_total_hz {payload['b_total_hz']!r} "
                            f"!= oracle {solution.b_total_hz!r}")
        if payload["x1"] + payload["x2"] + payload["x3"] != config.task_count:
            problems.append(f"{op.key}: route counts do not sum to task_count")
        if "--human" in op.argv and "human" not in payload:
            problems.append(f"{op.key}: --human output lacks the human block")
        return problems

    def _check_regions(self, op, payload, config, solution) -> list[str]:
        problems = []
        routes = payload["routes"]
        capacity = self._bounds.cache_task_capacity(
            config.device.cache_bits, config.task.input_remote_bits, config.task_count)
        if payload["cache_capacity_tasks"] != capacity:
            problems.append(f"{op.key}: cache_capacity_tasks {payload['cache_capacity_tasks']} "
                            f"!= {capacity}")
        if solution.x1 > payload["cache_capacity_tasks"]:
            problems.append(f"{op.key}: the oracle caches more tasks than the reported capacity")
        b2 = routes["b2_hz"] if routes["route12_feasible"] else math.inf
        b3 = routes["b3_hz"] if routes["route3_feasible"] else math.inf
        if payload["b3_gt_b2"] != (b3 > b2) or payload["k1_gt_k2"] != (routes["k1_w"] > routes["k2_w"]):
            problems.append(f"{op.key}: regime flags disagree with the reported routes")
        # the oracle's optimum, priced with the reported routes, is the optimum
        priced = (solution.x2 * b2 if solution.x2 else 0.0) + (solution.x3 * b3 if solution.x3 else 0.0)
        if not _close(priced, solution.b_total_hz):
            problems.append(f"{op.key}: reported route prices do not reproduce the oracle's optimum")
        return problems

    def _check_turning_points(self, op, payload, config) -> list[str]:
        t, d = config.task, config.device
        input_total = t.input_local_bits + t.input_remote_bits
        if d.switched_capacitance <= 0 or t.cycles_per_bit * input_total <= 0:
            return [] if payload["f2_hz"] is None else [f"{op.key}: f2 present without dynamic power"]
        f2 = math.sqrt(t.deadline_s * d.avg_power_w
                       / (d.switched_capacitance * t.cycles_per_bit * input_total))
        if payload["f2_hz"] is None or not _close(payload["f2_hz"], f2):
            return [f"{op.key}: f2_hz {payload['f2_hz']!r} != {f2!r}"]
        return []

    def _check_sweep(self, op: Op, exit_code: int, text: str) -> list[str]:
        if exit_code != 0:
            return [f"{op.key}: exit {exit_code}, expected 0"]
        argv = op.argv
        param = argv[argv.index("--param") + 1]
        steps = int(argv[argv.index("--steps") + 1])
        baselines = argv[argv.index("--baselines") + 1].split(",") if "--baselines" in argv else []
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        problems = []
        if len(body) != steps:
            problems.append(f"{op.key}: {len(body)} rows, expected {steps}")
        if len(header) != 8 + len(baselines) or any(len(r) != len(header) for r in body):
            problems.append(f"{op.key}: rows do not match the {len(header)}-column header")
        if problems:
            return problems
        values = [float(r[1]) for r in body]
        if any(b <= a for a, b in zip(values, values[1:])):
            problems.append(f"{op.key}: grid values are not strictly ascending")
        config, _ = self.reference(op.config)
        dotted = self._tradeoff.SWEEP_PARAMETERS[param]
        rng = random.Random(op.key)
        for i in sorted(rng.sample(range(steps), min(SWEEP_SAMPLES, steps))):
            row = body[i]
            cfg = self._model.replace_field(config, dotted, float(row[1]))
            outcome, solution = self._solve_reference(cfg)
            if outcome == "ok":
                if row[5] == "INF" or not _close(float(row[5]), solution.b_total_hz):
                    problems.append(f"{op.key}: row {i} b_total_hz {row[5]} "
                                    f"!= oracle {solution.b_total_hz!r}")
            elif row[2:8] != ["INF"] * 6:
                problems.append(f"{op.key}: row {i} solved, the oracle raised {outcome}")
        return problems

    def _check_verify(self, op: Op, exit_code: int, text: str) -> list[str]:
        report = json.loads(text)
        trials = int(op.argv[op.argv.index("--trials") + 1])
        problems = []
        if exit_code != 0 or report["pass"] is not True:
            problems.append(f"{op.key}: verify did not pass (exit {exit_code})")
        if report["trials"] != trials:
            problems.append(f"{op.key}: report covers {report['trials']} trials, asked {trials}")
        return problems

