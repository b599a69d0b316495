"""Benchmark of the edge3c CLI: end-to-end metrics, or per-layer ones traced.

Run from the root of a checkout:

    python3 bench/run.py --workload {oneshot,sweep,verify} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` one client runs ``python -m edge3c.cli`` as a child
process in a closed loop, whole cycles of operations at a time, until the
next cycle would end after ``--seconds``, and reports wall time per
invocation, configs solved per second, peak child RSS and the start-up cost
``setup_s``. With ``--trace 1`` it runs a fixed number of cycles in process
through ``edge3c.cli.main``, first untraced and then with every layer
function wrapped, and reports call counts and self times per layer. Every
output is checked outside the timed region; the last stdout line is the
JSON result.

``--record-digests`` runs the default seed's first cycles of every workload
and stores the sha256 of each stdout in ``bench/digests.json``; later runs of
that seed must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import Checker, sha256
from inputs import WHY, WORKLOADS, Op, cycle_ops
from spans import CAPACITY_COUNTER, CELLS_COUNTER, TARGETS, WORKER_SPAN, Tracer, traced

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
THREADS_ENV = "EDGE3C_THREADS"
PYCACHE = ".bench_build/pycache"
#: fresh ``import edge3c.cli`` children per run, spread over the timed loop
#: so that they see the machine as the operations do; setup_s is their median
SETUP_REPS = 15
#: ``-X importtime`` children per traced run; the import metrics are medians
IMPORTTIME_REPS = 5
CHILD_TIMEOUT_S = 60.0
#: cycles run in process by a traced run; fixed, so its counts repeat exactly
TRACE_CYCLES = {"oneshot": 10, "sweep": 1, "verify": 2}
#: cycles of the default seed whose stdout digests are recorded
DIGEST_CYCLES = {"oneshot": 12, "sweep": 10, "verify": 30}


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    maxrss_kib: int
    stderr: bytes


def child_env(root: Path, threads: str = "") -> dict:
    """The environment of a child: the checkout's ``src`` first on the path,
    and bytecode cached under ``.bench_build``, as an install would have it,
    without writing next to any source outside the checkout."""
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / PYCACHE)
    if threads:
        env[THREADS_ENV] = threads
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], env: dict, root: Path, out: Path) -> ChildResult:
    """Run one child to completion, its stdout into ``out``; wall time covers
    spawn to reap.

    ``os.wait4`` gives the child's peak RSS. That figure also counts the
    client's own peak at the moment it spawns the child, so the client keeps
    outputs on disk and imports neither numpy nor edge3c before its timed
    loop ends.
    """
    with open(out, "wb") as stdout, tempfile.TemporaryFile(dir=out.parent) as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=root)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr.seek(0)
        return ChildResult(proc.returncode, wall, usage.ru_maxrss, stderr.read())


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-m", "edge3c.cli", *op.argv]


def machine_facts() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_child(root: Path, work: Path) -> float:
    """Wall time of a fresh ``import edge3c.cli`` child."""
    argv = [sys.executable, "-c", "import edge3c.cli"]
    return run_child(argv, child_env(root), root, work / "setup.out").wall_s


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy ms, edge3c ms without numpy) from ``-X importtime`` output.

    edge3c's share is the cumulative time of its top-level imports minus
    numpy's, which only edge3c pulls in here.
    """
    numpy_us = 0
    edge3c_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2][1:]
        name = raw.strip()
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        if raw == name and (name == "edge3c" or name.startswith("edge3c.")):
            edge3c_us += cumulative
    return numpy_us / 1e3, (edge3c_us - numpy_us) / 1e3


def measure_imports(root: Path, work: Path) -> tuple[float, float]:
    argv = [sys.executable, "-X", "importtime", "-c", "import edge3c.cli"]
    env = child_env(root)
    runs = [parse_importtime(run_child(argv, env, root, work / "imports.out").stderr.decode())
            for _ in range(IMPORTTIME_REPS)]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def check_cycle(checker: Checker, tally: Tally, ops: list[Op], results: list[tuple[int, bytes]],
                traced_results: list[tuple[int, bytes]] | None = None):
    """Check each op's output; verify's pair must print the same bytes, and
    a traced run must print what the untraced one did."""
    for i, (op, (exit_code, stdout)) in enumerate(zip(ops, results)):
        problems = checker.check(op, exit_code, stdout)
        if op.argv[0] == "verify" and i > 0 and stdout != results[0][1]:
            problems.append(f"{op.key}: stdout differs from {ops[0].key}, run with other threads")
        if traced_results is not None and traced_results[i] != (exit_code, stdout):
            problems.append(f"{op.key}: the traced run's output differs from the untraced one")
        tally.add(problems)


def run_op(op: Op, root: Path, work: Path) -> tuple[ChildResult, Path]:
    out = work / f"{op.key.replace('/', '-')}.out"
    return run_child(cli_argv(op), child_env(root, op.threads), root, out), out


def check_outputs(checker: Checker, tally: Tally, ops: list[Op], results) -> None:
    check_cycle(checker, tally, ops, [(res.exit_code, out.read_bytes()) for res, out in results])


def run_end_to_end(workload: str, seed: int, seconds: float, root: Path, work: Path,
                   digests: dict[str, str], tally: Tally) -> tuple[dict, dict]:
    setup_child(root, work)  # warm-up: fills the bytecode cache
    setup: list[float] = []
    cycles = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        ops = cycle_ops(workload, seed, len(cycles), root, work)
        results = []
        for op in ops:
            results.append(run_op(op, root, work))
            while len(setup) < SETUP_REPS * min(1.0, (time.perf_counter() - start) / seconds):
                setup.append(setup_child(root, work))
        cycles.append((ops, results))
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    while len(setup) < SETUP_REPS:
        setup.append(setup_child(root, work))
    window = time.perf_counter() - start
    checker = Checker(root, digests)
    for ops, results in cycles:
        check_outputs(checker, tally, ops, results)
    walls = [res.wall_s for _, results in cycles for res, _ in results]
    configs = sum(op.configs for ops, _ in cycles for op in ops)
    peak_kib = max(res.maxrss_kib for _, results in cycles for res, _ in results)
    quartiles = statistics.quantiles(walls, n=4, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_ms": (quartiles[1] * 1e3, "ms"),
        "cmd_p75_ms": (quartiles[2] * 1e3, "ms"),
        "configs_per_s": (configs / sum(walls), "1/s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    detail = {"cycles": len(cycles), "invocations": len(walls), "configs": configs,
              "window_s": window, "setup_samples": len(setup)}
    return metrics, detail


def run_in_process(op: Op) -> tuple[int, bytes]:
    """Run one op through ``edge3c.cli.main`` with stdout captured.

    ``main`` is looked up on the module at call time, so a traced run goes
    through its wrapper.
    """
    cli = importlib.import_module("edge3c.cli")
    saved = os.environ.pop(THREADS_ENV, None)
    if op.threads:
        os.environ[THREADS_ENV] = op.threads
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                exit_code = cli.main(list(op.argv))
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 2
    finally:
        os.environ.pop(THREADS_ENV, None)
        if saved is not None:
            os.environ[THREADS_ENV] = saved
    return exit_code, out.getvalue().encode()


def timed_in_process(op: Op, tracer: Tracer | None) -> tuple[tuple[int, bytes], float]:
    """Output and wall time of one op run in process, traced if a tracer is given."""
    with traced(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        result = run_in_process(op)
        return result, time.perf_counter() - start


def layer_metrics(tracer: Tracer, configs: int) -> dict:
    spans = tracer.spans()
    counters = tracer.counters()
    metrics = {}
    for name in [f"{m}.{f}" for m, f in TARGETS] + [WORKER_SPAN]:
        calls, self_s, _ = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
    metrics[CELLS_COUNTER] = (int(counters.get(CELLS_COUNTER, 0)), "count")
    capacity = counters.get(CAPACITY_COUNTER, 0.0)
    busy = spans.get(WORKER_SPAN, (0, 0.0, 0.0))[2]
    metrics["parallel.ordered_map.busy_frac"] = (busy / capacity if capacity else 0.0, "fraction")
    for name in ("bandwidth.route_costs", "model.validate_config"):
        metrics[f"{name}.calls_per_config"] = (spans.get(name, (0,))[0] / configs, "calls/config")
    return metrics


def run_traced(workload: str, seed: int, root: Path, work: Path,
               digests: dict[str, str], tally: Tally) -> tuple[dict, dict]:
    numpy_ms, edge3c_ms = measure_imports(root, work)
    checker = Checker(root, digests)
    cycles = [cycle_ops(workload, seed, k, root, work) for k in range(TRACE_CYCLES[workload])]
    ops = [op for cycle in cycles for op in cycle]
    tracer = Tracer()
    plain, spanned = [], []
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        # alternate which run of an op goes first, so warm-up favours neither
        for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
            result, wall = timed_in_process(op, t)
            if t is None:
                plain.append(result)
                plain_s += wall
            else:
                spanned.append(result)
                traced_s += wall
    at = 0
    for cycle in cycles:
        check_cycle(checker, tally, cycle, plain[at:at + len(cycle)], spanned[at:at + len(cycle)])
        at += len(cycle)
    configs = sum(op.configs for op in ops)
    metrics = layer_metrics(tracer, configs)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    metrics["import.numpy_ms"] = (numpy_ms, "ms")
    metrics["import.edge3c_ms"] = (edge3c_ms, "ms")
    detail = {"cycles": len(cycles), "operations": len(ops), "configs": configs,
              "untraced_s": plain_s, "traced_s": traced_s}
    return metrics, detail


def load_digests(seed: int) -> dict[str, str]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    recorded = json.loads(DIGESTS.read_text())
    return recorded["digests"] if recorded["seed"] == seed else {}


def record_digests(root: Path, work: Path) -> int:
    checker = Checker(root)
    digests = {}
    tally = Tally()
    for workload in WORKLOADS:
        for cycle in range(DIGEST_CYCLES[workload]):
            ops = cycle_ops(workload, DEFAULT_SEED, cycle, root, work)
            results = [run_op(op, root, work) for op in ops]
            check_outputs(checker, tally, ops, results)
            for op, (_, out) in zip(ops, results):
                digests[op.key] = sha256(out.read_bytes())
    if tally.failed:
        print("\n".join(tally.problems), file=sys.stderr)
        print(f"not recorded: {tally.failed} of {tally.attempted} operations failed",
              file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "cycles": DIGEST_CYCLES,
                                   "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")

    root = BENCH_DIR.parent
    missing = [p for p in ("src/edge3c/cli.py", "configs/reference.json",
                           "configs/relaxed_deadline.json") if not (root / p).is_file()]
    if missing:
        print(f"bench: not a checkout of edge3c, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
    try:
        if args.record_digests:
            return record_digests(root, work)
        facts = machine_facts()
        digests = load_digests(args.seed)
        tally = Tally()
        if args.trace:
            metrics, detail = run_traced(args.workload, args.seed, root, work, digests, tally)
        else:
            metrics, detail = run_end_to_end(args.workload, args.seed, args.seconds,
                                             root, work, digests, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = list(os.getloadavg())
    report = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": facts, "run": detail,
        "digests_checked": bool(digests),
        "failed_frac": tally.failed / max(1, tally.attempted), "problems": tally.problems,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
