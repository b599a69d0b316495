"""Output checks and the parsing the benchmark relies on."""

import shutil
import tempfile
from pathlib import Path

from checks import Checker, sha256
from inputs import Op, cycle_ops
from run import parse_importtime, run_in_process

ROOT = Path(__file__).resolve().parents[2]


def test_wrong_digest_counts_as_a_failure(monkeypatch):
    monkeypatch.chdir(ROOT)
    op = Op(key="oneshot/c0/0", argv=("solve", "--config", "configs/reference.json"),
            config="configs/reference.json")
    exit_code, stdout = run_in_process(op)
    assert Checker(ROOT, {op.key: sha256(stdout)}).check(op, exit_code, stdout) == []
    problems = Checker(ROOT, {op.key: "0" * 64}).check(op, exit_code, stdout)
    assert len(problems) == 1 and "digest" in problems[0]


def test_wrong_answer_and_exit_code_are_failures(monkeypatch):
    monkeypatch.chdir(ROOT)
    op = Op(key="x", argv=("solve", "--config", "configs/reference.json"),
            config="configs/reference.json")
    exit_code, stdout = run_in_process(op)
    checker = Checker(ROOT)
    tampered = stdout.replace(b'"b_total_hz": 1', b'"b_total_hz": 2', 1)
    assert tampered != stdout
    assert checker.check(op, exit_code, tampered)
    assert checker.check(op, 1, stdout)


def test_inputs_repeat_for_a_seed():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        for workload in ("oneshot", "sweep", "verify"):
            first = cycle_ops(workload, 7, 2, ROOT, work)
            files = {op.config: (ROOT / op.config).read_text() for op in first if op.config}
            again = cycle_ops(workload, 7, 2, ROOT, work)
            assert first == again
            assert files == {op.config: (ROOT / op.config).read_text() for op in again if op.config}
            assert cycle_ops(workload, 8, 2, ROOT, work) != first
    finally:
        shutil.rmtree(work)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |        500 | json",
        "import time:       100 |      90000 |     numpy",
        "import time:       300 |     120000 |   edge3c.oracle",
        "import time:       700 |     130000 | edge3c",
        "import time:       200 |       2000 | edge3c.cli",
    ])
    numpy_ms, edge3c_ms = parse_importtime(stderr)
    assert numpy_ms == 90.0
    assert edge3c_ms == 132.0 - 90.0
