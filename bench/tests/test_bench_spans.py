"""The tracer's self times, and the traced run's effect on the package."""

import sys
import threading
from pathlib import Path

import pytest

import spans
from inputs import Op
from run import run_in_process
from spans import Tracer, traced

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_time_minus_children_per_thread():
    clock = FakeClock()
    tracer = Tracer(clock)

    def other_thread():
        # runs while the main thread's "outer" span is open; it must not
        # count as outer's child, and outer must not be its parent
        tracer.enter("outer")
        clock.now = 4.0
        tracer.enter("inner")
        clock.now = 4.5
        tracer.exit()
        clock.now = 5.0
        tracer.exit()

    tracer.enter("outer")          # t=0
    clock.now = 1.0
    tracer.enter("inner")          # t=1
    clock.now = 2.0
    tracer.enter("leaf")           # t=2
    clock.now = 3.0
    tracer.exit()                  # leaf: 1
    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.now = 6.0
    tracer.exit()                  # inner: 5, of which leaf covers 1
    clock.now = 10.0
    tracer.exit()                  # outer: 10, of which inner covers 5

    got = tracer.spans()
    # (calls, self, total): main thread outer 10-5, other thread outer 2-0.5
    assert got["outer"] == (2, pytest.approx(5.0 + 1.5), pytest.approx(12.0))
    assert got["inner"] == (2, pytest.approx(4.0 + 0.5), pytest.approx(5.5))
    assert got["leaf"] == (1, pytest.approx(1.0), pytest.approx(1.0))


def _bindings():
    found = {}
    for name, mod in sys.modules.items():
        if name == "edge3c" or name.startswith("edge3c."):
            for attr, value in vars(mod).items():
                found[(name, attr)] = value
    return found


def test_traced_run_restores_bindings_and_keeps_stdout(monkeypatch):
    import edge3c.cli  # noqa: F401  (binds every module that the CLI uses)

    monkeypatch.chdir(ROOT)
    ops = [
        Op(key="t/0", argv=("solve", "--config", "configs/reference.json", "--human")),
        Op(key="t/1", argv=("regions", "--config", "configs/reference.json")),
        Op(key="t/2", argv=("sweep", "--config", "configs/relaxed_deadline.json",
                            "--param", "cache_bits", "--start", "0", "--stop", "800 MB",
                            "--steps", "40", "--baselines", "mec_only,local_only")),
        Op(key="t/3", argv=("verify", "--trials", "18", "--seed", "3"), threads="2"),
    ]
    before = _bindings()
    plain = [run_in_process(op) for op in ops]
    tracer = Tracer()
    with traced(tracer) as replaced:
        assert len(replaced) > len(spans.TARGETS)  # several bindings per function
        spanned = [run_in_process(op) for op in ops]
    assert _bindings() == before
    assert spanned == plain
    calls = {name: c for name, (c, _, _) in tracer.spans().items()}
    assert calls["cli.main"] == len(ops)
    assert calls["oracle.enumerate_optimal"] == 18
    assert calls["parallel.worker"] == 40 + 18
    # route_costs is reached through policy, tradeoff, oracle and cli bindings
    assert calls["bandwidth.route_costs"] > 40
