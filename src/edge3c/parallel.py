"""The order-preserving map that verify runs on.

Every trial is pure Python and holds the GIL, so ``ordered_map`` maps in
order in the calling thread and starts no thread; ``threads`` and
``worker_count`` set nothing and stay only for the benchmark's tracer.
"""


def worker_count(explicit: int | None = None) -> int:
    return 1


def ordered_map(fn, items, threads: int | None = None) -> list:
    return [fn(x) for x in items]
