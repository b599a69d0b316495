"""Worker-count resolution and order-preserving parallel map.

Results must be byte-identical whatever the worker count, so the only
parallel primitive offered is an ordered map over a pure function; the
EDGE3C_THREADS environment variable caps the pool size.
"""

from __future__ import annotations

import os

from .errors import InvalidFieldError

ENV_THREADS = "EDGE3C_THREADS"


def worker_count(explicit: int | None = None) -> int:
    if explicit is not None:
        n = explicit
    else:
        raw = os.environ.get(ENV_THREADS)
        if raw is None:
            return 1
        try:
            n = int(raw)
        except ValueError:
            raise InvalidFieldError(ENV_THREADS, f"not an integer: {raw!r}") from None
    if n < 1:
        raise InvalidFieldError(ENV_THREADS, "worker count must be >= 1")
    return n


def ordered_map(fn, items, threads: int | None = None) -> list:
    n = worker_count(threads)
    items = list(items)
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here so that a run without a pool never loads concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
