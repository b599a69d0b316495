"""Worker-count resolution and the order-preserving map that verify runs on.

Every trial is pure Python and holds the GIL, so ``ordered_map`` maps in
order in the calling thread and starts no thread. Output is byte-identical
whatever EDGE3C_THREADS says, but the variable is still read and checked.
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
    worker_count(threads)
    return [fn(x) for x in items]
