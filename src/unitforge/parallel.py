"""Deterministic chunked execution.

Work is split into fixed-size chunks whose boundaries do not depend on
the worker count; results are merged in chunk order, so output is
byte-identical for any ``threads >= 1``. The pool never has more workers
than there are chunks or CPUs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

CHUNK_ROWS = 256


def chunk_ranges(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_ROWS, n)) for lo in range(0, n, CHUNK_ROWS)]


def map_chunks(fn: Callable[[T], R], chunks: Sequence[T], threads: int = 1) -> list[R]:
    workers = min(threads, len(chunks))
    if workers > 1:  # the CPU count is read only when a pool could start
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
