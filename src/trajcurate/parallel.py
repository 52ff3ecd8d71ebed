"""Independent calls run side by side, on the calling thread and at most one
worker thread per further core.

The numpy and scipy kernels of a model pass release the GIL, so independent
passes (encoder batches, the IDM's groups of averaged denoising runs) overlap
on threads. Two threads run each call slower than one, and a call of twice
the rows costs less than two calls, so the IDM makes at most one call per
core, as `cores()` counts them. The grad mode is per thread
(`tensor.no_grad`), so each call enters `no_grad` itself. The calling thread
takes calls too, so one core's share of the arrays stays in the caller's own
allocator arena.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def cores() -> int:
    """Cores this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)      # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run(calls: Sequence[Callable[[], T]]) -> list[T]:
    """The results of `calls`, in call order, whichever thread finished
    first. Every thread takes the next call not yet taken. The workers are
    joined before this returns, and a call's exception is raised here."""
    pending: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(calls)):
        pending.put(i)
    results: list = [None] * len(calls)

    def drain() -> None:
        while True:
            try:
                i = pending.get_nowait()
            except queue.Empty:
                return
            results[i] = calls[i]()

    workers = min(len(calls), cores()) - 1
    with ThreadPoolExecutor(max(workers, 1)) as pool:    # starts threads on submit only
        futures = [pool.submit(drain) for _ in range(workers)]
        drain()
        for f in futures:
            f.result()
    return results
