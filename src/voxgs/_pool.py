"""The program's one thread pool, sized to the CPUs this process may use.

A large stage splits its work into contiguous spans of at most
_TASK_ELEMENTS elements (spans) and runs one task per span (run). Each task
writes its own slice of a preallocated output or returns a value that the
caller joins in span order, so the results are identical for any worker
count and any task size. NumPy releases the interpreter lock inside most
of its loops, so tasks on different workers overlap. Bounding each task
also bounds the temporaries of a stage's tasks to WORKERS tasks' worth.

A run called from a pool worker runs its ranges on that worker, so a task
may itself call run (voxgs sweep runs its points as tasks, and each point
runs the codec) and no worker ever waits on the pool it occupies.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Elements per task: 2 MB of int64. Small enough to bound what the tasks in
# flight hold at once, large enough that the pool's overhead of tens of
# microseconds per task is small next to a task's milliseconds of work.
_TASK_ELEMENTS = 1 << 18

# _local.worker is set on the pool's own threads; a run called there goes inline.
_local = threading.local()


def _reset():
    """Forget the executor; a forked child inherits it without its threads."""
    global _executor, _lock
    _executor = None
    _lock = threading.Lock()


_reset()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_reset)


def spans(units: int, unit_size: int):
    """Contiguous (start, stop) ranges tiling range(units).

    Each holds as many units of unit_size elements as fit in _TASK_ELEMENTS,
    and at least one.
    """
    step = max(1, _TASK_ELEMENTS // max(1, unit_size))
    return [(start, min(start + step, units)) for start in range(0, units, step)]


def run(fn, ranges):
    """[fn(start, stop) for each range], in order.

    Runs on the calling thread when there is one range, one worker, or when
    the caller is itself a pool worker; else on the pool, created on first
    use. The first exception, in range order, is raised.
    """
    if len(ranges) < 2 or WORKERS < 2 or getattr(_local, "worker", False):
        return [fn(start, stop) for start, stop in ranges]
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=WORKERS,
                thread_name_prefix="voxgs",
                initializer=setattr,
                initargs=(_local, "worker", True),
            )
        pool = _executor
    return list(pool.map(fn, *zip(*ranges)))
