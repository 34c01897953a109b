"""Forked worker processes: the one way a command spreads its work over CPUs.

TreeSHAP fills its attributions and Kernel SHAP its regression's
right-hand side in contiguous ranges of rows (``fill_rows``), and
``train`` fits each selected model kind, in processes made by
``os.fork``. A child shares the parent's arrays (and any anonymous mmap)
without copying or pickling them, and hands its result back pickled
through a pipe of its own. No process pool is used: importing this module
starts nothing and loads neither multiprocessing nor concurrent.futures.
"""

from __future__ import annotations

import mmap
import os
import pickle
from functools import partial
from math import prod

import numpy as np

from .errors import NumericalError

# processes that fill one array's rows at once, the parent included
MAX_WORKERS = 4


def cpu_count() -> int:
    """The CPUs this process may run on; 1 where fork or CPU affinity is unavailable."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def run_forked(role: str, tasks: dict) -> list:
    """The results of ``tasks`` (label -> callable taking no argument), in order.

    The first task runs in this process, each other one in a forked child.
    A child that raises writes one line naming ``role`` and its label to
    stderr (silent on an interrupt) and exits 1; its entry in the result is
    then a NumericalError naming the label and the exit status, for the
    caller to raise. If this
    process's own task raises, or an interrupt arrives, every child is
    killed and reaped before the exception propagates: no child outlives
    the call.
    """
    (_, own), *others = tasks.items()
    children = []  # (pid, read end of its pipe, label), in task order
    try:
        for label, task in others:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                # leave through _exit whatever happens: no atexit hooks, no
                # flush of the parent's buffered output, no test teardown
                status = 1
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump(task(), pipe)
                    status = 0
                except KeyboardInterrupt:
                    pass  # Ctrl-C reaches the whole process group: the parent reports it
                except BaseException as exc:
                    os.write(2, f"{role}, {label}: {type(exc).__name__}: {exc}\n".encode())
                finally:
                    os._exit(status)
            os.close(write)  # so the pipe ends when the child does
            children.append((pid, open(read, "rb"), label))
        results = [own()]
        while children:
            pid, pipe, label = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            code = os.waitstatus_to_exitcode(status)
            results.append(pickle.loads(data) if code == 0 else NumericalError(
                f"{role} failed: {label} " + (f"exited with status {code}" if code > 0
                                              else f"was killed by signal {-code}")))
        return results
    finally:
        if children:
            import signal  # ~1 ms to import; only this path needs it
            for pid, pipe, _ in children:
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # reaped just before an interrupt reached this block


def fill_rows(role: str, shape: tuple, parts: int, fill):
    """A float64 array of ``shape``, zeroed, whose rows (first axis)
    ``fill(array, lo, hi)`` fills in contiguous, balanced ranges [lo, hi),
    one per worker.

    The array lives in one shared anonymous mmap, so what a forked worker
    writes is the caller's without a copy. The workers number
    min(cpu_count(), MAX_WORKERS, parts), at least one: ``parts`` is the
    most pieces the caller's work splits into, so one piece never forks.
    The parent fills the first range. The first failed worker's
    NumericalError, which names its rows, is raised.
    """
    n, size = shape[0], prod(shape)
    array = np.frombuffer(mmap.mmap(-1, size * 8 or 1), count=size).reshape(shape)
    workers = max(1, min(cpu_count(), MAX_WORKERS, parts))
    bounds = [n * j // workers for j in range(workers + 1)]
    for failed in run_forked(role, {f"rows {lo}-{hi - 1}": partial(fill, array, lo, hi)
                                    for lo, hi in zip(bounds, bounds[1:])}):
        if failed is not None:
            raise failed
    return array
