"""Reference seconds: host time rescaled by the host's speed while it passed.

The sandbox this ledger runs in is a few cores of a shared host whose speed
moves by 1.5x within seconds and stays moved for minutes, for CPU work and
for ``fsync`` independently: the same code timed twice differs by more than
any bound worth setting (README, "Why reference seconds").  So every timed
body is cut into segments of a few hundred milliseconds, a fixed *kernel* —
stdlib only, never touched by the program under test — is timed between the
segments, and the body's time is rescaled by how fast the kernel ran there
and then:

    reference_s = cpu_s * NOMINAL_CPU_S / mean(cpu kernel samples)
                + (wall_s - cpu_s) * NOMINAL_IO_S / mean(io kernel samples)

``cpu_s`` is the process's CPU time, ``wall_s - cpu_s`` the time it was
blocked, which in this repository means waiting for ``fsync``.  Without an io
kernel (every body but ``store_churn``'s appends) the whole wall time is
rescaled by the CPU factor.  The nominal durations are the kernels' medians
on the reference VM, so there a reference second is a typical wall second.
"""

from __future__ import annotations

import os
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter, process_time, thread_time
from typing import Any, Callable, Iterator, List, Optional

#: median duration of :func:`cpu_kernel` / :func:`io_kernel` on the reference
#: VM (2 shared vCPUs of a Xeon @ 2.10GHz, ext4): the speed called 1.0.
NOMINAL_CPU_S = 0.0182
NOMINAL_IO_S = 0.0110

CPU_KERNEL_STEPS = 100_000
#: one io kernel = this many appends of the bytes ``store_churn`` flushes at a
#: time (25 records of ~3.65 KB), each followed by ``fsync``.
IO_KERNEL_APPENDS = 10
IO_KERNEL_BLOCK = b"j" * (25 * 3650)


def cpu_kernel() -> int:
    """What the simulator's hot paths are made of: dict and list traffic,
    small-int arithmetic, short-lived containers."""
    table: dict = {}
    queue: list = []
    total = 0
    for step in range(CPU_KERNEL_STEPS):
        table[step & 1023] = step
        queue.append(step)
        if len(queue) > 64:
            queue = []
        total += table[step & 1023]
    return total


def io_kernel(fd: int) -> None:
    """Durable appends to a file that starts empty, as a journal flush does."""
    os.ftruncate(fd, 0)
    for _ in range(IO_KERNEL_APPENDS):
        os.write(fd, IO_KERNEL_BLOCK)
        os.fsync(fd)


class Calibration:
    """Wall, CPU and reference seconds of one timed body.

    ``run(fn, ...)`` times one segment, sampling the kernels before it;
    ``close()`` samples once more, so every segment sits between two samples.
    ``background()`` is the other way to time a body, for one that cannot be
    cut into segments.
    ``io_path`` names a scratch file next to the store under test and turns
    the io kernel on.
    """

    def __init__(self, io_path: Optional[str] = None) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.cpu_samples: List[float] = []
        self.io_samples: List[float] = []
        self._fd = None
        if io_path is not None:
            self._fd = os.open(io_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)

    def sample(self) -> None:
        start = perf_counter()
        cpu_kernel()
        middle = perf_counter()
        self.cpu_samples.append(middle - start)
        if self._fd is not None:
            io_kernel(self._fd)
            self.io_samples.append(perf_counter() - middle)

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self.sample()
        wall, cpu = perf_counter(), process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_s += perf_counter() - wall
            self.cpu_s += process_time() - cpu

    @contextmanager
    def background(self, period_s: float) -> Iterator[None]:
        """Time a body that keeps every core busy from other processes.

        A thread samples the CPU kernel every ``period_s`` seconds while the
        body runs, by its own CPU time: the sampler then competes with the
        body's workers for a core, and wall time would count the waiting.
        Processes the body forks meanwhile inherit the thread's objects but
        not the thread, and never touch them.
        """
        stop = threading.Event()

        def sampler() -> None:
            while not stop.is_set():
                start = thread_time()
                cpu_kernel()
                self.cpu_samples.append(thread_time() - start)
                stop.wait(period_s)

        thread = threading.Thread(target=sampler, daemon=True)
        wall = perf_counter()
        thread.start()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - wall
            stop.set()
            thread.join()

    def close(self) -> "Calibration":
        """Take the sample that follows the last segment."""
        self.sample()
        if self._fd is not None:
            os.ftruncate(self._fd, 0)
            os.close(self._fd)
            self._fd = None
        return self

    @property
    def cpu_speed(self) -> float:
        """1.0 = the reference VM's typical speed; 0.5 = half of it."""
        return NOMINAL_CPU_S / statistics.fmean(self.cpu_samples)

    @property
    def io_speed(self) -> float:
        if not self.io_samples:
            return self.cpu_speed
        return NOMINAL_IO_S / statistics.fmean(self.io_samples)

    @property
    def reference_s(self) -> float:
        if not self.io_samples:
            return self.wall_s * self.cpu_speed
        busy = min(self.cpu_s, self.wall_s)
        return busy * self.cpu_speed + (self.wall_s - busy) * self.io_speed
