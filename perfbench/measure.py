"""Measurement helpers: percentiles, failure tallies, memory and host facts."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
#: Reference-kernel calls per timing, of which the median counts.  A shared
#: host's speed can flip between two levels within seconds (7.5 and 11 ms per
#: kernel seen on a 2-core x86 host), so one or two calls are often unlucky.
REF_REPEATS = 5


def median(values) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values, q: float) -> "float | None":
    """The ``q``-th percentile (nearest rank), or ``None`` when too few tail samples.

    The tail rule: a percentile is only meaningful with at least
    :data:`MIN_TAIL_SAMPLES` samples above it, so p90 needs 100 samples and
    p99 needs 1000.  The median is always reported.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(values)
    if n == 0:
        return None
    if q == 50.0:
        return median(values)
    if n * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    rank = -(-n * q // 100)  # ceil(n * q / 100), the nearest-rank index (1-based)
    return float(ordered[int(rank) - 1])


def binomial_tail(n: int, k: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


class Tally:
    """Attempted and failed operations, with the reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []

    def record(self, problems) -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.reasons.extend(problems)
        return not problems

    def fail_recorded(self, count: int, reason: str) -> None:
        """Count ``count`` operations already recorded as passed as failed."""
        self.failed = min(self.attempted, self.failed + count)
        self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def reference_kernel():
    """A fixed unit of work that no change to the program can speed up.

    Interpreted integer arithmetic plus small numpy operations, about 10 ms on
    a 2-core x86 host: the same mix the checker spends its time in, so its
    duration tracks how fast the host runs that kind of code right now.
    """
    total = 0
    for i in range(100_000):
        total += i * i
    data = np.arange(4096.0)
    for _ in range(200):
        data = data[::-1] * 1.0000001
    return total, float(data[0])


def reference_seconds(repeats: int = REF_REPEATS) -> float:
    """Median duration of :func:`reference_kernel` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return median(times)


class ReferenceTwin:
    """A second process that runs the reference kernel alongside this one.

    A workload that keeps both cores busy slows down when another tenant
    takes a core, which a lone single-threaded kernel does not notice.  Timed
    while the twin runs the same kernel, the reference slows down the same way.
    """

    def __init__(self):
        # ``fork``, not ``spawn``: spawning starts multiprocessing's resource
        # tracker, a helper process that outlives the benchmark's own exit.
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=_twin_main, args=(child, self._conn),
                                    daemon=True)
        self._process.start()
        child.close()
        self._conn.recv()  # ready, so the first run starts in step

    def seconds(self, repeats: int = REF_REPEATS) -> float:
        self._conn.send(repeats)
        try:
            return reference_seconds(repeats)
        finally:
            self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(None)
        finally:
            self._conn.close()
            self._process.join(10.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()


def _twin_main(conn, parent_end) -> None:
    # Drop the inherited copy of the parent's end, so that the pipe reads as
    # closed, and the twin exits, if the parent dies without saying so.
    parent_end.close()
    conn.send(True)
    try:
        while (repeats := conn.recv()) is not None:
            for _ in range(repeats):
                reference_kernel()
            conn.send(True)
    except (EOFError, OSError):
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    """The facts a timing depends on: cores, interpreter, numpy and its BLAS."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
