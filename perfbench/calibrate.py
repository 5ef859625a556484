"""Machine-speed probe: a fixed piece of work timed next to every fit.

The benchmark runs on shared VMs whose speed drifts by 20-40% for
seconds to minutes at a time, and that drift moves a fit's CPU time as
much as its wall time (busy neighbours slow the core; they do not take
it away).  No statistic over one run removes a drift that lasts longer
than the run.  So every fit and every set-up step is bracketed by this
probe, and its times are reported scaled to the speed the probe had
when ``REFERENCE_PROBE_S`` was fixed::

    reported = measured * REFERENCE_PROBE_S / mean_probe_time_around_it

The probe's work imitates the program's mix: CART split searches over
bootstrap-sized numpy slices (argsort, prefix sums, impurity) driven
from a Python loop, random-field generation with a log/argmin pass as
in signature hashing, and dict/tuple hashing as in fingerprinting.
Nothing in it calls BLAS, so it runs on one thread.  It uses numpy
only, never ``repro``, so no change to the program can move the
yardstick.  A fit that keeps several cores busy (the pool backend) is
bracketed by as many probes at once, one per core (:class:`Probe`).
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: Probe wall time on the reference machine (2-vCPU Xeon VM, CPython
#: 3.11) in a quiet phase.  It only fixes the unit: reported times are
#: seconds on that machine when it was quiet.
REFERENCE_PROBE_S = 0.0062

#: Fewest probes per measurement.
MIN_REPEATS = 3

_rng = np.random.default_rng(20240611)
_X = _rng.standard_normal((1000, 8))
_Y = (_X[:, 0] + 0.5 * _rng.standard_normal(1000) > 0).astype(np.int64)
_NODES = [np.sort(_rng.choice(1000, size=size, replace=False))
          for size in (1000, 620, 380, 240, 150, 90, 60, 40, 25)]


def _best_impurity(column: np.ndarray, y: np.ndarray) -> float:
    order = np.argsort(column, kind="stable")
    ys = y[order]
    n = len(ys)
    left_pos = np.cumsum(ys)[:-1]
    left_n = np.arange(1, n)
    right_pos = ys.sum() - left_pos
    right_n = n - left_n
    p_left = left_pos / left_n
    p_right = right_pos / right_n
    gini = (left_n * p_left * (1 - p_left) + right_n * p_right * (1 - p_right)) / n
    return float(gini.min())


def probe_once() -> float:
    """One pass of the fixed work; returns a checksum so none is skipped."""
    total = 0.0
    for rows in _NODES:
        labels = _Y[rows]
        for feature in range(_X.shape[1]):
            total += _best_impurity(_X[rows, feature], labels)
    fields = np.random.default_rng(7).gamma(2.0, 1.0, size=(24, 1000))
    total += float(np.argmin(np.log(fields) - np.abs(_X[:, 0]), axis=1).sum())
    seen: dict[tuple, int] = {}
    for i in range(4000):
        key = (i % 97, i % 89, str(i % 53))
        seen[key] = seen.get(key, 0) + hash(key) % 7
    return total + len(seen)


def probe(budget: float) -> float:
    """Mean wall seconds per probe over about ``budget`` seconds.

    The mean, not the median: the host flips between fast and slow
    phases (probe times of about 5 and 9 ms) many times a second, and a
    fit's time is the mean over the phases it runs through.
    """
    started = time.perf_counter()
    repeats = 0
    while repeats < MIN_REPEATS or time.perf_counter() - started < budget:
        probe_once()
        repeats += 1
    return (time.perf_counter() - started) / repeats


def _serve(conn) -> None:
    """Helper-process loop: probe for each budget received, send the time."""
    try:
        while (budget := conn.recv()) is not None:
            conn.send(probe(budget))
    except EOFError:  # the benchmark process is gone
        pass


class Probe:
    """``probe`` run in ``width`` processes at once; the mean of their times.

    ``width - 1`` helper processes are spawned once and live until
    :meth:`close`, which stops each and waits for it to end.
    """

    def __init__(self, width: int) -> None:
        context = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(width - 1):
            ours, theirs = context.Pipe()
            process = context.Process(target=_serve, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self._helpers.append((process, ours))

    def __call__(self, budget: float) -> float:
        for _, conn in self._helpers:
            conn.send(budget)
        times = [probe(budget)] + [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for process, conn in self._helpers:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join()
        self._helpers = []
