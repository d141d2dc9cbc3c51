"""Operation timing in reference seconds, steady on a shared host."""

import signal
import statistics
import time

import numpy as np

SAMPLE_LOOPS = 1500          # one speed sample: 5-15 ms
SAMPLE_REF_S = 0.008         # a sample at the mean speed of a 2-vCPU Xeon VM
SAMPLE_PERIOD_S = 0.1        # between samples taken during an operation


def speed_sample_s():
    """Seconds of a fixed loop of small numpy operations, the same kind
    of work as most of kepreg's, without calling kepreg."""
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.5, 0.2])
    A = 0.99 * np.eye(6)
    start = time.perf_counter()
    for _ in range(SAMPLE_LOOPS):
        y = A @ y + 0.01 * np.sin(y)
        float(np.dot(y, y))
    return time.perf_counter() - start


class Clock:
    """Times operations in reference seconds.

    A shared host runs the same code up to 1.8 times slower or faster
    for seconds at a time, which swamps the differences the benchmark is
    for.  While an operation runs, a wall-clock timer signal takes a
    speed sample every ``period`` seconds in the main thread, between two
    bytecodes of the operation; one more sample is taken before and one
    after it.  The operation's wall time, less the time spent sampling,
    is multiplied by SAMPLE_REF_S over the mean sample.  kepreg is not
    in the loop, so a change to kepreg moves the time and not the scale.
    ``sampled_s`` lets a tracer leave the sampling out of its spans.  Use
    it as a context manager, in the main thread.
    """

    def __init__(self, period=SAMPLE_PERIOD_S):
        self.period = period
        self.sampled_s = 0.0        # all time spent sampling so far
        self._samples = []
        self._raw_s = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self):
        start = time.perf_counter()
        self._samples.append(speed_sample_s())
        self.sampled_s += time.perf_counter() - start

    def _on_timer(self, signum, frame):
        self._sample()

    def run(self, fn, *args):
        """(result, wall seconds, scale to reference seconds) of fn(*args);
        the wall seconds exclude the sampling."""
        self._samples = self._samples[-1:]
        sampled_before = self.sampled_s
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        raw = end - start - (self.sampled_s - sampled_before)
        self._sample()
        self._raw_s += raw
        return result, raw, SAMPLE_REF_S / statistics.fmean(self._samples)

    def time(self, fn, *args):
        """(result, reference seconds) of fn(*args)."""
        result, raw, scale = self.run(fn, *args)
        return result, raw * scale

    def take_raw_s(self):
        """Wall seconds of the operations timed since the last call."""
        raw, self._raw_s = self._raw_s, 0.0
        return raw
