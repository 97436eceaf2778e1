"""A CPU clock corrected for the speed of a shared host.

On a shared virtual machine the same single-threaded work takes up to twice
as much CPU time in one minute as in the next: co-tenants on the physical
core slow the virtual CPU itself, through shared caches, execution units and
memory bandwidth, and no per-thread clock leaves that out.  Such spells last
from seconds to many minutes, longer than a run, so repeating the work
within a run does not remove them.

:class:`HostClock` measures the host's speed while the work runs.  Every
``INTERVAL_S`` of process CPU time a profiling timer interrupts the main
thread, whose signal handler times :func:`reference_work`, a fixed piece of
pure-Python work like the library's own (bit masks, sets, dicts, keyed
sorts) that shares no code with the library, so no change to the library
can speed it up or slow it down.  It is run once untimed first, so that
what the interrupted work left in the caches does not reach the sample.  The clock reads the thread's CPU time
without the handler's, and each stretch between two interrupts is scaled by
``NOMINAL_S`` over the mean reference time of the last ``WINDOW`` samples.
Its readings are therefore seconds of CPU time on a host that runs the
reference work in ``NOMINAL_S``: a change to the library moves them by its
own share, and a slower spell of the host does not.
"""
from __future__ import annotations

import signal
import time
from collections import deque
from itertools import combinations

INTERVAL_S = 0.03
WINDOW = 5
# reference-work time of the host that readings are scaled to: near its
# median, timed in the handler, on the shared 2-vCPU virtual machine the
# benchmark's bounds were set on (Python 3.11)
NOMINAL_S = 2.5e-4

_MASKS = [sum(1 << k for k in c) for c in combinations(range(8), 4)]
_ORDER = {e: k for k, e in enumerate((7, 2, 0, 5, 3, 1, 6, 4))}


def reference_work() -> int:
    """Fixed work with a fixed result: merge pairs of 4-subsets of an
    8-set in a fixed order, split the merge by position and count the
    halves that are again 4-subsets."""
    bases = set(_MASKS[::2])
    lists = [sorted((e for e in range(8) if B >> e & 1), key=_ORDER.__getitem__)
             for B in _MASKS[:12]]
    hits = 0
    for a, b in combinations(lists, 2):
        merged = sorted(a + b, key=_ORDER.__getitem__)
        odd = sum(1 << e for e in merged[0::2])
        even = sum(1 << e for e in merged[1::2])
        hits += (odd in bases) + (even in bases)
    return hits


class HostClock:
    """Callable clock, in corrected seconds, of the calling (main) thread.
    Samples the host only inside ``with``; outside it reads the thread's
    CPU time scaled by the last factor."""

    def __init__(self, interval: float = INTERVAL_S, window: int = WINDOW):
        self.interval = interval
        self.samples: deque[float] = deque(maxlen=window)
        self.reference_s = 0.0  # CPU time spent in the handler
        self.raw0 = time.thread_time()  # uncorrected work time at the last sample
        self.norm0 = 0.0  # corrected time at the last sample
        self.factor = 1.0
        self.version = 0  # odd while the handler changes the state
        self.sampled = 0  # reference samples taken, and their total time
        self.sampled_s = 0.0
        self._previous = None
        self.sample()

    def raw(self) -> float:
        """The thread's CPU time without the handler's, uncorrected."""
        return time.thread_time() - self.reference_s

    def __call__(self) -> float:
        while True:
            v = self.version
            t = self.norm0 + (self.raw() - self.raw0) * self.factor
            if v == self.version and not v & 1:
                return t

    def sample(self, *_signal) -> None:
        """Close the stretch since the last sample at the old factor, time
        the reference work and take the new factor."""
        if self.version & 1:  # a signal that arrived inside the handler
            return
        self.version += 1
        t0 = time.thread_time()
        work = t0 - self.reference_s
        self.norm0 += (work - self.raw0) * self.factor
        self.raw0 = work
        reference_work()
        t1 = time.thread_time()
        reference_work()
        ref = time.thread_time() - t1
        self.samples.append(ref)
        self.sampled += 1
        self.sampled_s += ref
        self.factor = NOMINAL_S * len(self.samples) / sum(self.samples)
        self.reference_s += time.thread_time() - t0
        self.version += 1

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
