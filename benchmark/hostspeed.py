"""Host speed sampling, to take the host's drift out of the benchmark's timings.

On a shared host the same code runs at up to half speed from one second to
the next: a fixed ``NetSimulator.step`` + ``coordinate`` loop ranged from 1.5
to 3.3 us/step within 40 s, while process CPU time tracked wall time.  The
probe is a fixed pure-Python loop of the kinds of work the engines do (method
calls, slot attributes, float math with ``exp`` and powers) that runs no
``resplit`` code, so no change to ``resplit`` moves it.  A timer runs it every
PERIOD_S of wall time from a SIGALRM handler, which Python runs between
bytecodes of whatever is executing, engine calls included: the samples cover
the whole of a long call, not only its ends.  The handler's own time is
counted, so a timed region can leave it out.  Engine time scaled by the
host's speed, ``REF_NS`` over the probe's duration, reads as seconds at the
speed the host had when ``REF_NS`` was measured.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

# A typical probe duration on the host the benchmark was calibrated on (2 vCPU
# VM, Python 3.11.7, where its median ranged 0.8-1.45 ms from one minute to
# the next); it only sets the scale of the adjusted seconds.
REF_NS = 1.0e6
PERIOD_S = 0.05


class _Body:
    __slots__ = ("level", "total")

    def __init__(self) -> None:
        self.level = 0.5
        self.total = 0.0

    def step(self, u: float) -> None:
        level = self.level
        c = 1.0 / (1.0 + math.exp(-level))
        self.level = 0.75 * level + 0.25 * u - 0.01 * (1.0 - c) ** 2.0
        self.total = self.total + (c if c > 0.5 else -c)


def _loop(n: int = 2500) -> float:
    body = _Body()
    u = 0.3
    for _ in range(n):
        body.step(u)
        u = -u
    return body.total


class HostSampler:
    """Probe durations sampled every PERIOD_S, and the time the sampling took."""

    def __init__(self) -> None:
        self.ends: list[int] = []  # perf_counter_ns at the end of each probe
        self.durations: list[int] = []
        self.stolen_ns = 0  # time spent in probes

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter_ns()
        _loop()
        end = time.perf_counter_ns()
        self.ends.append(end)
        self.durations.append(end - start)
        self.stolen_ns += end - start

    def start(self) -> None:
        self._probe()  # so every later interval has a probe before it
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Host speed over ``[start_ns, end_ns]`` relative to REF_NS, from the
        probes that ended in it and the last one before it."""
        if not self.ends:
            raise RuntimeError("the host sampler was never started")
        lo = max(0, bisect.bisect_left(self.ends, start_ns) - 1)
        hi = max(lo + 1, bisect.bisect_right(self.ends, end_ns))
        window = self.durations[lo:hi]
        return REF_NS * len(window) / sum(window)
