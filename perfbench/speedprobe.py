"""Times scaled to a reference core speed, measured while the code runs.

On a shared host a vCPU's speed switches between levels about 1.5x apart
every tenth of a second to a few seconds, and each vCPU switches on its
own, so the wall time of one encode depends on when it ran.  While a
:class:`SpeedProbe` is active, SIGALRM every INTERVAL_S interrupts the
measured thread, on its own core, to time a fixed small :func:`job`.
:meth:`SpeedProbe.scaled` turns a span of the program's time into the time
it takes on a core that runs the job in REFERENCE_S.

This module imports nothing but the standard library, so it can probe an
interpreter's own imports.
"""
from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# The job's time in the fast state of a 2-vCPU host (Xeon, SkylakeX).
REFERENCE_S = 0.064e-3
# In the slow state the codec also loses cache to the other tenant, which
# the job, working in registers, does not: across runs, the codec's time
# followed the job's to this power (README.md, "Scaled times").
EXPONENT = 1.5


def job() -> None:
    """The fixed job a probe times: a short pure-Python loop.

    It touches almost no memory, so its time follows the core's speed and
    not what the measured program left in the caches.
    """
    s = 0
    for i in range(1000):
        s += i * i


class SpeedProbe:
    """Context manager that times :func:`job` every INTERVAL_S while active."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        job()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` of time the program spent between ``start`` and
        ``end``, without the probes in that span, at the reference speed.

        The probe fires only between Python bytecodes, so a long native call
        delays the next sample.  A span no probe fell into is taken to have
        run at the reference speed.
        """
        inside = [d for t, d in zip(self.starts, self.durations) if start <= t < end]
        if not inside:
            return seconds
        speed = REFERENCE_S * len(inside) / sum(inside)
        return (seconds - sum(inside)) * speed ** EXPONENT
