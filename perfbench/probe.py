"""Host-speed probe: corrects a timed window for the speed the host gave it.

On a shared host a vCPU runs the same code at different speeds from one
moment to the next, depending on what other tenants run next to it.
While a window is timed, a ``SIGALRM`` every ``INTERVAL_S`` seconds runs
a fixed pure-Python loop in the measured process itself and times it.
The loop is the benchmark's own code, so the program under test cannot
change it; its median duration over the window tells how fast the host
ran during that window.  A corrected time is the raw time scaled to the
speed at which the loop takes ``REF_S``:

    corrected = raw * REF_S / median(loop durations in the window)

Python runs a signal handler between bytecodes, so a tick that lands in
a long NumPy call is taken when the call returns; coalesced ticks give
one sample.  The samples add about 1% to a window's raw time, the same
on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds between two probe samples
INTERVAL_S = 0.005
#: iterations of the probe loop
LOOP = 1000
#: the loop's median duration on an uncontended vCPU of the 2-vCPU Intel
#: Xeon VM the benchmark was calibrated on; corrected times are seconds
#: at that speed
REF_S = 50e-6


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


class SpeedProbe:
    """Samples the probe loop while the ``with`` block runs.

    Must be entered in the main thread (Python delivers signals there).
    The previous ``SIGALRM`` handler and timer are restored on exit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def median_s(self) -> float:
        """Median loop duration; a window too short for one sample is an error."""
        if not self.samples:
            raise RuntimeError("the speed probe took no sample in the timed window")
        return statistics.median(self.samples)


def corrected(raw_s: float, probe_s: float) -> float:
    """``raw_s`` scaled to the host speed at which the loop takes ``REF_S``."""
    return raw_s * REF_S / probe_s
