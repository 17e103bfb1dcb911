"""The core's speed, sampled while a workload runs, to scale its wall time.

The reference box shares its cores with other tenants, and a core's speed
there moves by 20-40 % within seconds (CPU time moves with wall time, so the
process is not waiting: the core itself is slower).  Raw wall times of the
same code then spread by more than the benchmark's bounds.

``SpeedProbe`` times a fixed pure-Python probe (small integer matrix products,
about 0.5 ms) every PERIOD_S seconds from a SIGALRM handler, which Python
runs in the main thread between the workload's bytecodes.  Each stretch of
workload time between two probes is scaled by REFERENCE_PROBE_S over the
median time of the nearby probes: the seconds that stretch would have taken
on a core that runs the probe in REFERENCE_PROBE_S.  The probes' own time is
left out of both the raw and the scaled time.  The probe is code of the
benchmark, so a change to the program moves the scaled time and not the
probe.

The probe does not track imports, which are mostly file access and loading
of shared objects: import times scaled by it spread twice as much as raw
ones.  So ``setup_s`` scales each import of klcells by REFERENCE_NUMPY_IMPORT_S
over the import time of numpy alone, timed in a fresh interpreter right
after it.  numpy is the program's dependency, not part of it, and is about
two thirds of its import; a change to the program that makes its import
slower or faster moves the scaled time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.03
# probes on each side of a stretch whose median is its local probe time
WINDOW = 12
# the probe's time on the reference box in a quiet moment, rounded
REFERENCE_PROBE_S = 0.0005
# numpy's import time on the reference box in a quiet moment, rounded
REFERENCE_NUMPY_IMPORT_S = 0.1

_M = [[(i * 4 + j) % 5 - 2 for j in range(4)] for i in range(4)]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def probe():
    x = _M
    for _ in range(25):
        x = _matmul(x, _M)
        x = [[v % 97 for v in row] for row in x]
    return x


def timed_probe() -> tuple[float, float]:
    """Runs the probe once with the collector off; returns its start and end."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes the core every PERIOD_S between ``start()`` and ``stop()``."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(timed_probe())

    def start(self) -> None:
        # a few probes up front, so the first stretch has neighbours
        self.probes.extend(timed_probe() for _ in range(WINDOW))
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.extend(timed_probe() for _ in range(WINDOW))

    def median_probe_s(self) -> float:
        return statistics.median(end - start for start, end in self.probes)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of workload in [start, end], probes excluded."""
        starts = [s for s, _ in self.probes]
        durations = [e - s for s, e in self.probes]
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_left(starts, end)
        cuts = [start]
        for s, e in self.probes[first:last]:
            cuts += [s, min(e, end)]
        cuts.append(end)
        raw = scaled = 0.0
        for k in range(0, len(cuts), 2):
            stretch = cuts[k + 1] - cuts[k]
            i = first + k // 2  # the first probe after this stretch
            local = statistics.median(durations[max(0, i - WINDOW):i + WINDOW])
            raw += stretch
            scaled += stretch * REFERENCE_PROBE_S / local
        return raw, scaled
