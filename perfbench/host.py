"""Host speed probe and the normalization of measured times.

The 2-vCPU virtual machine this benchmark was written on switches between a
slow and a fast state that last tens of seconds and differ by about 1.75x,
for every CPU-bound Python loop alike. A 20-second run then falls mostly in
one state, and the same code reads 1.75x apart from one run to the next.

So the benchmark times a fixed loop that does not use specgraft every quarter
second: between its units of work (sessions, audit calls) and,
in decode sessions, between steps from the ``tree_observer`` hook, with the
probe's own time taken out of the step and session times. A measured time is
scaled by ``REFERENCE_MS / probe_ms``, where ``probe_ms`` is the median probe
taken during it, or of the five closest to it. Normalized figures are what
the run would have measured on a host where the probe takes ``REFERENCE_MS``;
the measured figures and the probe times are printed beside them, so host
drift stays visible. README.md lists which figures are normalized and why.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 2.0  # probe time the normalized figures are scaled to
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.25
NEAREST = 5  # a probe reads within about 10%; the states last far longer


def probe_ms() -> float:
    """Fastest of a few runs of a fixed dict-and-float loop, in ms."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        acc = 0.0
        for i in range(6000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + 1
            acc += (i % 13) * 0.5
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


class HostMeter:
    """Probe samples over time, taken between units of work."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self) -> None:
        ms = probe_ms()
        self.times.append(time.perf_counter())
        self.probes.append(ms)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S

    def maybe_sample(self) -> None:
        if self.due():
            self.sample()

    def factor(self, start: float, seconds: float) -> float:
        """Scale for a unit of work that ran from ``start`` for ``seconds``:
        set by the median of the probes taken during the unit, or of the
        ``NEAREST`` probes closest to it if fewer were taken during it."""
        times = np.asarray(self.times)
        distance = np.abs(times - np.clip(times, start, start + seconds))
        count = max(NEAREST, int((distance == 0).sum()))
        nearest = np.argsort(distance, kind="stable")[:count]
        return REFERENCE_MS / float(np.median(np.asarray(self.probes)[nearest]))

    def median_ms(self) -> float:
        return float(np.median(self.probes))
