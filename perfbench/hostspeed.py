"""Host-speed reference for the benchmark's host-time metrics.

A host whose cores are shared with other tenants runs the same code at
speeds that drift by up to 2x within seconds and by ~30% over minutes;
on such hosts the median of three 8 s runs of a fixed workload varied
by 0.30-0.40 (IQR / median over ten invocations).  The drift is common
to all code running at that moment: on a 2-vCPU KVM guest (Intel Xeon,
family 6 model 143), over 7.5 s windows of interleaved 0.25 s slices, a
dict loop, a generator/heapq loop and a 16 MB pointer chase ran at
speeds that correlate at 0.95-0.98.

``Sampler`` therefore times a fixed pure-Python probe from a SIGALRM
handler every ``PERIOD_S`` while the measured code runs (the handler
runs between the measured code's bytecodes, in its thread, and touches
none of its state), takes the probes' own time out of the interval and
scales the rest to a host on which one in-run probe takes
``REF_PROBE_S``: ``seconds = (elapsed - probe time) * REF_PROBE_S /
mean probe time``.  On the guest above this cut the IQR / median of
single 2.4 s milc_cg runs from 0.21 to 0.06.  ``raw`` keeps the plain
host seconds, without the probes.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Seconds between probes; one probe takes ~0.65 ms in a run, so the probes
#: use ~1.3% of the measured interval.
PERIOD_S = 0.05
#: Probe time, in seconds, of the reference host the results are scaled
#: to (close to the in-run probe time on the guest above).
REF_PROBE_S = 0.65e-3
#: Probes taken after the interval when it was too short to sample.
MIN_SAMPLES = 8


def _ticker(n):
    x = 0
    for i in range(n):
        x = yield i
    return x


def probe() -> float:
    """Run the fixed probe once; returns its host seconds."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(3000):
        s += i * 3
        d[i & 255] = s
    gens = [_ticker(16) for _ in range(16)]
    for g in gens:
        next(g)
    queue: list = []
    seq = 0
    for r in range(16):
        for j in range(len(gens)):
            seq += 1
            heapq.heappush(queue, (r * 7 + j, seq, j))
        while queue:
            t, _, j = heapq.heappop(queue)
            try:
                gens[j].send(t)
            except StopIteration:
                pass
    return time.perf_counter() - t0


class Sampler:
    """Context manager: ``seconds`` is the block's host time at the
    reference speed, ``raw`` its plain host time (both without the
    probes), ``probes`` the number of probes taken inside it."""

    seconds: float
    raw: float
    probes: int

    def _tick(self, _signum, _frame) -> None:
        self._samples.append(probe())

    def __enter__(self) -> Sampler:
        self._samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        probed = sum(self._samples)
        self.probes = len(self._samples)
        while len(self._samples) < MIN_SAMPLES:
            self._samples.append(probe())
        self.raw = elapsed - probed
        self.seconds = self.raw * REF_PROBE_S / statistics.fmean(
            self._samples)
        return False
