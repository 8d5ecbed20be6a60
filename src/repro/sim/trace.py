"""Span recording and operation counting.

`SpanLog` is the span-aware substrate of the observability layer
(:mod:`repro.obs`): the protocol layers append *finished* named spans -- lock acquisitions, epoch
durations, put/get/AMO issue-to-completion windows -- on the simulated
clock.  Recording is pure observation (list appends; nothing is ever
scheduled), so instrumented runs are bit-identical to uninstrumented
ones.  `OpCounters` is the workhorse for the scalability assertions in
the test suite: the paper claims O(log p) time/space and O(k) messages
for its protocols, and we verify those claims by *counting* actual
simulated operations rather than trusting the analytic model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["OpCounters", "SpanRecord", "SpanLog"]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span (or instant, when ``dur_ns == 0``) on a track.

    ``track`` names the track family (``"rank"`` or ``"nic"``), ``tid``
    the track instance (rank number / node number).  Times are simulated
    nanoseconds; ``args`` carries free-form labels for the exporters,
    frozen as a sorted item tuple.
    """

    track: str
    tid: int
    name: str
    cat: str
    start_ns: int
    dur_ns: int
    args: tuple = ()

    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class SpanLog:
    """Append-only log of finished spans with bounded memory.

    Appends past ``limit`` are counted in ``dropped`` instead of stored.
    Append order is the (deterministic) order protocol code closed the
    spans, so exports are reproducible without sorting by insertion time.
    """

    def __init__(self, limit: int = 500_000) -> None:
        self.spans: list[SpanRecord] = []
        self.dropped = 0
        self.limit = limit

    def __len__(self) -> int:
        return len(self.spans)

    def add(self, track: str, tid: int, name: str, cat: str,
            start_ns: int, end_ns: int, args: dict | None = None) -> None:
        """Record a finished span; ``args`` is snapshotted to a tuple."""
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return
        if end_ns < start_ns:
            end_ns = start_ns
        frozen = tuple(sorted(args.items())) if args else ()
        self.spans.append(SpanRecord(track, tid, name, cat, int(start_ns),
                                     int(end_ns - start_ns), frozen))

    def instant(self, track: str, tid: int, name: str, cat: str,
                ts_ns: int, args: dict | None = None) -> None:
        """Record a zero-duration mark."""
        self.add(track, tid, name, cat, ts_ns, ts_ns, args)


@dataclass
class OpCounters:
    """Per-run operation counters, aggregated across all ranks.

    ``remote_ops[rank]`` counts RDMA operations *issued by* each rank;
    ``nic_ops[rank]`` counts operations *serviced at* each rank's NIC
    (useful for hot-spot analysis); ``bytes_moved`` counts payload bytes on
    the network; ``control_memory[rank]`` tracks the peak number of
    control words (lock variables, matching-list slots, descriptors) a
    protocol allocated at each rank -- the paper's "memory overhead".
    """

    remote_ops: Counter = field(default_factory=Counter)
    nic_ops: Counter = field(default_factory=Counter)
    bytes_moved: int = 0
    messages: int = 0
    control_memory: Counter = field(default_factory=Counter)
    by_kind: Counter = field(default_factory=Counter)

    def count_issue(self, origin: int, kind: str, nbytes: int = 0) -> None:
        self.remote_ops[origin] += 1
        self.by_kind[kind] += 1
        self.bytes_moved += nbytes
        self.messages += 1

    def count_service(self, target: int) -> None:
        self.nic_ops[target] += 1

    def add_control_memory(self, rank: int, words: int) -> None:
        self.control_memory[rank] += words

    def max_remote_ops(self) -> int:
        return max(self.remote_ops.values(), default=0)

    def max_control_memory(self) -> int:
        return max(self.control_memory.values(), default=0)

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "max_remote_ops": self.max_remote_ops(),
            "max_control_memory": self.max_control_memory(),
            "by_kind": dict(self.by_kind),
        }
