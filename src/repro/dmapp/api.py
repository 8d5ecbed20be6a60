"""DMAPP endpoint: per-rank RDMA operations over the network model.

Completion semantics (matching real DMAPP closely enough for the paper's
protocols):

* every operation has a *remote completion* time -- when its effect is
  globally visible and the origin could know (ack round trip);
* explicit-nonblocking ops return a :class:`DmappHandle` that can be
  waited on individually;
* implicit-nonblocking ops are only completed in bulk by :meth:`gsync`,
  exactly the primitive foMPI's flush/fence are built from.

Because the network layer computes delivery times eagerly (busy-until
channels), remote-completion *times* are known at issue; waiting is then a
single timeout rather than per-packet events.  Target-memory mutation still
happens via an event callback at the delivery instant, so reads at the
target observe writes in true simulated-time order.

Every op body -- put chunking and payload capture, the get landing
closure, the AMO effects, the handle, FIFO admission and the CPU wait --
is written once, in :class:`DmappEndpoint`.  The wire legs go through
three transmission hooks: :meth:`~DmappEndpoint._deliver_reliably`
(a request whose effect runs at delivery, then the ack),
:meth:`~DmappEndpoint._fetch` (a get's request plus the target NIC's
response leg) and :meth:`~DmappEndpoint._stream` (a streamed AMO through
the target's AMO engine).  On a reliable fabric each hook makes one
attempt with no fate draw.  :class:`ResilientDmappEndpoint` overrides
only the hooks (seeded-fate retry loops), the quarantine check, the
exactly-once AMO wrapper and one FT-restore wrapper around the op bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.errors import DeadlineError, NodeCrashedError, SimulationError
from repro.mem.atomic import AtomicArray
from repro.mem.registration import MemDescriptor, RegistrationTable
from repro.machine.network import Network

__all__ = ["DmappEndpoint", "ResilientDmappEndpoint", "DmappHandle"]

_HEADER_BYTES = 24  # request header: opcode + rkey + vaddr (get/amo requests)
_AMO_BYTES = 16     # AMO request payload: operand + address


def _as_payload(data) -> memoryview:
    """Issue-time capture of a put payload as a flat byte view.

    ``bytes`` input is immutable, so the view aliases it with *no* copy;
    mutable buffers are snapshotted once (the DMA capture the docstrings
    promise); numpy arrays flatten through ``tobytes`` -- the same C-order
    byte reinterpretation the old ``ascontiguousarray(...).view(uint8)``
    produced, but as a single copy with no per-chunk numpy machinery.
    Chunk pieces are then zero-copy ``memoryview`` slices of this capture,
    and land at the target through :meth:`Segment.write`'s slice-copy fast
    path.
    """
    if type(data) is bytes:
        return memoryview(data)
    if isinstance(data, (bytearray, memoryview)):
        return memoryview(bytes(data))
    return memoryview(np.asarray(data).tobytes())


@dataclass
class DmappHandle:
    """Explicit-nonblocking operation handle."""

    kind: str
    local_complete: int   # ns: origin buffer reusable
    remote_complete: int  # ns: effect visible + ack at origin
    result: np.ndarray | int | None = None  # filled for fetch ops at delivery


class DmappEndpoint:
    """One rank's DMAPP context.

    Mutating operations accept an optional ``on_applied`` delivery
    callback, invoked inside the target-side effect closure right after
    the mutation lands (puts: per chunk with ``(offset, piece)``; AMOs:
    with the old value(s)).  The FT layer uses it for demand-driven
    put/atomic logging; it is never called for deduplicated AMO replays.
    """

    # Observability sink; assigned by RankContext when the world carries
    # an Instrumentation, else stays None and every hook is one test.
    obs = None
    # Rollback-recovery runtime; assigned by RankContext when the world
    # carries an FTRuntime (same None-when-off contract as obs).
    ft = None

    def __init__(
        self,
        env,
        rank: int,
        network: Network,
        rank_map,
        reg_tables: dict[int, RegistrationTable],
    ) -> None:
        self.env = env
        self.rank = rank
        self.network = network
        self.rank_map = rank_map
        self.reg_tables = reg_tables
        self.node = rank_map.node_of(rank)
        self._horizon = 0      # latest remote-completion time of any op
        self._issued = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _wire_back(self, target_node: int) -> float:
        return self.network.wire(target_node, self.node)

    def _track(self, handle: DmappHandle, target: int | None = None,
               nbytes: int = 0) -> DmappHandle:
        self._horizon = max(self._horizon, handle.remote_complete)
        self._issued += 1
        # Data movement is forward progress for the watchdog; AMOs are
        # deliberately NOT marks (a spinning lock issues AMOs forever).
        if handle.kind in ("put", "get"):
            self.env.note_progress()
        # env.now has not advanced since issue (every op body computes its
        # times eagerly and only yields after _track), so now == t0.
        if self.obs is not None and target is not None:
            self.obs.on_op(self.rank, handle.kind, target, self.env.now,
                           handle.remote_complete, nbytes)
        return handle

    # ------------------------------------------------------------------
    # transmission hooks (one attempt each on a reliable fabric)
    # ------------------------------------------------------------------
    def _deliver_reliably(self, tnode: int, nbytes: int, effect, kind: str,
                          target_rank: int, is_amo: bool = False):
        """Send one request whose ``effect(t)`` runs at delivery.

        Returns ``(inject_end, complete)``: when the origin NIC drained
        the payload, and when the ack is back at the origin.
        """
        net = self.network
        window = net.occupy_injection(self.node, nbytes)
        delivery, _ev = net.packet(self.node, tnode, nbytes,
                                   inject_window=window, is_amo=is_amo,
                                   on_deliver=effect)
        return window[1], int(round(delivery + self._wire_back(tnode)))

    def _fetch(self, tnode: int, nbytes: int, target_rank: int):
        """Get round trip: a header-only request, then the response leg.
        Returns ``(inject_end, data_arrival)``."""
        net = self.network
        window = net.occupy_injection(self.node, _HEADER_BYTES)
        req_delivery, _ev = net.packet(self.node, tnode, _HEADER_BYTES,
                                       inject_window=window)
        resp_end = self._respond(tnode, req_delivery, nbytes)
        return window[1], int(round(resp_end + self._wire_back(tnode)))

    def _stream(self, tnode: int, nbytes: int, n: int, effect, kind: str,
                target_rank: int):
        """One streamed-AMO packet; returns ``(inject_end, complete)``."""
        window = self.network.occupy_injection(self.node, nbytes)
        delivery = self._amo_engine(tnode, window[1], n)
        self._at(delivery, effect)
        return window[1], int(round(delivery + self._wire_back(tnode)))

    def _exactly_once(self, handle: DmappHandle, effect, seq: int):
        """Guard an atomic's target-side effect, issued as the origin's
        ``seq``-th atomic, against re-application by retransmits (a
        reliable fabric never retransmits)."""
        return effect

    # -- the target-side legs both transports share ----------------------
    def _respond(self, tnode: int, req_delivery: int, nbytes: int) -> int:
        """The target NIC reads memory and streams a get's response back,
        sharing the target's injection bandwidth with its own outbound
        traffic (small responses use the FMA path).  Returns when the
        response has drained from the target NIC."""
        net = self.network
        p = net.params
        resp_ready = req_delivery + p.get_target_overhead
        if net.injector is not None:
            # A stalled target NIC serves the response after the stall.
            resp_ready = max(resp_ready, net.injector.stall_release(
                tnode, int(round(resp_ready))))
        nic = net.nic(tnode)
        resp_chan = nic.fma if nbytes <= p.fma_threshold else nic.bte
        _resp_start, resp_end = resp_chan.occupy(
            int(round(max(p.nic_packet_gap, nbytes * p.get_gap_per_byte))),
            earliest=int(round(resp_ready)))
        return resp_end

    def _amo_engine(self, tnode: int, inj_end: int, n: int,
                    extra_delay_ns: int = 0) -> int:
        """One packet of ``n`` AMOs through the target's AMO engine
        (``amo_gap`` per element); returns the delivery time.  Bandwidth
        was paid at injection, so the head arrives with the tail."""
        net = self.network
        p = net.params
        wire = (p.wire_latency(net.hops(self.node, tnode)) + p.nic_latency
                + net._noise() + extra_delay_ns)
        head = inj_end + wire
        if net.injector is not None:
            head = max(head, net.injector.stall_release(tnode,
                                                        int(round(head))))
        chan = net.nic(tnode).amo_engine
        start = max(int(round(head)), chan.busy_until)
        chan.busy_until = start + int(round(p.amo_gap * n))
        chan.total_busy += int(round(p.amo_gap * n))
        net.counters.count_service(tnode)
        return chan.busy_until + int(round(p.amo_service))

    def _at(self, t: int, effect) -> None:
        """Run a target-side ``effect`` at time ``t`` (for legs that do
        not go through :meth:`Network.packet`)."""
        env = self.env
        ev = env.event(name="amo-stream")
        ev.callbacks.append(lambda _e: effect(env.now))
        ev.succeed(delay=max(0, t - env.now))

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    def put_nbi(self, desc: MemDescriptor, offset: int, data,
                on_applied=None) -> "Generator":
        """Implicit-nonblocking put; completed by :meth:`gsync`.

        Charges the origin process for injection backpressure (this is what
        bounds the message rate at 1/o_inject) and captures ``data`` at
        issue time, as the hardware DMA would.  Payloads above
        ``max_chunk`` go out as several packets.
        """
        payload = _as_payload(data)
        seg = self.reg_tables[desc.rank].resolve(desc)
        seg._check(offset, payload.nbytes)  # fail at issue, like a bad rkey
        net = self.network
        tnode = self.rank_map.node_of(desc.rank)
        total = payload.nbytes
        chunk = net.params.max_chunk
        pos = 0
        complete = self.env.now
        while True:
            n = min(chunk, total - pos) if total else 0
            piece = payload[pos:pos + n]
            off = offset + pos

            def _write(_t, seg=seg, off=off, piece=piece):
                seg.write(off, piece)  # idempotent: retransmits re-write
                if on_applied is not None:
                    on_applied(off, piece)

            inj_end, done = self._deliver_reliably(tnode, max(1, n), _write,
                                                   "put", desc.rank)
            # The CPU blocks for the descriptor write, or -- when the
            # injection FIFO is full -- until an older descriptor drained.
            admit = net.injection_admit(self.node, inj_end, max(1, n))
            net.counters.count_issue(self.rank, "put", n)
            # Chunks can complete out of order (a small tail chunk takes
            # the FMA path while bulk chunks drain on the BTE): remote
            # completion is the MAX over chunks, not the last one.
            if done > complete:
                complete = done
            pos += n
            if pos >= total:
                break
        handle = self._track(DmappHandle("put", inj_end, complete),
                             desc.rank, total)
        # The CPU is blocked only until the NIC accepted the descriptor
        # (o_inject); the DMA drain itself overlaps with computation.
        wait = max(self.env.now + int(round(net.params.o_inject)),
                   admit) - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def put_nb(self, desc: MemDescriptor, offset: int, data):
        """Explicit-nonblocking put (same cost; waitable handle)."""
        return (yield from self.put_nbi(desc, offset, data))

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    def get_nbi(self, desc: MemDescriptor, offset: int, nbytes: int,
                out: np.ndarray | None = None):
        """Implicit-nonblocking get; data lands in ``out`` (or the handle's
        ``result``) at remote completion."""
        seg = self.reg_tables[desc.rank].resolve(desc)
        seg._check(offset, nbytes)
        if out is not None and out.nbytes != nbytes:
            raise SimulationError(
                f"get out-buffer is {out.nbytes} B, expected {nbytes}")
        inj_end, data_arrival = self._fetch(
            self.rank_map.node_of(desc.rank), nbytes, desc.rank)
        handle = DmappHandle("get", inj_end, data_arrival)

        # Memory is read at the target and landed at data_arrival.
        def _read_at_target(event):
            if out is not None and out.flags["C_CONTIGUOUS"]:
                # Zero-copy landing: one slice copy from target memory
                # straight into the caller's buffer (watch hook included).
                flat = out.view(np.uint8).ravel()
                seg.read_into(offset, memoryview(flat.data))
                handle.result = flat
                return
            data = seg.read(offset, nbytes)
            handle.result = data
            if out is not None:
                out.view(np.uint8).ravel()[:] = data

        ev = self.env.event(name="get-data")
        ev.callbacks.append(_read_at_target)
        ev.succeed(delay=max(0, data_arrival - self.env.now))
        net = self.network
        net.counters.count_issue(self.rank, "get", nbytes)
        self._track(handle, desc.rank, nbytes)
        admit = net.injection_admit(self.node, inj_end, _HEADER_BYTES)
        wait = max(self.env.now + int(round(net.params.o_inject)),
                   admit) - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def get_b(self, desc: MemDescriptor, offset: int, nbytes: int):
        """Blocking get: waits for the data; returns a uint8 array."""
        handle = yield from self.get_nbi(desc, offset, nbytes)
        yield from self.wait(handle)
        return handle.result

    # ------------------------------------------------------------------
    # AMOs
    # ------------------------------------------------------------------
    def amo_nbi(self, target_rank: int, cells: AtomicArray, idx: int,
                op: str, operand: int, operand2: int = 0, fetch: bool = False,
                on_applied=None, *, seq: int = 0):
        """One 8-byte AMO at the target NIC.

        ``op='cas'`` uses ``operand`` as compare and ``operand2`` as swap.
        With ``fetch=True`` the old value is available in ``handle.result``
        once the handle completes.  ``seq`` is the atomic's per-origin
        sequence number (used only by the resilient transport's
        exactly-once replay cache).
        """
        if op == "cas":
            mutate = partial(cells.cas, idx, operand, operand2)
        else:
            mutate = partial(cells.apply, idx, op, operand)
        handle, wait = self._amo(target_rank, "amo", f"amo:{op}", mutate,
                                 on_applied, seq)
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def amo_custom_nbi(self, target_rank: int, mutate, *, seq: int = 0):
        """Protocol-level chained AMO: run ``mutate()`` atomically at the
        target NIC at delivery time (one injection).

        Models operation chains the NIC executes without origin round
        trips -- foMPI's PSCW free-storage append (fetch-ticket + write
        slot, Figure 2c) uses this.  ``mutate`` returns a value exposed in
        ``handle.result``.
        """
        handle, wait = self._amo(target_rank, "amo-custom", "amo:custom",
                                 mutate, None, seq)
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def _amo(self, target_rank: int, kind: str, label: str, mutate,
             on_applied, seq: int) -> tuple[DmappHandle, int]:
        """Issue one single-packet AMO: ``mutate()`` runs at the target
        NIC and its return value is the handle's result.  Returns the
        handle and how long the issuing CPU is blocked."""
        handle = DmappHandle(kind, 0, 0)

        def _execute(_t):
            old = handle.result = mutate()
            if on_applied is not None:
                on_applied(old)

        inj_end, complete = self._deliver_reliably(
            self.rank_map.node_of(target_rank), _AMO_BYTES,
            self._exactly_once(handle, _execute, seq), label, target_rank,
            is_amo=True)
        handle.local_complete = inj_end
        handle.remote_complete = complete
        net = self.network
        net.counters.count_issue(self.rank, label, 8)
        self._track(handle, target_rank, 8)
        admit = net.injection_admit(self.node, inj_end, _AMO_BYTES)
        return handle, max(self.env.now + int(round(net.params.o_inject)),
                           admit) - self.env.now

    def amo_b(self, target_rank: int, cells: AtomicArray, idx: int,
              op: str, operand: int, operand2: int = 0, on_applied=None):
        """Blocking fetching AMO; returns the OLD value."""
        handle = yield from self.amo_nbi(target_rank, cells, idx, op,
                                         operand, operand2, fetch=True,
                                         on_applied=on_applied)
        yield from self.wait(handle)
        return handle.result

    def amo_stream_nbi(self, target_rank: int, cells: AtomicArray,
                       base_idx: int, op: str, operands, fetch: bool = False,
                       on_applied=None, *, seq: int = 0):
        """Streamed AMOs over consecutive cells (foMPI accelerated
        accumulate): one injection, AMO-engine occupancy per element.

        This is what produces the paper's P_acc,sum = 28 ns/elem + 2.4 us.
        """
        ops = [int(v) for v in np.asarray(operands).ravel()]
        n = len(ops)
        if n == 0:
            raise SimulationError("empty AMO stream")
        nbytes = 8 * n
        label = f"amo-stream:{op}"
        handle = DmappHandle("amo-stream", 0, 0)

        def _execute(_t):
            old = [cells.apply(base_idx + i, op, v) for i, v in enumerate(ops)]
            if fetch:
                handle.result = np.array(old, dtype=np.uint64)
            if on_applied is not None:
                on_applied(old)

        inj_end, complete = self._stream(
            self.rank_map.node_of(target_rank), nbytes, n,
            self._exactly_once(handle, _execute, seq), label, target_rank)
        handle.local_complete = inj_end
        handle.remote_complete = complete
        net = self.network
        net.counters.count_issue(self.rank, label, nbytes)
        self._track(handle, target_rank, nbytes)
        admit = net.injection_admit(self.node, inj_end, nbytes)
        wait = max(self.env.now + int(round(net.params.o_inject)),
                   admit) - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def extend_completion(self, handle: DmappHandle, extra_ns: float) -> None:
        """Push a handle's remote completion later by ``extra_ns``.

        Used by baselines whose software agent processes the operation at
        the *target* after delivery (Cray MPI-2.2 model): the extra time is
        asynchronous to the origin CPU, so it extends the completion
        horizon instead of charging origin compute.
        """
        handle.remote_complete += int(round(extra_ns))
        self._horizon = max(self._horizon, handle.remote_complete)

    def wait(self, handle: DmappHandle):
        """Wait for one explicit handle's remote completion."""
        delta = handle.remote_complete - self.env.now
        if delta > 0:
            yield self.env.timeout(delta)
        return handle.result

    def wait_local(self, handle: DmappHandle):
        delta = handle.local_complete - self.env.now
        if delta > 0:
            yield self.env.timeout(delta)

    def gsync(self):
        """Bulk remote completion of everything this endpoint issued."""
        delta = self._horizon - self.env.now
        if delta > 0:
            yield self.env.timeout(delta)

    @property
    def completion_horizon(self) -> int:
        return self._horizon

    @property
    def ops_issued(self) -> int:
        return self._issued


class ResilientDmappEndpoint(DmappEndpoint):
    """Hardened DMAPP transport for faulty fabrics.

    Every operation is transmitted until its effect is applied *and*
    acknowledged, or until the retry budget is exhausted:

    * per-op deadlines: a missing ack after ``op_deadline_ns`` triggers a
      NIC-driven retransmission (the issuing CPU is charged only for the
      first attempt's descriptor write -- recovery overlaps computation);
    * retransmits are idempotent for put/get (re-writing the same bytes /
      re-reading) and exactly-once for AMOs: each atomic carries a
      sequence number and the injector caches its result keyed by
      ``(origin_rank, seq)``, so a replayed atomic whose first copy took
      effect (only the ack was lost) returns the cached old value
      instead of re-applying;
    * retransmission attempts back off exponentially (capped) with seeded
      jitter, so replay timing is deterministic for a given seed + plan;
    * :class:`~repro.errors.DeadlineError` is raised after
      ``max_retries`` failed attempts, or
      :class:`~repro.errors.NodeCrashedError` when the target node is
      known to have fail-stopped (quarantine: ops to crashed nodes fail
      fast without touching the wire).

    The op bodies are :class:`DmappEndpoint`'s; this class overrides only
    the transmission hooks, the exactly-once wrapper, and the public ops
    to route them through :meth:`_restoring`.
    """

    def __init__(self, env, rank, network, rank_map, reg_tables,
                 injector, fault_config) -> None:
        super().__init__(env, rank, network, rank_map, reg_tables)
        self.injector = injector
        self.fault_config = fault_config
        # Per-origin AMO sequence numbers (checkpointed by repro.ft, so a
        # restarted rank re-issues its atomics under the same numbers).
        self._op_seq = 0

    # ------------------------------------------------------------------
    # op wrappers: quarantine + FT restore (AMOs also draw their seq)
    # ------------------------------------------------------------------
    def put_nbi(self, desc: MemDescriptor, offset: int, data,
                on_applied=None):
        return (yield from self._restoring(
            desc.rank, "put", DmappEndpoint.put_nbi, desc, offset, data,
            on_applied))

    def get_nbi(self, desc: MemDescriptor, offset: int, nbytes: int,
                out: np.ndarray | None = None):
        return (yield from self._restoring(
            desc.rank, "get", DmappEndpoint.get_nbi, desc, offset, nbytes,
            out))

    def amo_nbi(self, target_rank: int, cells: AtomicArray, idx: int,
                op: str, operand: int, operand2: int = 0,
                fetch: bool = False, on_applied=None):
        return (yield from self._restoring(
            target_rank, f"amo:{op}", DmappEndpoint.amo_nbi, target_rank,
            cells, idx, op, operand, operand2, fetch, on_applied,
            seq=self._next_seq()))

    def amo_custom_nbi(self, target_rank: int, mutate):
        return (yield from self._restoring(
            target_rank, "amo:custom", DmappEndpoint.amo_custom_nbi,
            target_rank, mutate, seq=self._next_seq()))

    def amo_stream_nbi(self, target_rank: int, cells: AtomicArray,
                       base_idx: int, op: str, operands,
                       fetch: bool = False, on_applied=None):
        return (yield from self._restoring(
            target_rank, f"amo-stream:{op}", DmappEndpoint.amo_stream_nbi,
            target_rank, cells, base_idx, op, operands, fetch, on_applied,
            seq=self._next_seq()))

    def _next_seq(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def _restoring(self, target_rank: int, kind: str, body, *args, **kw):
        """Run one op ``body``, refusing quarantined targets.  With
        rollback recovery on, a crashed-but-recoverable target is waited
        out and the body re-run -- under the same ``seq``, so the replay
        cache deduplicates an atomic whose first copy already landed
        (``kw`` carries an atomic's ``seq`` to ``body``)."""
        while True:
            try:
                # A restore may have moved the target to a spare node.
                self._quarantine_check(self.rank_map.node_of(target_rank),
                                       kind, target_rank)
                return (yield from body(self, *args, **kw))
            except NodeCrashedError as exc:
                if self.ft is None:
                    raise
                yield from self.ft.pause_for_restore(self.rank, target_rank,
                                                     exc)

    def _quarantine_check(self, tnode: int, op: str, target_rank: int) -> None:
        """Fail fast on ops addressed to a node already known crashed."""
        inj = self.injector
        if inj.node_crashed(tnode, self.env.now):
            raise NodeCrashedError(
                tnode, inj.crash_time(tnode),
                f"{op} from rank {self.rank} to rank {target_rank} refused "
                f"(node quarantined)")

    def _exactly_once(self, handle: DmappHandle, effect, seq: int):
        inj = self.injector
        rank = self.rank

        def _execute(t):
            if inj.amo_executed(rank, seq):
                handle.result = inj.replay_result(rank, seq)
                return
            effect(t)
            inj.record_amo(rank, seq, handle.result)

        return _execute

    # ------------------------------------------------------------------
    # transmission hooks: seeded fates + retransmission
    # ------------------------------------------------------------------
    def _retry(self, tnode: int, kind: str, target_rank: int, attempt):
        """Run ``attempt(resend_floor)`` until it returns a completion.

        ``attempt`` draws its fates, transmits once and returns
        ``(inject_end, complete)`` with ``complete=None`` when the
        request, its effect or its ack was lost.  Returns the first
        attempt's ``inject_end`` (the CPU is charged for that one only)
        and the completion time.  Gives up with NodeCrashedError as soon
        as an attempt injects past the target's crash (every later
        retransmit would inject even later).
        """
        inj = self.injector
        cfg = self.fault_config
        env = self.env
        attempts = 0
        resend_floor: int | None = None
        first_end: int | None = None
        while True:
            attempts += 1
            if attempts > cfg.max_retries + 1:
                inj.stats.deadline_failures += 1
                inj._trace("deadline", self.node, dst=tnode,
                           attempts=attempts - 1)
                ct = inj.crash_time(tnode)
                if ct is not None and env.now >= ct:
                    raise NodeCrashedError(
                        tnode, ct,
                        f"{kind} from rank {self.rank} to rank "
                        f"{target_rank} undeliverable")
                raise DeadlineError(kind, target_rank, attempts - 1,
                                    cfg.op_deadline_ns)
            inj_end, complete = attempt(resend_floor)
            if first_end is None:
                first_end = inj_end
            if complete is not None:
                return first_end, complete
            # Lost somewhere (request dropped/corrupted, target crashed,
            # or the ack went missing): the source NIC times out after the
            # op deadline and retransmits with capped, jittered backoff.
            ct = inj.crash_time(tnode)
            if ct is not None and inj_end >= ct:
                raise NodeCrashedError(
                    tnode, ct,
                    f"{kind} from rank {self.rank} to rank "
                    f"{target_rank} undeliverable (target crashed)")
            inj.stats.retransmits += 1
            # Draw the backoff exactly once: the obs hook must reuse it,
            # or recording would consume an extra jitter sample and
            # perturb the (seeded, deterministic) retransmit schedule.
            backoff = inj.backoff_ns(attempts)
            if self.obs is not None:
                self.obs.on_retransmit(self.rank, kind, target_rank,
                                       env.now, attempts,
                                       int(round(backoff)))
            resend_floor = int(round(inj_end + cfg.op_deadline_ns
                                     + backoff))

    def _deliver_reliably(self, tnode: int, nbytes: int, effect, kind: str,
                          target_rank: int, is_amo: bool = False):
        """Transmit one request until applied + acked.  ``effect`` rides
        every attempt; it must be idempotent (put rewrites) or
        self-deduplicating (AMOs via :meth:`_exactly_once`)."""
        inj = self.injector
        net = self.network

        def attempt(resend_floor):
            fate = inj.packet_fate(self.node, tnode)
            window = net.occupy_injection(self.node, nbytes,
                                          earliest=resend_floor)
            delivery, ev = net.packet(
                self.node, tnode, nbytes, inject_window=window,
                is_amo=is_amo, fate=fate, on_deliver=effect)
            if ev.name == "packet-deliver":
                ack = inj.packet_fate(tnode, self.node)
                if not ack.lost:
                    return window[1], int(round(
                        delivery + self._wire_back(tnode)
                        + ack.extra_delay_ns))
            return window[1], None

        return self._retry(tnode, kind, target_rank, attempt)

    def _fetch(self, tnode: int, nbytes: int, target_rank: int):
        inj = self.injector
        net = self.network

        def attempt(resend_floor):
            fate = inj.packet_fate(self.node, tnode)
            window = net.occupy_injection(self.node, _HEADER_BYTES,
                                          earliest=resend_floor)
            req_delivery, ev = net.packet(
                self.node, tnode, _HEADER_BYTES, inject_window=window,
                fate=fate)
            if ev.name == "packet-deliver":
                resp = inj.packet_fate(tnode, self.node)
                if not resp.lost:
                    resp_end = self._respond(tnode, req_delivery, nbytes)
                    if not inj.node_crashed(tnode, resp_end):
                        return window[1], int(round(
                            resp_end + self._wire_back(tnode)
                            + resp.extra_delay_ns))
            return window[1], None

        return self._retry(tnode, "get", target_rank, attempt)

    def _stream(self, tnode: int, nbytes: int, n: int, effect, kind: str,
                target_rank: int):
        inj = self.injector
        net = self.network

        def attempt(resend_floor):
            fate = inj.packet_fate(self.node, tnode)
            window = net.occupy_injection(self.node, nbytes,
                                          earliest=resend_floor)
            if not fate.drop:
                delivery = self._amo_engine(tnode, window[1], n,
                                            fate.extra_delay_ns)
                if (not fate.corrupt
                        and not inj.node_crashed(tnode, delivery)):
                    self._at(delivery, effect)
                    ack = inj.packet_fate(tnode, self.node)
                    if not ack.lost:
                        return window[1], int(round(
                            delivery + self._wire_back(tnode)
                            + ack.extra_delay_ns))
            return window[1], None

        return self._retry(tnode, kind, target_rank, attempt)
