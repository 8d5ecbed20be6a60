"""Distributed MCS queue lock over RMA atomics.

The paper (Section 2.3): "The number of remote requests while waiting can
be bound by using MCS locks [24]".  The back-off protocol of Figure 3
issues an unbounded number of remote reads under contention; an MCS queue
bounds the traffic to O(1) remote operations per acquire/release because
each waiter spins on a *local* flag that its predecessor sets exactly
once.

Layout (three control words per rank, starting at the lock's base):

    word 0 at the home rank     tail: rank+1 of the last enqueued waiter
    word 1 at every rank        next: rank+1 of my successor (0 = none)
    word 2 at every rank        flag: set by my predecessor on hand-off

The *home* is chosen per acquisition (``acquire(home)``) and defaults
to the window master.  Every rank has a tail word at the base, so one
lock object names ``p`` independent queues, one per home: a store that
homes each key's lock at the key's owner keeps the synchronization at
the data, the way the paper keeps each target's lock word on that
target and only ``lock_all`` touches the master.

Acquire: SWAP my id into the tail; if there was a predecessor, publish
myself as its ``next`` and spin locally until it hands off.  Release: if
``next`` is empty, try CAS tail (me -> 0); on failure wait for the
successor to appear, then set its flag.  Every path issues a bounded
number of remote AMOs.
"""

from __future__ import annotations

from repro.errors import LockError

__all__ = ["McsLock", "IDX_TAIL", "IDX_NEXT", "IDX_FLAG"]

IDX_TAIL = 0
IDX_NEXT = 1
IDX_FLAG = 2


class McsLock:
    """One MCS lock instance bound to a window's control structures.

    All ranks of the window share the lock; the tail word lives at the
    acquisition's home rank (the window master unless ``acquire`` names
    another).  Ranks acquiring at different homes never wait on each
    other.  Uses three control words per rank (O(1) memory).
    """

    def __init__(self, win, cell_base: int | None = None) -> None:
        # cell_base: first control word to use (defaults to the user-
        # extension words past the PSCW ring; several MCS locks can
        # coexist by passing staggered bases).
        from repro.rma.window import CTRL_WORDS_BASE

        self.win = win
        self.base = (CTRL_WORDS_BASE + win.params.pscw_ring_capacity
                     if cell_base is None else cell_base)
        self.home = win.master  # tail's rank for the current acquisition
        self.holding = False
        self.remote_ops = 0  # for the boundedness tests
        # Recovery bookkeeping, written at AMO *delivery* time by the
        # guarded paths so it reflects what actually took effect remotely,
        # never this rank's possibly-stale view (repro.rma.recovery).
        self._queued = False      # swap delivered at the home
        self._pred = 0            # predecessor id (rank+1) the swap saw
        self._published = False   # next-pointer publication delivered
        self._token = False       # token held (acquired, or handed to us)
        self._handed = False      # hand-off to the successor delivered
        ctx = win.ctx
        if ctx.notifier is not None:
            ctx.world.blackboard.setdefault(
                ("mcs", win.win_id, self.base), {})[ctx.rank] = self

    def _cells(self, rank: int):
        return self.win.ctrl_refs[rank]

    def _amo(self, target: int, idx: int, op: str, a: int, b: int = 0,
             blocking: bool = True):
        ctx = self.win.ctx
        self.remote_ops += 1
        cells = self._cells(target)
        if ctx.same_node(target):
            return (yield from ctx.xpmem.amo(cells, self.base + idx, op, a, b))
        if blocking:
            return (yield from ctx.dmapp.amo_b(target, cells,
                                               self.base + idx, op, a, b))
        yield from ctx.dmapp.amo_nbi(target, cells, self.base + idx, op, a, b)
        return None

    def _amo_custom(self, target: int, mutate):
        """Blocking delivery-time mutate at ``target`` (recovery path)."""
        ctx = self.win.ctx
        self.remote_ops += 1
        if ctx.same_node(target):
            return (yield from ctx.xpmem.amo_custom(mutate))
        handle = yield from ctx.dmapp.amo_custom_nbi(target, mutate)
        return (yield from ctx.dmapp.wait(handle))

    def _amo_custom_to_peer(self, target: int, mutate):
        """Like :meth:`_amo_custom` but tolerant of a dead peer: the
        mutation is applied directly to the shared cells (they outlive the
        simulated process) so queue links stay consistent even when the
        peer's NIC is quarantined."""
        ctx = self.win.ctx
        from repro.errors import NodeCrashedError
        try:
            yield from self._amo_custom(target, mutate)
        except NodeCrashedError:
            yield from ctx.instr(self.win.params.instr_lock)
            mutate()

    # ------------------------------------------------------------------
    def acquire(self, home: int | None = None):
        """Enqueue at ``home``'s tail (default: the window master) and
        wait; O(1) remote AMOs regardless of contention.  The matching
        :meth:`release` uses the same home."""
        if self.holding:
            raise LockError("MCS lock is not reentrant")
        win = self.win
        ctx = win.ctx
        self.home = win.master if home is None else home
        t0 = ctx.now
        if ctx.notifier is not None:
            yield from self._acquire_guarded()
        else:
            yield from self._acquire_plain()
        obs = ctx.obs
        if obs is not None:
            # Lock-contention span: wait time is the whole enqueue-to-
            # hand-off interval (uncontended acquires show the bare AMO
            # round trip).  Pure recording -- never perturbs schedules.
            obs.rank_span(ctx.rank, "mcs.acquire", t0, ctx.now, cat="lock",
                          args={"win": win.win_id, "base": self.base,
                                "home": self.home})
            obs.metrics.count("mcs.acquires", ctx.rank)
            obs.metrics.observe("mcs.acquire_wait_ns", ctx.rank,
                                ctx.now - t0)
        ck = ctx.checker
        if ck is not None:
            # Happens-before: an exclusive MCS acquire is ordered after
            # every prior release of this lock instance at this home.
            ck.mcs_acquired(ctx.rank, (win.win_id, self.base, self.home))

    def _acquire_plain(self):
        win = self.win
        ctx = win.ctx
        me = ctx.rank + 1
        my = self._cells(ctx.rank)
        my.store(self.base + IDX_NEXT, 0)
        my.store(self.base + IDX_FLAG, 0)
        pred = yield from self._amo(self.home, IDX_TAIL, "replace", me)
        if pred != 0:
            # Publish myself to the predecessor, then spin on MY flag --
            # zero remote traffic while waiting (the MCS property).
            yield from self._amo(int(pred) - 1, IDX_NEXT, "replace", me,
                                 blocking=False)
            yield my.wait_until(self.base + IDX_FLAG, lambda v: v != 0)
            my.store(self.base + IDX_FLAG, 0)
        self.holding = True

    def release(self):
        """Hand off to the successor (or clear the tail).

        Checker contract: the release deposits this rank's clock *before*
        the hand-off AMO fires, so a successor's acquire observes it.
        Like the paper's lock examples, the program must flush its RMA
        operations before releasing for the edge to be truthful -- the
        MCS hand-off itself completes no RMA operations.
        """
        if not self.holding:
            raise LockError("releasing an MCS lock not held")
        win = self.win
        ctx = win.ctx
        ck = ctx.checker
        if ck is not None:
            ck.mcs_released(ctx.rank, (win.win_id, self.base, self.home))
        t0 = ctx.now
        if ctx.notifier is not None:
            yield from self._release_guarded()
        else:
            yield from self._release_plain()
        obs = ctx.obs
        if obs is not None:
            obs.rank_span(ctx.rank, "mcs.release", t0, ctx.now, cat="lock",
                          args={"win": win.win_id, "base": self.base,
                                "home": self.home})
            obs.metrics.count("mcs.releases", ctx.rank)

    def _release_plain(self):
        win = self.win
        ctx = win.ctx
        me = ctx.rank + 1
        my = self._cells(ctx.rank)
        if my.load(self.base + IDX_NEXT) == 0:
            old = yield from self._amo(self.home, IDX_TAIL, "cas", me, 0)
            if old == me:
                self.holding = False
                return
            # A successor is in the middle of enqueueing: wait for its
            # next-pointer publication (local spin).
            yield my.wait_until(self.base + IDX_NEXT, lambda v: v != 0)
        succ = int(my.load(self.base + IDX_NEXT)) - 1
        my.store(self.base + IDX_NEXT, 0)
        yield from self._amo(succ, IDX_FLAG, "replace", 1, blocking=False)
        self.holding = False

    # ------------------------------------------------------------------
    # failure-aware paths (identical wire protocol; the queue membership
    # flags are recorded atomically with each AMO's remote effect so the
    # recovery service knows exactly where a dead rank stood)
    # ------------------------------------------------------------------
    def _acquire_guarded(self):
        from repro.errors import NodeCrashedError
        from repro.rma import recovery

        win = self.win
        ctx = win.ctx
        me = ctx.rank + 1
        my = self._cells(ctx.rank)
        tail_cells = self._cells(self.home)
        my.store(self.base + IDX_NEXT, 0)
        my.store(self.base + IDX_FLAG, 0)
        self._queued = False
        self._pred = 0
        self._published = False
        self._token = False
        self._handed = False

        def swap_mutate():
            old = tail_cells.apply(self.base + IDX_TAIL, "replace", me)
            self._queued = True
            self._pred = int(old)
            if old == 0:
                self._token = True  # empty queue: token is ours on arrival
            return old

        try:
            pred = yield from self._amo_custom(self.home, swap_mutate)
        except NodeCrashedError as exc:
            recovery.fail_acquire(ctx, exc, "mcs acquire")
        if pred != 0:
            target = int(pred) - 1

            def publish_mutate():
                self._cells(target).apply(self.base + IDX_NEXT,
                                          "replace", me)
                self._published = True

            # The predecessor may be dead (or die mid-publication); the
            # queue link must be written regardless -- its zombie
            # forwarder reads it to hand the token onward.
            yield from self._amo_custom_to_peer(target, publish_mutate)
            if ctx.lock_ledger is not None:
                # Revocation on: a dead predecessor's token is forwarded
                # by its zombie, so the plain local spin terminates.
                yield my.wait_until(self.base + IDX_FLAG, lambda v: v != 0)
            else:
                # Revocation off: a dead predecessor never hands off --
                # race the spin against the failure notification.
                from repro.sim.kernel import AnyOf
                notifier = ctx.notifier
                while my.load(self.base + IDX_FLAG) == 0:
                    known = notifier.known(ctx.rank)
                    if known:
                        ctx.world.injector.stats.acquisitions_failed += 1
                        from repro.errors import RankFailedError
                        raise RankFailedError(
                            known, op="mcs acquire",
                            detail="lock revocation disabled; predecessor "
                                   "may never hand off")
                    yield AnyOf(ctx.env, [
                        my.wait_until(self.base + IDX_FLAG,
                                      lambda v: v != 0),
                        notifier.failure_event(ctx.rank)])
            my.store(self.base + IDX_FLAG, 0)
        self._token = True
        self.holding = True

    def _release_guarded(self):
        from repro.errors import NodeCrashedError

        win = self.win
        ctx = win.ctx
        me = ctx.rank + 1
        my = self._cells(ctx.rank)
        tail_cells = self._cells(self.home)
        if my.load(self.base + IDX_NEXT) == 0:

            def cas_mutate():
                old = tail_cells.cas(self.base + IDX_TAIL, me, 0)
                if old == me:
                    self._queued = False
                    self._token = False
                return old

            try:
                old = yield from self._amo_custom(self.home, cas_mutate)
            except NodeCrashedError:
                # The home died: the queue is gone with it.  Clear local
                # state; no survivor can be waiting on this lock's words.
                self._queued = False
                self._token = False
                self.holding = False
                return
            if old == me:
                self.holding = False
                return
            if ctx.lock_ledger is not None:
                # A dead mid-enqueue successor's publication is finished
                # by its zombie forwarder, so this spin terminates.
                yield my.wait_until(self.base + IDX_NEXT, lambda v: v != 0)
            else:
                from repro.errors import RankFailedError
                from repro.sim.kernel import AnyOf
                notifier = ctx.notifier
                while my.load(self.base + IDX_NEXT) == 0:
                    known = notifier.known(ctx.rank)
                    if known:
                        ctx.world.injector.stats.acquisitions_failed += 1
                        self.holding = False
                        raise RankFailedError(
                            known, op="mcs release",
                            detail="lock revocation disabled; successor "
                                   "died mid-enqueue")
                    yield AnyOf(ctx.env, [
                        my.wait_until(self.base + IDX_NEXT,
                                      lambda v: v != 0),
                        notifier.failure_event(ctx.rank)])
        succ = int(my.load(self.base + IDX_NEXT)) - 1

        def hand_mutate():
            self._cells(succ).apply(self.base + IDX_FLAG, "replace", 1)
            self._handed = True
            self._queued = False
            self._token = False

        # NEXT is cleared only *after* the hand-off is issued: if this
        # rank dies in between, its zombie forwarder still needs the
        # successor link to finish the hand-off.
        yield from self._amo_custom_to_peer(succ, hand_mutate)
        my.store(self.base + IDX_NEXT, 0)
        self.holding = False
