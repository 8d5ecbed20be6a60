"""RMA-backed distributed key-value store (the ``repro.serve`` backend).

Extends the paper's Section 4.1 hashtable from insert-only to a full
get/put/update map.  Every data-plane operation runs inside a striped
MCS critical section (stripe = slot mod ``n_stripes``) whose queue tail
lives at the key's owner, so the store has ``p * n_stripes`` independent
lock queues and a request only ever queues at the rank holding its data.
The paper's lock-free idioms survive inside it:

* slot claim:   ``CAS(0 -> key)`` on the slot's key word
* cell claim:   ``FADD(+1)`` on the next-free heap counter (word 0)
* chain link:   ``FADD(REPLACE)`` on the slot's head word
* read-modify:  ``CAS(old -> new)`` on the value word (the CAS-update)

The MCS lock is what makes the *mixed* accesses well-defined: plain gets
of slot/chain words and the atomics above would otherwise be
atomic-vs-nonatomic races under the MPI-3 separate memory model.  The
lock's happens-before edge (checker hooks ``mcs_acquired`` /
``mcs_released``) orders cross-rank critical sections; within a rank,
each section ends with a ``flush`` so the next section's operations are
consecutive (oseq-ordered), not concurrent.  The word-0 FADD crosses
stripe boundaries but is only ever touched by same-op SUM atomics, which
MPI permits unordered.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.kvstore.layout import KvLayout
from repro.rma.enums import Op
from repro.rma.mcs import McsLock
from repro.rma.window import CTRL_WORDS_BASE

__all__ = ["KvStore"]

_MASK63 = (1 << 63) - 1


class KvStore:
    """One rank's handle on the distributed store.

    Usage (inside an SPMD program)::

        store = KvStore(ctx, KvLayout.default(keys_per_rank))
        yield from store.setup()          # collective
        yield from store.put(key, value)
        value = yield from store.get(key)
        new = yield from store.update(key, delta)
        yield from store.close()          # collective
    """

    def __init__(self, ctx, layout: KvLayout, n_stripes: int = 8) -> None:
        if n_stripes < 1:
            raise ValueError(f"n_stripes={n_stripes} must be >= 1")
        self.ctx = ctx
        self.layout = layout
        self.n_stripes = n_stripes
        self.win = None
        self.locks: list[McsLock] = []

    # ------------------------------------------------------------------
    def setup(self):
        """Allocate the store window and its stripe locks (collective)."""
        ctx = self.ctx
        need = 3 * self.n_stripes
        if ctx.rma.params.user_ctrl_words < need:
            # Each MCS lock takes three control words; widen the window's
            # user-extension area before creation so the stripes fit.
            ctx.rma.params = dataclasses.replace(ctx.rma.params,
                                                 user_ctrl_words=need)
        win = yield from ctx.rma.win_allocate(self.layout.nbytes,
                                              disp_unit=8)
        base0 = CTRL_WORDS_BASE + win.params.pscw_ring_capacity
        self.locks = [McsLock(win, cell_base=base0 + 3 * s)
                      for s in range(self.n_stripes)]
        yield from win.lock_all()
        self.win = win
        return win

    def close(self):
        """End the passive-target epoch (collective free is the caller's
        job if it wants one; the epoch must end before it)."""
        yield from self.win.unlock_all()

    # ------------------------------------------------------------------
    def _lock_for(self, slot: int) -> McsLock:
        return self.locks[slot % self.n_stripes]

    def _read3(self, owner: int, word: int):
        """Three consecutive words from ``owner``'s volume."""
        got = yield from self.win.get_blocking(owner, word, 24, np.int64)
        return int(got[0]), int(got[1]), int(got[2])

    def _write_word(self, owner: int, word: int, value: int):
        yield from self.win.put(np.array([value], dtype=np.int64),
                                owner, word)

    def _locate(self, owner: int, slot: int, key: int):
        """Find ``key`` under the lock: (slot key word, chain hops,
        value-word index or None, current value).  The caller must flush
        before writing so these reads are oseq-ordered ahead of it."""
        lay = self.layout
        kw, val, head = yield from self._read3(owner, lay.slot_key(slot))
        if kw == key:
            return kw, 0, lay.slot_value(slot), val
        hops = 0
        cell = head
        while cell != 0:
            hops += 1
            ck, cv, nxt = yield from self._read3(owner, lay.heap_key(cell))
            if ck == key:
                return kw, hops, lay.heap_value(cell), cv
            cell = nxt
        return kw, hops, None, 0

    def _insert_new(self, owner: int, slot: int, slot_key_word: int,
                    key: int, value: int):
        """Insert a key known (under the lock) to be absent.  Caller has
        flushed its reads already."""
        lay = self.layout
        win = self.win
        if slot_key_word == 0:
            old = yield from win.compare_and_swap(np.int64(0),
                                                  np.int64(key), owner,
                                                  lay.slot_key(slot))
            if int(old) != 0:
                raise RuntimeError("kvstore: slot claim raced under lock")
            yield from self._write_word(owner, lay.slot_value(slot), value)
            return "table"
        cell0 = yield from win.fetch_and_op(np.int64(1), owner, 0, Op.SUM)
        cell = lay.claim_cell(int(cell0))
        yield from self._write_word(owner, lay.heap_key(cell), key)
        yield from self._write_word(owner, lay.heap_value(cell), value)
        old_head = yield from win.fetch_and_op(np.int64(cell), owner,
                                               lay.slot_head(slot),
                                               Op.REPLACE)
        yield from self._write_word(owner, lay.heap_next(cell),
                                    int(old_head))
        return "heap"

    def _note(self, opname: str, owner: int, hops: int) -> None:
        obs = self.ctx.obs
        if obs is not None:
            # Hotspot accounting: who served the request (key-skew
            # heatmap) and how long its chain walk was.
            obs.metrics.count(f"kv.{opname}", self.ctx.rank)
            obs.metrics.count("kv.owner_requests", owner)
            if hops:
                obs.metrics.observe("kv.chain_hops", self.ctx.rank, hops)

    @staticmethod
    def _check_key(key: int) -> None:
        if not 0 < key <= _MASK63:
            raise ValueError(f"kvstore key {key} outside (0, 2^63]")

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def get(self, key: int):
        """Value stored under ``key``, or None."""
        self._check_key(key)
        owner, slot = self.layout.place(key, self.ctx.nranks)
        lock = self._lock_for(slot)
        yield from lock.acquire(owner)
        _kw, hops, loc, val = yield from self._locate(owner, slot, key)
        # Completes the reads before release AND bumps oseq so this
        # rank's next critical section is ordered after them.
        yield from self.win.flush(owner)
        yield from lock.release()
        self._note("get", owner, hops)
        return val if loc is not None else None

    def put(self, key: int, value: int):
        """Store ``value`` under ``key``; returns the path taken
        ('table' | 'heap' | 'update')."""
        self._check_key(key)
        value &= _MASK63
        owner, slot = self.layout.place(key, self.ctx.nranks)
        lock = self._lock_for(slot)
        yield from lock.acquire(owner)
        kw, hops, loc, _val = yield from self._locate(owner, slot, key)
        yield from self.win.flush(owner)  # order reads before the writes
        if loc is not None:
            yield from self._write_word(owner, loc, value)
            path = "update"
        else:
            path = yield from self._insert_new(owner, slot, kw, key, value)
        yield from self.win.flush(owner)
        yield from lock.release()
        self._note("put", owner, hops)
        return path

    def update(self, key: int, delta: int):
        """Add ``delta`` to ``key``'s value (inserting ``delta`` if the
        key is absent) via CAS on the value word; returns the new value."""
        self._check_key(key)
        owner, slot = self.layout.place(key, self.ctx.nranks)
        lock = self._lock_for(slot)
        yield from lock.acquire(owner)
        kw, hops, loc, cur = yield from self._locate(owner, slot, key)
        yield from self.win.flush(owner)
        if loc is None:
            new = delta & _MASK63
            yield from self._insert_new(owner, slot, kw, key, new)
        else:
            new = (cur + delta) & _MASK63
            old = yield from self.win.compare_and_swap(np.int64(cur),
                                                       np.int64(new),
                                                       owner, loc)
            if int(old) != cur:
                raise RuntimeError("kvstore: CAS-update raced under lock")
        yield from self.win.flush(owner)
        yield from lock.release()
        self._note("update", owner, hops)
        return new

    # ------------------------------------------------------------------
    def scan_local(self) -> dict[int, int]:
        """This rank's stored (key, value) pairs via the zero-copy local
        view.  Only sound after the remote traffic is ordered before the
        scan (e.g. flush_all + barrier); the access is declared to the
        race checker through :meth:`Window.note_local`, so an unordered
        scan is *reported*, not silently missed."""
        self.win.note_local("load", self.layout.nbytes)
        return self.layout.scan(self.win.local_view(np.int64))
