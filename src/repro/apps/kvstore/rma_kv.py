"""RMA-backed distributed key-value store (the ``repro.serve`` backend).

Extends the paper's Section 4.1 hashtable from insert-only to a full
get/put/update map, built from its lock-free idioms:

* slot claim:   ``CAS(0 -> key)`` on the slot's key word
* cell claim:   ``FADD(+1)`` on the next-free heap counter (word 0)
* chain link:   ``REPLACE`` on the slot's head word
* read-modify:  ``CAS(old -> new)`` on the value word (the CAS-update)
* read:         ``NO_OP`` get-accumulate of a slot or cell's three words

Every access to a word a reader can see is atomic, so reads need no
lock: ``get`` is one NO_OP read of the slot's ``(key, value, head)``
plus one per chain cell walked, with no flush or release.  NO_OP reads
compose with concurrent CAS/REPLACE under the MPI-3 separate memory
model, and the AMO engine applies each three-word read at one instant.

Writers (``put``/``update``) still serialize per striped MCS lock
(stripe = slot mod ``n_stripes``, queue tail at the key's owner), which
orders their mixed REPLACE/CAS on one word; the lock's happens-before
edge is the checker's ``mcs_acquired``/``mcs_released`` hook, and each
section ends with a ``flush`` so the next writer sees its effects.
Writers publish last, so a concurrent reader sees either the old state
or the whole new entry, never a half-written one:

* a slot claim writes the value, flushes, then CASes the key in;
* a chain insert writes the whole cell ``(key, value, next=head)``,
  flushes, then REPLACEs the slot head with the cell.

Cells are never unlinked and ``next`` never changes once published, so
a reader's chain walk cannot lose a key that was present before it
started.  The word-0 FADD crosses stripe boundaries but is only ever
touched by same-op SUM atomics, which MPI permits unordered.
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
_ZERO3 = np.zeros(3, dtype=np.int64)  # NO_OP operand: sizes the read


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
        """Three consecutive words from ``owner``'s volume, read
        atomically (one NO_OP get-accumulate)."""
        got = yield from self.win.get_accumulate(_ZERO3, owner, word,
                                                 Op.NO_OP)
        return int(got[0]), int(got[1]), int(got[2])

    def _write(self, owner: int, word: int, *values: int):
        """Atomically replace consecutive words, starting at ``word``."""
        yield from self.win.accumulate(np.array(values, dtype=np.int64),
                                       owner, word, Op.REPLACE)

    def _locate(self, owner: int, slot: int, key: int):
        """Find ``key``: (slot key word, slot head, chain hops,
        value-word index or None, current value)."""
        lay = self.layout
        kw, val, head = yield from self._read3(owner, lay.slot_key(slot))
        if kw == key:
            return kw, head, 0, lay.slot_value(slot), val
        hops = 0
        cell = head
        while cell != 0:
            hops += 1
            ck, cv, nxt = yield from self._read3(owner, lay.heap_key(cell))
            if ck == key:
                return kw, head, hops, lay.heap_value(cell), cv
            cell = nxt
        return kw, head, hops, None, 0

    def _insert_new(self, owner: int, slot: int, slot_key_word: int,
                    head: int, key: int, value: int):
        """Insert a key known (under the lock) to be absent, publishing
        it last: the key word or the slot head is written only after the
        entry behind it is complete at the target."""
        lay = self.layout
        win = self.win
        if slot_key_word == 0:
            yield from self._write(owner, lay.slot_value(slot), value)
            yield from win.flush(owner)
            old = yield from win.compare_and_swap(np.int64(0),
                                                  np.int64(key), owner,
                                                  lay.slot_key(slot))
            if int(old) != 0:
                raise RuntimeError("kvstore: slot claim raced under lock")
            return "table"
        cell0 = yield from win.fetch_and_op(np.int64(1), owner, 0, Op.SUM)
        cell = lay.claim_cell(int(cell0))
        yield from self._write(owner, lay.heap_key(cell), key, value, head)
        yield from win.flush(owner)
        yield from self._write(owner, lay.slot_head(slot), cell)
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
        """Value stored under ``key``, or None.  Lock-free: only NO_OP
        reads, so it never queues behind (or holds up) a writer's lock."""
        self._check_key(key)
        owner, slot = self.layout.place(key, self.ctx.nranks)
        _kw, _head, hops, loc, val = yield from self._locate(owner, slot,
                                                             key)
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
        kw, head, hops, loc, _val = yield from self._locate(owner, slot, key)
        if loc is not None:
            yield from self._write(owner, loc, value)
            path = "update"
        else:
            path = yield from self._insert_new(owner, slot, kw, head, key,
                                               value)
        # Completes the writes before release AND bumps oseq so this
        # rank's next critical section is ordered after them.
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
        kw, head, hops, loc, cur = yield from self._locate(owner, slot, key)
        if loc is None:
            new = delta & _MASK63
            yield from self._insert_new(owner, slot, kw, head, key, new)
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
