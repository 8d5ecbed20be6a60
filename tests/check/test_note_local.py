"""The local_view annotation API and the MCS-locked CAS path, each with
its racy twin.

``Window.local_view`` hands out a zero-copy numpy array the checker
cannot see through -- the documented tracking gap.  ``note_local``
closes it by explicit declaration: an annotated unordered scan is
*flagged*, its unannotated twin silently passes (the gap, pinned as a
test so the docs stay honest), and the properly ordered scan is clean.

A CAS-update that reads with plain gets mixes them with CAS on the
same words; an MCS lock is exactly what makes that well-defined (the
kvstore now reads with atomic NO_OPs instead).  The twin without the
lock must be flagged as the atomic-vs-nonatomic race it is, and so must
the twin whose ranks take the same lock words at two different homes.
"""

import numpy as np
import pytest

from repro.check.runner import run_checked
from repro.rma.enums import Op
from repro.rma.mcs import McsLock
from repro.rma.window import CTRL_WORDS_BASE


def _scan_program(ctx, annotate: bool, ordered: bool):
    win = yield from ctx.rma.win_allocate(64, disp_unit=8)
    yield from win.lock_all()
    if ctx.rank == 1:
        yield from win.put(np.array([7], np.int64), 0, 0)
        yield from win.flush(0)
    if ordered:
        yield from ctx.coll.barrier()
    if ctx.rank == 0:
        if annotate:
            win.note_local("load", 8)
        _ = int(win.local_view(np.int64)[0])
    yield from win.unlock_all()
    yield from ctx.coll.barrier()


def test_annotated_unordered_scan_is_flagged():
    _, ck = run_checked(_scan_program, 2, seed=11, annotate=True,
                        ordered=False)
    assert not ck.clean
    assert any({v.first.kind, v.second.kind} == {"local_load", "put"}
               for v in ck.violations)


def test_unannotated_twin_passes_the_documented_gap():
    """Bit-for-bit the same racy access pattern, minus the annotation:
    the checker cannot see through the zero-copy view.  This test IS
    the documentation of the gap -- if segment watching ever learns to
    catch it, this flips and the docs get updated."""
    _, ck = run_checked(_scan_program, 2, seed=11, annotate=False,
                        ordered=False)
    assert ck.clean


def test_annotated_ordered_scan_is_clean():
    _, ck = run_checked(_scan_program, 2, seed=11, annotate=True,
                        ordered=True)
    assert ck.clean, [v.describe() for v in ck.violations]


def test_note_local_rejects_bad_kind():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        try:
            win.note_local("write", 8)
        except ValueError:
            caught = True
        else:
            caught = False
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return caught

    res, _ = run_checked(program, 2, seed=11)
    assert res.returns[0] is True


# ----------------------------------------------------------------------
# a get + CAS update, with and without the MCS lock
# ----------------------------------------------------------------------
def _cas_update_program(ctx, locked: bool):
    """Both ranks read-modify word 1 of rank 0 via get + CAS -- the
    kvstore update path before its reads became atomic.  ``locked``
    wraps each critical section in the MCS lock (and flushes before
    release)."""
    win = yield from ctx.rma.win_allocate(64, disp_unit=8)
    lock = McsLock(win, cell_base=CTRL_WORDS_BASE
                   + win.params.pscw_ring_capacity)
    yield from win.lock_all()
    for _ in range(2):
        if locked:
            yield from lock.acquire()
        got = yield from win.get_blocking(0, 1, 8, np.int64)
        cur = int(got[0])
        yield from win.flush(0)
        yield from win.compare_and_swap(np.int64(cur), np.int64(cur + 1),
                                        0, 1)
        yield from win.flush(0)
        if locked:
            yield from lock.release()
    yield from ctx.coll.barrier()
    final = None
    if ctx.rank == 0:
        got = yield from win.get_blocking(0, 1, 8, np.int64)
        final = int(got[0])
        yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return final


def test_cas_update_under_mcs_lock_is_clean():
    res, ck = run_checked(_cas_update_program, 2, seed=11, locked=True)
    assert ck.clean, [v.describe() for v in ck.violations]
    # the lock also makes the read-modify-write sequentially consistent
    assert res.returns[0] == 4


def test_cas_update_without_lock_is_flagged():
    with pytest.raises(RuntimeError):
        # without mutual exclusion the CAS itself can observe a stale
        # read and fail -- either way the checker must flag the get/cas
        # overlap; tolerate both completions
        res, ck = run_checked(_cas_update_program, 2, seed=11,
                              locked=False)
        for r in res.returns:
            if isinstance(r, BaseException):
                raise r
        raise RuntimeError("completed without raising")
    # rerun purely for the checker verdict, swallowing rank errors
    res, ck = run_checked(_cas_update_program, 2, seed=11, locked=False)
    assert not ck.clean
    kinds = {frozenset((v.first.kind, v.second.kind))
             for v in ck.violations}
    assert frozenset(("get", "cas")) in kinds


def _homed_cas_update_program(ctx, homes):
    """One get + CAS on word 1 of rank 0 per rank, under the same MCS
    lock words acquired at ``homes[rank]``.  The sections are 50 us
    apart, so they never overlap in time: only the lock can order them."""
    win = yield from ctx.rma.win_allocate(64, disp_unit=8)
    lock = McsLock(win, cell_base=CTRL_WORDS_BASE
                   + win.params.pscw_ring_capacity)
    yield from win.lock_all()
    yield from ctx.compute(50_000 * ctx.rank)
    yield from lock.acquire(homes[ctx.rank])
    got = yield from win.get_blocking(0, 1, 8, np.int64)
    yield from win.flush(0)
    yield from win.compare_and_swap(got[0], np.int64(got[0] + 1), 0, 1)
    yield from win.flush(0)
    yield from lock.release()
    yield from ctx.coll.barrier()
    yield from win.unlock_all()
    yield from ctx.coll.barrier()


def test_same_base_same_home_orders_sections():
    _, ck = run_checked(_homed_cas_update_program, 2, seed=11,
                        homes=(1, 1))
    assert ck.clean, [v.describe() for v in ck.violations]


def test_same_base_different_homes_is_flagged():
    """Same cell_base, different homes: two independent queues, so no
    happens-before edge.  The get/CAS pair on one word is a race even
    though the sections never overlap in time."""
    _, ck = run_checked(_homed_cas_update_program, 2, seed=11,
                        homes=(0, 1))
    assert not ck.clean
    kinds = {frozenset((v.first.kind, v.second.kind))
             for v in ck.violations}
    assert frozenset(("get", "cas")) in kinds
