"""Accumulates, fetch-and-op, CAS: fast path and software fallback."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.rma.enums import Op

INTER = MachineConfig(ranks_per_node=1)
INTRA = MachineConfig(ranks_per_node=64)


@pytest.mark.parametrize("cfg", [INTER, INTRA], ids=["inter", "intra"])
def test_accumulate_sum_hw_path(cfg):
    p = 4

    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        yield from win.fence()
        vals = np.full(4, ctx.rank + 1, dtype=np.int64)
        yield from win.accumulate(vals, 0, 0, Op.SUM)
        yield from win.fence()
        return win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, p, machine=cfg)
    total = sum(r + 1 for r in range(p))
    assert res.returns[0] == [total] * 4


def test_accumulate_band_bor_bxor():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        win.local_view(np.int64)[:3] = [0b1111, 0b0000, 0b1010]
        yield from win.fence()
        if ctx.rank == 1:
            yield from win.accumulate(np.array([0b1100], np.int64), 0, 0, Op.BAND)
            yield from win.accumulate(np.array([0b0011], np.int64), 0, 1, Op.BOR)
            yield from win.accumulate(np.array([0b0110], np.int64), 0, 2, Op.BXOR)
        yield from win.fence()
        return win.local_view(np.int64)[:3].tolist()

    # disp_unit=1 -> displacements are bytes; use element stride of 8
    def program8(ctx):
        win = yield from ctx.rma.win_allocate(256, disp_unit=8)
        win.local_view(np.int64)[:3] = [0b1111, 0b0000, 0b1010]
        yield from win.fence()
        if ctx.rank == 1:
            yield from win.accumulate(np.array([0b1100], np.int64), 0, 0, Op.BAND)
            yield from win.accumulate(np.array([0b0011], np.int64), 0, 1, Op.BOR)
            yield from win.accumulate(np.array([0b0110], np.int64), 0, 2, Op.BXOR)
        yield from win.fence()
        return win.local_view(np.int64)[:3].tolist()

    res = run_spmd(program8, 2, machine=INTER)
    assert res.returns[0] == [0b1100, 0b0011, 0b1100]


def test_accumulate_min_fallback_path():
    """MPI_MIN has no NIC AMO: takes the lock-get-modify-put protocol."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256, disp_unit=8)
        win.local_view(np.int64)[:4] = [10, -5, 7, 100]
        yield from win.fence()
        if ctx.rank == 1:
            vals = np.array([3, 0, 50, -2], dtype=np.int64)
            yield from win.accumulate(vals, 0, 0, Op.MIN)
        yield from win.fence()
        return win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] == [3, -5, 7, -2]


def test_accumulate_float_takes_fallback():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256, disp_unit=8)
        yield from win.fence()
        vals = np.array([0.5, 1.25], dtype=np.float64)
        yield from win.accumulate(vals, 0, 0, Op.SUM)
        yield from win.fence()
        return win.local_view(np.float64)[:2].tolist()

    res = run_spmd(program, 3, machine=INTER)
    assert res.returns[0] == [1.5, 3.75]


def test_fallback_is_atomic_under_contention():
    """All ranks MIN-accumulate concurrently; the internal lock must
    serialize read-modify-write cycles (no lost updates)."""
    p, iters = 4, 3

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        win.local_view(np.float64)[0] = 0.0
        yield from win.fence()
        for i in range(iters):
            yield from win.accumulate(np.array([1.0]), 0, 0, Op.SUM)
        yield from win.fence()
        return win.local_view(np.float64)[0]

    res = run_spmd(program, p, machine=INTER)
    assert res.returns[0] == p * iters


def test_get_accumulate_returns_old():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        win.local_view(np.int64)[0] = 100
        yield from win.fence()
        old = None
        if ctx.rank == 1:
            old = yield from win.get_accumulate(np.array([5], np.int64),
                                                0, 0, Op.SUM)
        yield from win.fence()
        return (None if old is None else int(old[0]),
                int(win.local_view(np.int64)[0]))

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1][0] == 100   # fetched pre-update value
    assert res.returns[0][1] == 105   # target updated


def test_fetch_and_op_serializes():
    """Concurrent fetch-and-add must hand out unique tickets -- this is
    the hashtable's next-free-slot pattern."""
    p = 6

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.fence()
        old = yield from win.fetch_and_op(np.int64(1), 0, 0, Op.SUM)
        yield from win.fence()
        return int(old)

    res = run_spmd(program, p, machine=INTER)
    assert sorted(res.returns) == list(range(p))


def test_compare_and_swap():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.fence()
        old = yield from win.compare_and_swap(np.int64(0), np.int64(ctx.rank + 1),
                                              0, 0)
        yield from win.fence()
        winner = int(win.local_view(np.int64)[0]) if ctx.rank == 0 else None
        return int(old), winner

    res = run_spmd(program, 4, machine=INTER)
    olds = [r[0] for r in res.returns]
    assert olds.count(0) == 1          # exactly one CAS won
    winner_val = res.returns[0][1]
    assert winner_val == olds.index(0) + 1


def test_cas_latency_matches_paper():
    """P_CAS = 2.4 us (Figure 6a)."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        t0 = ctx.now
        if ctx.rank == 0:
            yield from win.compare_and_swap(np.int64(0), np.int64(1), 1, 0)
        dt = ctx.now - t0
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return dt

    res = run_spmd(program, 2, machine=INTER)
    assert 2000 <= res.returns[0] <= 2900, res.returns[0]


def test_accumulate_stream_rate_matches_paper():
    """P_acc,sum ~ 28 ns/element + 2.4 us."""
    def timed(n):
        def program(ctx):
            win = yield from ctx.rma.win_allocate(1 << 21, disp_unit=8)
            yield from win.lock_all()
            t0 = ctx.now
            if ctx.rank == 0:
                vals = np.ones(n, dtype=np.int64)
                yield from win.accumulate(vals, 1, 0, Op.SUM)
                yield from win.flush(1)
            dt = ctx.now - t0
            yield from win.unlock_all()
            yield from ctx.coll.barrier()
            return dt

        return run_spmd(program, 2, machine=INTER).returns[0]

    t1, t4096 = timed(1), timed(4096)
    per_elem = (t4096 - t1) / 4095
    assert 20 <= per_elem <= 40, per_elem      # ~28 ns/elem
    assert 2000 <= t1 <= 3200, t1              # ~2.4 us base


def test_min_fallback_beats_sum_stream_at_large_counts():
    """Figure 6a crossover: the locked protocol has higher base cost but
    put/get bandwidth, so it wins for large element counts."""
    n = 1 << 15

    def program(ctx):
        win = yield from ctx.rma.win_allocate(n * 8 + 64, disp_unit=8)
        yield from win.lock_all()
        out = {}
        if ctx.rank == 0:
            vals = np.ones(n, dtype=np.int64)
            t0 = ctx.now
            yield from win.accumulate(vals, 1, 0, Op.SUM)
            yield from win.flush(1)
            out["sum"] = ctx.now - t0
            t0 = ctx.now
            yield from win.accumulate(vals, 1, 0, Op.MIN)
            yield from win.flush(1)
            out["min"] = ctx.now - t0
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return out

    res = run_spmd(program, 2, machine=INTER)
    out = res.returns[0]
    assert out["min"] < out["sum"]


# ----------------------------------------------------------------------
# NO_OP: the atomic read rides the AMO engine as a fetching add of 0
# ----------------------------------------------------------------------
WORDS = [7, -3, 11]
PATHS = {"inter": (INTER, ""), "intra": (INTRA, "cpu-")}


def _read_at_rank1(cfg, call, faults=None):
    """Rank 0 runs ``call(win)`` against rank 1's window, which holds
    WORDS, inside lock_all.  Returns (rank 0's (result, elapsed ns,
    acc_path of a 3-word NO_OP), rank 1's words afterwards, stats)."""
    from repro.rma.accumulate import acc_path

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        if faults is not None:
            ctx.ft.protect(win)
        win.local_view(np.int64)[:3] = WORDS
        yield from ctx.coll.barrier()
        yield from win.lock_all()
        out = None
        if ctx.rank == 0 and call is not None:
            t0 = ctx.now
            got = yield from call(win)
            out = (np.asarray(got).tolist(), ctx.now - t0,
                   acc_path(win, Op.NO_OP, np.zeros(3, np.int64), 0))
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return out, win.local_view(np.int64)[:3].tolist()

    res = run_spmd(program, 2, machine=cfg, faults=faults)
    return res.returns[0][0], res.returns[1][1], res.stats


def _issued(cfg, call):
    """Operations ``call`` issued, net of the surrounding epoch's."""
    from collections import Counter

    base = Counter(_read_at_rank1(cfg, None)[2]["by_kind"])
    return Counter(_read_at_rank1(cfg, call)[2]["by_kind"]) - base


def _get_acc(op, operand=0):
    return lambda win: win.get_accumulate(np.full(3, operand, np.int64),
                                          1, 0, op)


def _fao(op, operand=0):
    return lambda win: win.fetch_and_op(np.int64(operand), 1, 1, op)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_no_op_get_accumulate_is_one_amo_stream(path):
    """A 3-word NO_OP get_accumulate returns the target's words, leaves
    them unchanged (the operand is ignored), takes the hw path, issues
    exactly one fetching-add stream -- no IDX_ACC_LOCK CAS, get, put or
    release -- and costs exactly what a SUM-of-0 stream does, well under
    the locked fallback."""
    cfg, prefix = PATHS[path]
    (got, dt, tag), after, _ = _read_at_rank1(cfg, _get_acc(Op.NO_OP, 99))
    assert got == WORDS and after == WORDS
    assert tag == "hw"
    assert _issued(cfg, _get_acc(Op.NO_OP, 99)) == \
        {f"{prefix}amo-stream:add": 1}
    (_, dt_sum, _), _, _ = _read_at_rank1(cfg, _get_acc(Op.SUM))
    (_, dt_sw, _), _, _ = _read_at_rank1(cfg, _get_acc(Op.MAX, -100))
    assert dt == dt_sum < dt_sw


@pytest.mark.parametrize("path", sorted(PATHS))
def test_no_op_fetch_and_op_is_one_amo(path):
    cfg, prefix = PATHS[path]
    (got, dt, _), after, _ = _read_at_rank1(cfg, _fao(Op.NO_OP, 99))
    assert got == WORDS[1] and after == WORDS
    assert _issued(cfg, _fao(Op.NO_OP, 99)) == {f"{prefix}amo:add": 1}
    (_, dt_sum, _), _, _ = _read_at_rank1(cfg, _fao(Op.SUM))
    (_, dt_sw, _), _, _ = _read_at_rank1(cfg, _fao(Op.MAX, -100))
    assert dt == dt_sum < dt_sw


def test_no_op_reads_log_nothing_on_a_protected_window():
    """The FT put-log records only atomics that changed a word, so an
    atomic read of a log-protected window adds no entry (a SUM of 1,
    the control, adds one)."""
    from repro.ft.workloads import ft_faults

    def log_entries(call):
        return _read_at_rank1(INTER, call,
                              faults=ft_faults())[2]["ft"]["log_entries"]

    assert log_entries(_get_acc(Op.NO_OP)) == 0
    assert log_entries(_fao(Op.NO_OP)) == 0
    assert log_entries(_fao(Op.SUM, 1)) == 1


@pytest.mark.parametrize("path", sorted(PATHS))
def test_multi_element_stream_applies_at_one_instant(path):
    """One rank REPLACEs eight words with v for v = 1..N while two
    others read the first three with NO_OP streams: every read sees one
    v in all three words.  Each stream -- the writer's and the readers'
    -- is applied at one instant, so no read is torn.  (The write is
    wider than the read so that streams applied element by element
    would advance at different per-element rates and tear.)"""
    cfg, _ = PATHS[path]
    n = 40

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        seen = []
        if ctx.rank == 1:
            for v in range(1, n + 1):
                yield from win.accumulate(np.full(8, v, np.int64), 0, 0,
                                          Op.REPLACE)
                yield from win.flush(0)
        elif ctx.rank > 1:
            yield from ctx.compute(300 * ctx.rank)
            for _ in range(n):
                got = yield from win.get_accumulate(np.zeros(3, np.int64),
                                                    0, 0, Op.NO_OP)
                seen.append(tuple(got.tolist()))
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return seen

    res = run_spmd(program, 4, machine=cfg)
    reads = res.returns[2] + res.returns[3]
    assert all(a == b == c for a, b, c in reads), reads
    # the reads really overlapped the writes
    assert len({r[0] for r in reads} - {0, n}) > 5
