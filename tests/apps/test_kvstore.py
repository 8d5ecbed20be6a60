"""KvStore operation semantics: layout, paths (table/heap/update),
chain walks, misses, and cross-rank correctness."""

import numpy as np
import pytest

from repro.apps.hashtable.common import claim_overflow_cell
from repro.apps.kvstore.layout import KvLayout
from repro.apps.kvstore.rma_kv import KvStore
from repro.config import MachineConfig
from repro.runtime.job import run_spmd

MACHINE = MachineConfig(ranks_per_node=1)


def _run(program, nranks=1, *args, **kwargs):
    res = run_spmd(program, nranks, *args, machine=MACHINE, **kwargs)
    for r in res.returns:
        if isinstance(r, BaseException):
            raise r
    return res


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def test_layout_word_geometry():
    lay = KvLayout(table_slots=4, heap_cells=8)
    assert lay.words == 1 + 12 + 24
    assert lay.slot_key(0) == 1
    assert lay.slot_head(3) == 3 + 9
    assert lay.heap_key(1) == 1 + 12            # first cell is 1-based
    assert lay.heap_next(8) == lay.words - 1


def test_layout_scan_reads_slots_and_chains():
    lay = KvLayout(table_slots=1, heap_cells=4)
    vol = np.zeros(lay.words, dtype=np.int64)
    vol[lay.slot_key(0)], vol[lay.slot_value(0)] = 10, 100
    vol[lay.slot_head(0)] = 2
    vol[lay.heap_key(2)], vol[lay.heap_value(2)] = 11, 110
    vol[lay.heap_next(2)] = 1
    vol[lay.heap_key(1)], vol[lay.heap_value(1)] = 12, 120
    assert lay.scan(vol) == {10: 100, 11: 110, 12: 120}


def test_claim_overflow_cell_exhaustion():
    assert claim_overflow_cell(0, 2) == 1
    assert claim_overflow_cell(1, 2) == 2
    with pytest.raises(OverflowError):
        claim_overflow_cell(2, 2)


# ----------------------------------------------------------------------
# single-rank op semantics (table_slots=1 forces chains)
# ----------------------------------------------------------------------
def test_ops_single_rank_forced_chains():
    lay = KvLayout(table_slots=1, heap_cells=16)

    def program(ctx):
        store = KvStore(ctx, lay, n_stripes=1)
        yield from store.setup()
        log = {}
        # every key maps to slot 0: first insert takes the table slot,
        # the rest go to the overflow heap
        log["paths"] = []
        for key in (3, 5, 9, 17):
            path = yield from store.put(key, key * 100)
            log["paths"].append(path)
        log["get_heap"] = yield from store.get(9)
        log["miss"] = yield from store.get(1234)
        # overwrite resolves in place for both table and heap residents
        log["over_table"] = yield from store.put(3, 42)
        log["over_heap"] = yield from store.put(17, 43)
        log["get_over"] = yield from store.get(17)
        # CAS-update on present key; update-on-missing inserts the delta
        log["upd"] = yield from store.update(5, 7)
        log["upd_missing"] = yield from store.update(77, 9)
        log["get_upd_missing"] = yield from store.get(77)
        yield from ctx.coll.barrier()
        log["scan"] = store.scan_local()
        yield from store.close()
        return log

    res = _run(program, 1)
    log = res.returns[0]
    assert log["paths"] == ["table", "heap", "heap", "heap"]
    assert log["get_heap"] == 900
    assert log["miss"] is None
    assert log["over_table"] == "update" and log["over_heap"] == "update"
    assert log["get_over"] == 43
    assert log["upd"] == 507
    assert log["upd_missing"] == 9
    assert log["get_upd_missing"] == 9
    assert log["scan"] == {3: 42, 5: 507, 9: 900, 17: 43, 77: 9}


def test_chain_hops_observed():
    from repro.config import ObsConfig

    lay = KvLayout(table_slots=1, heap_cells=16)

    def program(ctx):
        store = KvStore(ctx, lay, n_stripes=1)
        yield from store.setup()
        for key in (3, 5, 9):
            yield from store.put(key, key)
        yield from store.get(9)
        yield from ctx.coll.barrier()
        yield from store.close()

    res = run_spmd(program, 1, machine=MACHINE,
                   obs=ObsConfig(enabled=True))
    hist = res.obs.metrics.merged_histogram("kv.chain_hops")
    assert hist.snapshot()["count"] > 0


def test_key_validation():
    lay = KvLayout(table_slots=1, heap_cells=4)

    def program(ctx):
        store = KvStore(ctx, lay)
        yield from store.setup()
        caught = []
        for bad in (0, -3, 1 << 63):
            try:
                yield from store.get(bad)
            except ValueError:
                caught.append(bad)
        yield from ctx.coll.barrier()
        yield from store.close()
        return caught

    res = _run(program, 1)
    assert res.returns[0] == [0, -3, 1 << 63]


def test_bad_stripes_rejected():
    with pytest.raises(ValueError):
        KvStore(None, KvLayout(table_slots=1, heap_cells=4), n_stripes=0)


# ----------------------------------------------------------------------
# cross-rank
# ----------------------------------------------------------------------
def test_cross_rank_puts_and_gets():
    """Each rank writes its own key range, reads everyone else's; the
    union of the final partitions is exactly the written map."""
    lay = KvLayout.default(16)
    nranks, per_rank = 4, 8

    def program(ctx):
        store = KvStore(ctx, lay)
        yield from store.setup()
        for i in range(per_rank):
            key = 1 + ctx.rank * per_rank + i
            yield from store.put(key, key * 10)
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        got = {}
        for key in range(1, nranks * per_rank + 1):
            got[key] = yield from store.get(key)
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        part = store.scan_local()
        yield from store.close()
        return got, part

    res = _run(program, nranks)
    expect = {k: k * 10 for k in range(1, nranks * per_rank + 1)}
    merged = {}
    for got, part in res.returns:
        assert got == expect
        merged.update(part)
    assert merged == expect


# ----------------------------------------------------------------------
# lock-free reads vs a concurrent insert: writers publish last
# ----------------------------------------------------------------------
RACE_RANKS = 8          # owner 0, readers 1..6 on its node, writer 7
RACE_MACHINE = MachineConfig(ranks_per_node=RACE_RANKS - 1)
RACE_LAYOUT = KvLayout(table_slots=1, heap_cells=16)
RACE_WINDOW_NS = 40_000
#: The readers share the owner's node, so each lock-free read is a CPU
#: atomic of well under 0.1 us; started this far apart, together they
#: sample the owner's memory every few ns -- far finer than the remote
#: writer's round trips, so any instant at which the store holds a
#: half-written entry is read.
RACE_STAGGER_NS = 15
#: keys owned by rank 0 (one slot, so every key after the first chains)
RACE_KEYS = [k for k in range(1, 1000)
             if RACE_LAYOUT.place(k, RACE_RANKS)[0] == 0][:3]


def _race_insert(preload: dict[int, int], key: int, value: int,
                 watch: int):
    """Preload ``preload``, then the writer (the one rank off the
    owner's node) puts ``key`` while the staggered readers spin
    lock-free gets of ``watch`` for RACE_WINDOW_NS.  Returns the set of
    values the readers saw and the final value of ``watch``."""
    writer = RACE_RANKS - 1

    def program(ctx):
        store = KvStore(ctx, RACE_LAYOUT, n_stripes=1)
        yield from store.setup()
        if ctx.rank == writer:
            for k, v in preload.items():
                yield from store.put(k, v)
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        t0 = ctx.now
        seen = []
        if ctx.rank == writer:
            yield from store.put(key, value)
        elif ctx.rank > 0:
            yield from ctx.compute(RACE_STAGGER_NS * ctx.rank)
            while ctx.now < t0 + RACE_WINDOW_NS:
                seen.append((yield from store.get(watch)))
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        final = yield from store.get(watch)
        yield from store.close()
        return seen, final

    res = run_spmd(program, RACE_RANKS, machine=RACE_MACHINE)
    for r in res.returns:
        if isinstance(r, BaseException):
            raise r
    return ({v for seen, _ in res.returns for v in seen},
            res.returns[0][1])


def test_get_during_slot_claim_sees_none_or_the_whole_entry():
    """The value lands before the key word is CASed in, so a concurrent
    get of the claimed key returns None or the new value -- never the
    empty value word (a torn 0)."""
    key = RACE_KEYS[0]
    assert _race_insert({}, key, 4242, key) == ({None, 4242}, 4242)


def test_get_during_chain_insert_never_loses_a_present_key():
    """The new cell ``(key, value, next=head)`` is complete at the
    target before the slot head points at it, so a concurrent get never
    walks into an empty cell: the chained key already present is found
    on every read, and the new key reads None or its value."""
    table_key, chained, new = RACE_KEYS
    preload = {table_key: 1, chained: 2}
    assert _race_insert(preload, new, 4343, chained) == ({2}, 2)
    assert _race_insert(preload, new, 4343, new) == ({None, 4343}, 4343)
