"""Kernel generation 2: golden bit-identity, delivery order, tie-breaks.

Three contracts from DESIGN.md's "Kernel generation 2" section:

* the front-slot scheduler (``run(fast=True)``, the default) and the
  pure-heap legacy oracle (``SimConfig(scheduler="legacy")``) process
  the exact same ``(when, priority, seq)`` schedule -- asserted end to
  end over every demo workload, a faulty run exercising every resilient
  DMAPP op, and a crash run, each pinned against a golden schedule;
* packets on one edge that land on the same tick are delivered in issue
  order, one kernel event each;
* same-tick events drain in ``(priority, seq)`` FIFO order across the
  front-slot/heap boundary, including urgent events scheduled while the
  tick is already draining.
"""

import numpy as np
import pytest

from repro.config import (
    FaultConfig,
    FaultPlan,
    MachineConfig,
    NicStall,
    NodeCrash,
    SimConfig,
)
from repro.machine.network import Network
from repro.machine.params import GeminiParams
from repro.machine.topology import RankMap, Torus3D
from repro.obs.workloads import WORKLOADS
from repro.rma.enums import Op
from repro.runtime.job import run_spmd
from repro.sim.kernel import NORMAL, URGENT, Environment

#: Pre-gen-2 golden schedules at seed 11, 4 ranks on one node (captured
#: before the calendar scheduler existed; the same numbers are pinned by
#: tests/obs/test_obs_integration.py).
GOLDEN = {
    "putget": (11835, 502),
    "locks": (22876, 566),
    "fence": (33492, 490),
    "pscw": (16611, 302),
}

#: Faulty and crash schedules at seed 13, 4 ranks on 4 nodes:
#: ``(sim_time_ns, events_processed, retransmits, faults)``.  The
#: faulty run goes through every resilient DMAPP op, so it pins the
#: order in which the shared op bodies and the retry hooks draw fates,
#: jitter and noise.
FAULTY_GOLDEN = {
    "every_op": (1124140, 832, 77, {
        "drops": 54, "corruptions": 23, "delays": 25, "stall_waits": 3,
        "amo_replays_suppressed": 21, "deadline_failures": 0,
        "crashed_nodes": []}),
    "crash": (26200, 299, 0, {
        "drops": 0, "corruptions": 0, "delays": 0, "stall_waits": 0,
        "amo_replays_suppressed": 0, "deadline_failures": 0,
        "crashed_nodes": [3]}),
}

EVERY_OP_PLAN = FaultPlan(
    drop_prob=0.15, corrupt_prob=0.05, delay_prob=0.1, delay_ns=5_000,
    stalls=(NicStall(node=1, start_ns=20_000, duration_ns=30_000),))
CRASH_PLAN = FaultPlan(crashes=(NodeCrash(node=3, time_ns=20_000),))


def _run(name, *, scheduler="gen2", faults=None, seed=11, rpn=4):
    return run_spmd(
        WORKLOADS[name], 4,
        machine=MachineConfig(ranks_per_node=rpn),
        sim=SimConfig(seed=seed, scheduler=scheduler),
        faults=faults or FaultConfig())


def _sig(res):
    return (res.sim_time_ns, res.events_processed, res.returns)


# ---------------------------------------------------------------------------
# wheel-vs-heap bit identity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gen2_matches_legacy_schedule(name):
    assert _sig(_run(name)) == _sig(_run(name, scheduler="legacy")), \
        f"{name}: gen2 fast loop diverged from the pure-heap oracle"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_legacy_and_unbatched_reproduce_golden_pins(name):
    """Both schedulers reproduce the pre-gen-2 golden schedule -- the
    refactor changed zero delivery times."""
    t_ns, events = GOLDEN[name]
    for scheduler in ("gen2", "legacy"):
        res = _run(name, scheduler=scheduler)
        assert (res.sim_time_ns, res.events_processed) == (t_ns, events), \
            f"{name}: scheduler={scheduler} drifted " \
            f"from golden ({res.sim_time_ns}, {res.events_processed})"


def test_gen2_matches_legacy_faulty_run():
    """Drops, corruption and latency spikes exercise the retransmit and
    stall paths; the schedule must still be scheduler-independent."""
    plan = FaultPlan(drop_prob=0.2, corrupt_prob=0.05,
                     delay_prob=0.1, delay_ns=5_000)
    kw = dict(faults=FaultConfig(plan=plan), seed=13, rpn=1)
    fast = _run("putget", **kw)
    legacy = _run("putget", scheduler="legacy", **kw)
    assert _sig(fast) == _sig(legacy)
    assert fast.stats["retransmits"] > 0  # the faults actually fired


def _every_op_prog(ctx):
    """One pass over every resilient DMAPP op: put, get, CAS, FADD and a
    streamed accumulate in a lock_all epoch, then a PSCW ring epoch
    (its post is a NIC-chained ``amo_custom``)."""
    win = yield from ctx.rma.win_allocate(256)
    right = (ctx.rank + 1) % ctx.nranks
    left = (ctx.rank - 1) % ctx.nranks
    got = np.empty(64, np.uint8)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    for i in range(4):
        yield from win.put(np.full(64, ctx.rank + i, np.uint8), right, 0)
        yield from win.flush(right)
        yield from win.get(got, right, 0)
        yield from win.flush(right)
        yield from win.compare_and_swap(np.uint64(i), np.uint64(i + 1),
                                        right, 128)
        yield from win.fetch_and_op(np.uint64(1), right, 136)
        yield from win.accumulate(np.ones(4, np.uint64), right, 144, Op.SUM)
        yield from win.flush(right)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.post([left])
    yield from win.start([right])
    yield from win.put(np.full(16, ctx.rank, np.uint8), right, 64)
    yield from win.complete()
    yield from win.wait()
    yield from ctx.coll.barrier()
    return int(got[0])


def _crash_prog(ctx):
    """Fence epochs across a fail-stop crash (the fault-matrix cell):
    survivors get structured EpochErrors, the dead rank an Interrupt."""
    win = yield from ctx.rma.win_allocate(256)
    for _ in range(3):
        yield from win.fence()
    return "ok"


def _faulty(name, scheduler="gen2"):
    prog, plan = {"every_op": (_every_op_prog, EVERY_OP_PLAN),
                  "crash": (_crash_prog, CRASH_PLAN)}[name]
    return run_spmd(prog, 4, machine=MachineConfig(ranks_per_node=1),
                    sim=SimConfig(seed=13, scheduler=scheduler),
                    faults=FaultConfig(plan=plan))


@pytest.mark.parametrize("name", sorted(FAULTY_GOLDEN))
def test_faulty_runs_reproduce_golden_pins(name):
    """Every resilient op under drop/corrupt/delay/stall, and a node
    crash, replay the pinned schedule and fault counters under both
    schedulers."""
    for scheduler in ("gen2", "legacy"):
        res = _faulty(name, scheduler)
        got = (res.sim_time_ns, res.events_processed,
               res.stats["retransmits"], res.stats["faults"])
        assert got == FAULTY_GOLDEN[name], \
            f"{name}: scheduler={scheduler} drifted from golden {got}"


def test_every_op_run_exercises_every_resilient_op():
    res = _faulty("every_op")
    kinds = res.stats["by_kind"]
    for kind in ("put", "get", "amo:cas", "amo:add", "amo:custom",
                 "amo-stream:add"):
        assert kinds.get(kind, 0) > 0, kind
    assert res.returns == [3, 4, 5, 6]


def test_crash_run_gen2_matches_legacy():
    """A fail-stop node crash mid-run (interrupts, quarantine errors,
    reaper process) must also be scheduler-independent."""
    fast = _faulty("crash")
    legacy = _faulty("crash", scheduler="legacy")
    sig = (fast.sim_time_ns, fast.events_processed,
           [type(r).__name__ for r in fast.returns])
    assert sig == (legacy.sim_time_ns, legacy.events_processed,
                   [type(r).__name__ for r in legacy.returns])
    assert any(isinstance(r, BaseException) for r in fast.returns)


# ---------------------------------------------------------------------------
# same-tick delivery: one event per packet, per-edge issue order
# ---------------------------------------------------------------------------
def test_same_edge_packets_deliver_in_issue_order():
    """Packets whose ejection is free land on one tick; each is its own
    kernel event, fired in issue order per edge."""
    env = Environment()
    params = GeminiParams(o_eject=0.0, nic_packet_gap=0.0,
                          amo_gap=0.0, amo_service=0.0)
    net = Network(env, Torus3D((4, 1, 1)), RankMap(nranks=4, ranks_per_node=1),
                  params)
    deliveries = []
    times = []
    for i in range(16):
        src = 2 if i % 2 else 0
        t, _ev = net.packet(src, 1, 8, charge_injection=False,
                            on_deliver=lambda now, i=i, s=src:
                            deliveries.append((now, s, i)))
        times.append(t)
    env.run()
    assert env.events_processed == 16
    assert [now for now, _s, _i in deliveries] == sorted(times)
    assert [i for _now, _s, i in deliveries] == list(range(16))


# ---------------------------------------------------------------------------
# tie-break audit: same-tick (priority, seq) FIFO across the front slot
# ---------------------------------------------------------------------------
def _same_tick_run(fast):
    """Many events on one tick, mixed priorities, scheduled in an order
    that forces front-slot evictions (later-but-smaller entries)."""
    env = Environment()
    order = []

    def note(tag):
        return lambda ev: order.append((env.now, tag))

    # Schedule NORMAL first, then URGENT (evicts the front slot), then
    # more NORMAL -- all at tick 10; plus a lone later tick.
    for i in range(3):
        ev = env.event(name=f"n{i}")
        ev.callbacks.append(note(("n", i)))
        ev.succeed(delay=10, priority=NORMAL)
    for i in range(2):
        ev = env.event(name=f"u{i}")
        ev.callbacks.append(note(("u", i)))
        ev.succeed(delay=10, priority=URGENT)
    late = env.event(name="late")
    late.callbacks.append(note(("late", 0)))
    late.succeed(delay=20)
    env.run(fast=fast)
    return order


def test_same_tick_priority_seq_fifo():
    expected = [(10, ("u", 0)), (10, ("u", 1)),
                (10, ("n", 0)), (10, ("n", 1)), (10, ("n", 2)),
                (20, ("late", 0))]
    assert _same_tick_run(fast=True) == expected
    assert _same_tick_run(fast=False) == expected


def _urgent_mid_drain_run(fast):
    """An URGENT event scheduled *while its tick is draining* must fire
    before the remaining NORMAL events of that tick (priority beats seq)
    -- this crosses the front-slot/heap boundary mid-drain."""
    env = Environment()
    order = []

    def fire_urgent(_ev):
        order.append("n0")
        u = env.event(name="u")
        u.callbacks.append(lambda ev: order.append("u"))
        u.succeed(delay=0, priority=URGENT)

    first = env.event(name="n0")
    first.callbacks.append(fire_urgent)
    first.succeed(delay=5, priority=NORMAL)
    for i in (1, 2):
        ev = env.event(name=f"n{i}")
        ev.callbacks.append(lambda _e, i=i: order.append(f"n{i}"))
        ev.succeed(delay=5, priority=NORMAL)
    env.run(fast=fast)
    return order


def test_urgent_scheduled_mid_drain_orders_by_priority_then_seq():
    expected = ["n0", "u", "n1", "n2"]
    assert _urgent_mid_drain_run(fast=True) == expected
    assert _urgent_mid_drain_run(fast=False) == expected


def test_same_tick_fifo_across_rollover():
    """FIFO within a priority class survives a front-slot eviction by an
    earlier-tick entry: seq order is global, not per-container."""
    env = Environment()
    order = []
    # Tick 10 normals (land in heap/front), then a tick-5 urgent that
    # evicts the front slot, then more tick-10 normals.
    for i in range(2):
        ev = env.event(name=f"a{i}")
        ev.callbacks.append(lambda _e, i=i: order.append(f"a{i}"))
        ev.succeed(delay=10)
    early = env.event(name="early")
    early.callbacks.append(lambda _e: order.append("early"))
    early.succeed(delay=5)
    for i in range(2):
        ev = env.event(name=f"b{i}")
        ev.callbacks.append(lambda _e, i=i: order.append(f"b{i}"))
        ev.succeed(delay=10)
    env.run(fast=True)
    assert order == ["early", "a0", "a1", "b0", "b1"]
    env2 = Environment()
    order2 = []
    for i in range(2):
        ev = env2.event(name=f"a{i}")
        ev.callbacks.append(lambda _e, i=i: order2.append(f"a{i}"))
        ev.succeed(delay=10)
    early = env2.event(name="early")
    early.callbacks.append(lambda _e: order2.append("early"))
    early.succeed(delay=5)
    for i in range(2):
        ev = env2.event(name=f"b{i}")
        ev.callbacks.append(lambda _e, i=i: order2.append(f"b{i}"))
        ev.succeed(delay=10)
    env2.run(fast=False)
    assert order2 == order
