"""DES kernel event-throughput microbenchmarks and the gen-2 A/B gate.

Measures the raw event rate of :mod:`repro.sim.kernel` ("generation 2":
front-slot scheduler, event recycling) on two synthetic workloads and on
one full-stack run, then writes the machine-readable perf report
``BENCH_simperf.json`` at the repository root (the per-figure wall-clock
and cache sections are appended by ``conftest.py`` at session end, so
this file is the report's anchor).

The A/B baseline is the **frozen pre-gen-2 kernel** checked in as
``benchmarks/_pr2_kernel.py``: every workload runs on both kernels, in
both loop modes, interleaved in one process so the ratios are immune to
machine speed.  Three properties gate:

* **bit identity** -- all four (kernel x loop) variants process the
  exact same schedule (event count + final sim clock);
* **fast_over_legacy** -- gen-2 ``run(fast=True)`` over the frozen
  kernel's reference ``step()`` loop must stay >= 1.8x (measured
  ~2.1-2.2x in the dev container);
* an absolute events/sec floor, generous because CI machines vary.

Workloads
---------
ring
    ``NPROC`` processes passing a token with ``yield env.timeout(...)`` --
    the pure scheduler loop, dominated by queue churn and Timeout/Event
    allocation (the fast path recycles both and keeps the strict-min
    entry in the front slot: ~100% front-hit rate).
put/get pattern
    An origin/NIC generator pair mimicking the kernel-level shape of a
    flushed fompi put: descriptor-write timeout, a NIC service event
    chain, and an URGENT remote-completion wakeup (~58% front-hit rate).
full stack
    ``run_spmd`` over the fompi put ping, as the figures exercise it.
"""

import importlib.util
import json
import pathlib
import time

from repro import run_spmd
from repro.bench import microbench as mb
from repro.sim.kernel import URGENT, Environment

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "BENCH_simperf.json"

RING_NPROC = 64
RING_STEPS = 4000          # ~= RING_NPROC * RING_STEPS * 2 events
PUTGET_N = 30_000
# Best-of rounds: interleaved A/B ratios still jitter a few percent in
# noisy containers; five rounds keeps the 1.8x gate out of the noise.
BEST_OF = 5

# Generous absolute floor: the container sustains >1M ev/s on the gen-2
# fast path; CI machines vary wildly, so assert an order of magnitude
# below (ratcheted from the pre-gen-2 floor of 40k).
EVENTS_PER_SEC_FLOOR = 80_000.0
# The A/B ratio gate is machine-independent (both sides measured
# interleaved in one process): gen-2 fast loop vs the frozen PR-2
# kernel's reference step loop.
FAST_OVER_LEGACY_FLOOR = 1.8


def _load_pr2_kernel():
    """The frozen pre-gen-2 kernel (benchmark fixture, not product)."""
    path = pathlib.Path(__file__).parent / "_pr2_kernel.py"
    spec = importlib.util.spec_from_file_location("pr2_kernel", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PR2 = _load_pr2_kernel()


def _ring_proc(env, idx, inboxes, steps):
    nproc = len(inboxes)
    for _ in range(steps):
        yield inboxes[idx]
        inboxes[idx] = env.event()
        yield env.timeout(10)
        nxt = (idx + 1) % nproc
        inboxes[nxt].succeed(None)


def _build_ring(env, nproc=RING_NPROC, steps=RING_STEPS):
    inboxes = [env.event() for _ in range(nproc)]
    for i in range(nproc):
        env.process(_ring_proc(env, i, inboxes, steps), name=f"ring{i}")
    inboxes[0].succeed(None, delay=1)


def _putget_origin(env, n, nic_ev):
    for _ in range(n):
        yield env.timeout(40)              # descriptor write / o_inject
        ev = env.event()
        nic_ev.append(ev)
        done = env.event()
        ev.succeed(done, delay=700)        # wire + ejection service
        yield done                         # flush: wait remote completion


def _putget_nic(env, n, nic_ev):
    served = 0
    while served < n:
        while not nic_ev:
            yield env.timeout(10)          # poll
        ev = nic_ev.pop()
        done = yield ev
        done.succeed(None, delay=50, priority=URGENT)
        served += 1


def _build_putget(env, n=PUTGET_N):
    nic_ev = []
    env.process(_putget_origin(env, n, nic_ev), name="origin")
    env.process(_putget_nic(env, n, nic_ev), name="nic")


#: (label, Environment factory, fast flag) -- the four A/B variants.
_VARIANTS = [
    ("gen2_fast", Environment, True),
    ("gen2_oracle", Environment, False),
    ("pr2_fast", PR2.Environment, True),
    ("pr2_legacy", PR2.Environment, False),
]


def _measure_all(build, best_of=BEST_OF):
    """Interleaved best-of-N over all four variants (one process, one
    ordering per round, so the ratios survive noisy containers)."""
    best = {}
    for _ in range(best_of):
        for label, env_cls, fast in _VARIANTS:
            env = env_cls()
            build(env)
            t0 = time.perf_counter()
            env.run(fast=fast)
            wall = time.perf_counter() - t0
            cur = best.get(label)
            if cur is None or wall < cur["wall_s"]:
                best[label] = {
                    "events": env.events_processed, "sim_t": env.now,
                    "wall_s": wall,
                    "events_per_sec": env.events_processed / wall}
    return best


def _bench_workload(name, build):
    r = _measure_all(build)
    # Bit identity: every kernel/loop combination processes exactly the
    # same schedule (event count + final clock).
    sched = {(v["events"], v["sim_t"]) for v in r.values()}
    assert len(sched) == 1, (name, r)
    return {
        "workload": name,
        "events": r["gen2_fast"]["events"],
        "sim_time_ns": r["gen2_fast"]["sim_t"],
        "fast_events_per_sec": round(r["gen2_fast"]["events_per_sec"], 1),
        "oracle_events_per_sec": round(r["gen2_oracle"]["events_per_sec"], 1),
        "pr2_fast_events_per_sec": round(r["pr2_fast"]["events_per_sec"], 1),
        "legacy_events_per_sec": round(r["pr2_legacy"]["events_per_sec"], 1),
        # The headline A/B gate: gen-2 fast loop vs the frozen PR-2
        # kernel's reference step loop.
        "fast_over_legacy": round(
            r["gen2_fast"]["events_per_sec"]
            / r["pr2_legacy"]["events_per_sec"], 3),
        # Generation-over-generation fast-path speedup (same loop mode).
        "gen2_over_pr2_fast": round(
            r["gen2_fast"]["events_per_sec"]
            / r["pr2_fast"]["events_per_sec"], 3),
    }


def _full_stack_program(ctx):
    """A real fompi put+flush ping, as the Figure 4 driver runs it."""
    import numpy as np
    data = np.ones(8, np.uint8)
    win = yield from ctx.rma.win_allocate(8)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        for _ in range(64):
            yield from win.put(data, 1, 0)
            yield from win.flush(1)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return ctx.now


def _full_stack_rate():
    """Events/sec of a real run_spmd fompi put ping (best of N)."""
    best = None
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        res = run_spmd(_full_stack_program, 2, machine=mb.INTER_2)
        wall = time.perf_counter() - t0
        rate = res.events_processed / wall
        if best is None or rate > best["events_per_sec"]:
            best = {"workload": "full_stack_putget",
                    "events": res.events_processed,
                    "sim_time_ns": res.sim_time_ns,
                    "events_per_sec": round(rate, 1)}
    return best


def _merge_report(section, payload):
    """Update one section of BENCH_simperf.json, keeping the others."""
    report = {}
    if REPORT.exists():
        try:
            report = json.loads(REPORT.read_text())
        except (ValueError, OSError):
            report = {}
    report[section] = payload
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    return report


def test_kernel_throughput(benchmark):
    """Kernel event-rate floor + four-way A/B bit-identity + ratio gate."""

    def run():
        return [_bench_workload("ring", _build_ring),
                _bench_workload("putget_pattern", _build_putget)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    full = _full_stack_rate()
    payload = {"workloads": rows, "full_stack": full,
               "baseline_kernel": "benchmarks/_pr2_kernel.py",
               "floor_events_per_sec": EVENTS_PER_SEC_FLOOR,
               "floor_fast_over_legacy": FAST_OVER_LEGACY_FLOOR}
    _merge_report("kernel", payload)
    print()
    for r in rows:
        print(f"{r['workload']:>16}: gen2 {r['fast_events_per_sec']:>11,.0f}"
              f" ev/s  pr2-legacy {r['legacy_events_per_sec']:>11,.0f} ev/s"
              f"  ({r['fast_over_legacy']:.2f}x A/B,"
              f" {r['gen2_over_pr2_fast']:.2f}x vs pr2-fast)")
    print(f"{full['workload']:>16}: {full['events_per_sec']:>11,.0f} ev/s")
    for r in rows:
        assert r["fast_events_per_sec"] > EVENTS_PER_SEC_FLOOR, r
        # The kernel A/B gate: the gen-2 fast loop must beat the frozen
        # pre-gen-2 reference loop by the ratcheted factor.  Interleaved
        # same-process measurement makes this machine-independent.
        assert r["fast_over_legacy"] >= FAST_OVER_LEGACY_FLOOR, r
    benchmark.extra_info["kernel"] = payload
