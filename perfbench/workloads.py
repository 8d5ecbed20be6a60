"""The four benchmark workloads.

Each workload turns a seed into the program's inputs and splits one run
into ``setup()`` (everything before the first simulated event: world
construction) and ``run(state)``, both calling the real code paths with
observability and the race checker off.  ``evaluate(raw)`` checks the
outputs and derives the simulated metrics, which are exact and
deterministic for a seed.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.apps.hashtable import rma_ht
from repro.apps.hashtable.common import HashTableLayout, verify_contents
from repro.apps.milc import driver as milc_driver
from repro.apps.milc.comm import RmaHalo
from repro.config import MachineConfig, SimConfig
from repro.runtime.job import Job, run_on_world, run_spmd
from repro.scale import hybrid, protocols
from repro.scale.workloads import WORKLOADS as SCALE_WORKLOADS
from repro.serve import driver as serve_driver
from repro.serve.zipf import ServeSpec, client_schedule, requests_for
from tracing import patched, percentile


def _us(ns) -> float:
    return 0.0 if ns is None else float(ns) / 1e3


@dataclass
class Outcome:
    """Checked result of one run.

    ``sim`` holds the deterministic simulated figures (compared bit for
    bit between runs); ``layer`` the workload-level per-layer figures;
    ``stats`` the run's operation counters."""

    attempted: int
    failed: int
    sim: dict
    layer: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def _rank_failures(returns) -> list[int]:
    return [r for r, v in enumerate(returns) if isinstance(v, BaseException)]


class HtInsert:
    name = "ht_insert"

    def __init__(self, seed: int, p: dict) -> None:
        self.ranks = p["ranks"]
        self.n = p["inserts_per_rank"]
        self.ops = self.ranks * self.n
        self.layout = HashTableLayout.default(self.n,
                                              table_slots=p["table_slots"])
        self.job = Job(self.ranks, machine=MachineConfig(
            ranks_per_node=p["ranks_per_node"]), sim=SimConfig(seed=seed))

    def setup(self):
        return self.job.build_world()

    def run(self, world):
        box: dict = {}
        lat: list[int] = []
        paths: Counter = Counter()
        insert = rma_ht.rma_insert

        def timed_insert(win, layout, key):
            t0 = win.ctx.now
            path = yield from insert(win, layout, key)
            lat.append(win.ctx.now - t0)
            paths[path] += 1
            return path

        with patched(rma_ht, "rma_insert", timed_insert):
            res = run_on_world(world, rma_ht.rma_insert_program, self.layout,
                               self.n, box)
        return res, box, lat, paths

    def _key_failures(self, volumes, keys) -> int:
        """Keys not stored exactly once at their owner (plus extras)."""
        want: dict[int, Counter] = defaultdict(Counter)
        for ks in keys:
            for k in ks:
                want[self.layout.place(int(k), self.ranks)[0]][int(k)] += 1
        bad = 0
        for r, vol in enumerate(volumes):
            got = Counter(self.layout.all_contents(vol))
            bad += sum(((want[r] - got) + (got - want[r])).values())
        return bad

    def evaluate(self, raw) -> Outcome:
        res, box, lat, paths = raw
        dead = _rank_failures(res.returns)
        failed = len(dead) * self.n
        if not dead:
            volumes = [box["volumes"][r] for r in range(self.ranks)]
            keys = [box["keys"][r] for r in range(self.ranks)]
            try:
                verify_contents(self.layout, volumes, keys)
            except AssertionError:
                failed += max(1, self._key_failures(volumes, keys))
        slowest = max((v for v in res.returns
                       if not isinstance(v, BaseException)), default=0)
        sim = {
            "clock_ns": res.sim_time_ns,
            "events": res.events_processed,
            "sim_time_us": _us(slowest),
            "sim_p50_us": _us(percentile(lat, 50)),
            "sim_p99_us": _us(percentile(lat, 99)),
            "sim_capacity_rps": self.ops / (slowest / 1e9) if slowest else 0.0,
        }
        layer = {"overflow_ratio": paths["heap"] / self.ops}
        return Outcome(self.ops, failed, sim, layer, res.stats)


class KvZipf:
    name = "kv_zipf"

    def __init__(self, seed: int, p: dict) -> None:
        self.p = p
        self.ranks = p["ranks"]
        self.spec = ServeSpec(nkeys=p["nkeys"], theta=p["theta"],
                              get_frac=p["get_frac"],
                              update_frac=p["update_frac"],
                              total_requests=p["total_requests"],
                              rate_hz=float(p["rate_hz_per_client"]),
                              seed=seed)
        self.ops = self.spec.total_requests
        self.job = Job(self.ranks, machine=MachineConfig(
            ranks_per_node=p["ranks_per_node"]), sim=SimConfig(seed=seed))
        self._expected = serve_driver.expected_contents(self.spec, self.ranks)
        self.probe_outcomes: list[Outcome] = []

    def setup(self):
        return self.job.build_world()

    def run(self, world, spec: ServeSpec | None = None):
        spec = spec or self.spec
        return spec, run_on_world(world, serve_driver.kv_serve_program, spec,
                                  self.p["n_stripes"])

    def evaluate(self, raw) -> Outcome:
        spec, res = raw
        failed = 0
        rows, starts, queue, service = [], [], [], []
        merged: dict[int, int] = {}
        dead = _rank_failures(res.returns)
        for r, value in enumerate(res.returns):
            want = requests_for(spec, r, self.ranks)
            if r in dead:
                failed += want
                continue
            lat, contents = value
            merged.update(contents)
            done_ok = (lat[:, 1] >= lat[:, 0]) & (lat[:, 1] > 0)
            failed += want - int(np.count_nonzero(done_ok))
            if len(lat) == 0:
                continue
            rows.append(lat)
            offsets = client_schedule(spec, r, self.ranks)[:, 0]
            starts.append(int(lat[0, 0] - offsets[0]))
            # The client serves its requests one at a time: request i
            # starts when it is due or when request i-1 completed.
            prev_done = np.concatenate(([lat[0, 0]], lat[:-1, 1]))
            begin = np.maximum(lat[:, 0], prev_done)
            queue.append(begin - lat[:, 0])
            service.append(lat[:, 1] - begin)
        if not dead:
            keys, determined = self._expected
            failed += len(keys ^ merged.keys())
            failed += sum(1 for k, v in determined.items()
                          if merged.get(k) != v)
        allrows = np.concatenate(rows) if rows else np.zeros((0, 3), np.int64)
        lat_ns = allrows[:, 1] - allrows[:, 0]
        t_start = min(starts, default=0)
        phase = int(allrows[:, 1].max()) - t_start if rows else 0
        offered_span = int(allrows[:, 0].max()) - t_start if rows else 0
        served = len(lat_ns) / (phase / 1e9) if phase else 0.0
        offered = len(lat_ns) / (offered_span / 1e9) if offered_span else 0.0
        sim = {
            "clock_ns": res.sim_time_ns,
            "events": res.events_processed,
            "sim_time_us": _us(phase),
            "sim_p50_us": _us(percentile(lat_ns, 50)),
            "sim_p99_us": _us(percentile(lat_ns, 99)),
            "served_rps": served,
            "offered_rps": offered,
        }
        queue_ns = np.concatenate(queue) if queue else np.zeros(0)
        service_ns = np.concatenate(service) if service else np.zeros(0)
        layer = {"queue_us_p50": _us(percentile(queue_ns, 50)),
                 "queue_us_p99": _us(percentile(queue_ns, 99)),
                 "service_us_p99": _us(percentile(service_ns, 99))}
        return Outcome(spec.total_requests, failed, sim, layer, res.stats)

    def meets_slo(self, out: Outcome) -> bool:
        p = self.p
        return (out.failed == 0 and out.sim["sim_p99_us"] > 0
                and out.sim["sim_p99_us"] <= p["slo_p99_us"]
                and out.sim["served_rps"]
                >= p["keep_up_ratio"] * out.sim["offered_rps"])

    def _probe(self, rate_hz: int) -> bool:
        spec = dataclasses.replace(self.spec, rate_hz=float(rate_hz))
        out = self.evaluate(self.run(self.setup(), spec))
        self.probe_outcomes.append(out)
        return self.meets_slo(out)

    def capacity_rps(self, fixed: Outcome) -> float:
        """Highest aggregate offered rate, on a grid of per-client rates,
        that meets the SLO and keeps up (assumes both fail monotonically
        as the rate grows)."""
        step = self.p["capacity_step_hz_per_client"]
        span = self.p["capacity_span_hz_per_client"]
        rate = self.p["rate_hz_per_client"]
        if self.meets_slo(fixed):
            lo, hi = rate, rate + span
            while self._probe(hi):
                lo, hi = hi, hi + span
        else:
            lo, hi = max(step, rate - span), rate
            while not self._probe(lo):
                if lo == step:
                    return 0.0
                lo, hi = max(step, lo - span), lo
        while hi - lo > step:
            mid = lo + (hi - lo) // step // 2 * step
            if self._probe(mid):
                lo = mid
            else:
                hi = mid
        return float(lo * self.ranks)


class MilcCg:
    name = "milc_cg"

    def __init__(self, seed: int, p: dict) -> None:
        self.p = p
        self.ranks = p["ranks"]
        self.spec = milc_driver.MilcSpec(local=tuple(p["local"]),
                                         maxiter=p["maxiter"], tol=p["tol"],
                                         seed=seed)
        self.ops = self.ranks * p["maxiter"]
        self.machine = MachineConfig(ranks_per_node=p["ranks_per_node"])
        self.sim = SimConfig(seed=seed)
        self.job = Job(self.ranks, machine=self.machine, sim=self.sim)
        self._reference = None

    def setup(self):
        return self.job.build_world()

    def run(self, world):
        entered: dict[int, list[int]] = defaultdict(list)
        exchange = RmaHalo.exchange

        def timed_exchange(halo, op, padded):
            entered[halo.rank].append(halo.ctx.now)
            return (yield from exchange(halo, op, padded))

        with patched(RmaHalo, "exchange", timed_exchange):
            res = run_on_world(world, milc_driver.milc_program, self.spec,
                               self.p["variant"])
        return res, entered

    def reference(self) -> list:
        """Per-rank (iterations, residual, checksum) from the MPI-1
        transport on the same spec (computed once)."""
        if self._reference is None:
            res = run_spmd(milc_driver.milc_program, self.ranks, self.spec,
                           self.p["reference_variant"], machine=self.machine,
                           sim=self.sim)
            self._reference = [v if isinstance(v, BaseException) else v[1:]
                               for v in res.returns]
        return self._reference

    def evaluate(self, raw) -> Outcome:
        res, entered = raw
        iters = self.p["maxiter"]
        ref = self.reference()
        failed = 0
        for r, value in enumerate(res.returns):
            if (isinstance(value, BaseException)
                    or isinstance(ref[r], BaseException)
                    or tuple(value[1:]) != tuple(ref[r])
                    or value[1] != iters):
                failed += iters
        iter_ns = np.concatenate([np.diff(t) for t in entered.values()]) \
            if entered else np.zeros(0)
        slowest = max((v[0] for v in res.returns
                       if not isinstance(v, BaseException)), default=0)
        sim = {
            "clock_ns": res.sim_time_ns,
            "events": res.events_processed,
            "sim_time_us": _us(slowest),
            "sim_p50_us": _us(percentile(iter_ns, 50)),
            "sim_p99_us": _us(percentile(iter_ns, 99)),
            "sim_capacity_rps": self.ops / (slowest / 1e9) if slowest else 0.0,
        }
        return Outcome(self.ops, failed, sim, {}, res.stats)


class FenceHybrid:
    name = "fence_hybrid"

    def __init__(self, seed: int, p: dict) -> None:
        self.p = p
        self.ranks = p["ranks"]
        self.spec = SCALE_WORKLOADS[p["workload"]]
        self.ops = self.ranks * self.spec.epochs
        self.sim = SimConfig(seed=seed)

    def setup(self):
        return None

    def run(self, _state):
        try:
            return hybrid.run_hybrid(self.spec, self.ranks,
                                     ranks_per_node=self.p["ranks_per_node"],
                                     sim=self.sim)
        except hybrid.HybridParityError as err:
            return err

    def evaluate(self, raw) -> Outcome:
        if isinstance(raw, BaseException):
            return Outcome(self.ops, self.ops, {"error": str(raw)})
        phases = protocols.phase_times_ns(self.spec, self.ranks)
        # Every rank runs the same lockstep schedule: after the opening
        # fence, each epoch is one put phase plus one fence phase.
        epoch_ns = [phases[i][1] + phases[i + 1][1]
                    for i in range(2, len(phases), 2)]
        samples = np.repeat(epoch_ns, self.ranks)
        sim = {
            "clock_ns": raw.sim_time_ns,
            "events": raw.events_processed,
            "sim_time_us": _us(raw.sim_time_ns),
            "sim_p50_us": _us(percentile(samples, 50)),
            "sim_p99_us": _us(percentile(samples, 99)),
            "sim_capacity_rps": self.ops / (raw.sim_time_ns / 1e9),
        }
        layer = {"soa_mb": raw.soa_nbytes / 2**20,
                 "sampled_ranks": len(raw.sample),
                 "messages": raw.stats["messages"]}
        return Outcome(self.ops, 0, sim, layer, raw.stats)


WORKLOADS = {cls.name: cls for cls in (HtInsert, KvZipf, MilcCg, FenceHybrid)}
