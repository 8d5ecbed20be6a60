"""Serving drivers end to end: bit-identity, checker cleanliness,
backend model agreement, SLO exactness, and the CLI gates."""

from collections import Counter

import numpy as np
import pytest

from repro.apps.kvstore.layout import KvLayout
from repro.config import MachineConfig, ObsConfig, SimConfig
from repro.runtime.job import run_spmd
from repro.serve.driver import (all_latencies, expected_contents,
                                merged_contents, run_kv_serve)
from repro.serve.slo import (build_report, exact_percentiles, render_report,
                             report_digest)
from repro.serve.zipf import OP_GET, ServeSpec, client_schedule

SPEC = ServeSpec(nkeys=64, total_requests=600, seed=7)
NRANKS = 4


@pytest.fixture(scope="module")
def rma_result():
    return run_kv_serve(NRANKS, SPEC)


def test_report_bit_identical_across_runs(rma_result):
    """Acceptance property: the same spec yields a byte-identical
    latency report (and hence digest) on every run."""
    again = run_kv_serve(NRANKS, SPEC)
    a = build_report(rma_result, SPEC, NRANKS)
    b = build_report(again, SPEC, NRANKS)
    assert a == b
    assert report_digest(a) == report_digest(b)


def test_latency_is_open_loop(rma_result):
    """Latencies are completion minus *scheduled* arrival: every request
    of the spec is measured, none are coordinated-omitted."""
    lats = all_latencies(rma_result)
    assert lats.size == SPEC.total_requests
    assert np.all(lats > 0)


def test_report_sections(rma_result):
    rep = build_report(rma_result, SPEC, NRANKS)
    assert rep["ops"]["get"] + rep["ops"]["put"] + rep["ops"]["update"] \
        == SPEC.total_requests
    assert rep["latency_ns"]["p50"] <= rep["latency_ns"]["p99"] \
        <= rep["latency_ns"]["p99_9"] <= rep["latency_ns"]["max"]
    # per-rank hotspot counters cover every remote-op target
    hot = rep["hotspots"]
    assert sum(hot["owner_requests"].values()) > 0
    assert hot["mcs_acquires"] > 0
    text = render_report(rep)
    assert "p99" in text and "hotspots" in text


def test_throughput_is_over_the_serving_phase(rma_result):
    """Served rate = requests / (last completion - first scheduled
    arrival): the preload and set-up before the first arrival are not
    serving time, but the whole clock stays in ``sim_time_ns``."""
    rep = build_report(rma_result, SPEC, NRANKS)
    rows = np.concatenate([v[0] for v in rma_result.returns])
    phase_ns = int(rows[:, 1].max() - rows[:, 0].min())
    assert phase_ns < rep["sim_time_ns"] == rma_result.sim_time_ns
    assert rep["throughput_rps"] == round(SPEC.total_requests
                                          / (phase_ns / 1e9), 1)


def test_kvstore_locks_home_at_the_key_owner(rma_result):
    """Writers take one stripe lock homed at their key's owner and gets
    take none, so the acquisitions per home equal exactly the puts and
    updates (preload included) addressed to that owner, and requests to
    different owners never share a queue."""
    homes = Counter(dict(s.args)["home"]
                    for s in rma_result.obs.spans.spans
                    if s.name == "mcs.acquire")
    layout = KvLayout.default(max(1, SPEC.nkeys // NRANKS + 1))

    def owner(key):
        return layout.place(key + 1, NRANKS)[0]

    writes = Counter(owner(k) for k in range(SPEC.nkeys))      # preload
    writes.update(owner(int(key))
                  for client in range(NRANKS)
                  for _t, op, key, _v in client_schedule(SPEC, client,
                                                         NRANKS)
                  if op != OP_GET)
    assert homes == writes
    assert set(homes) == set(range(NRANKS))
    # Every other request an owner served is a get, which queued nowhere.
    rep = build_report(rma_result, SPEC, NRANKS)
    assert sum(rep["hotspots"]["owner_requests"].values()) \
        == sum(writes.values()) + rep["ops"]["get"]


def test_pow2_histogram_brackets_exact_p99(rma_result):
    """The obs histogram (cheap view) and the exact percentiles (SLO
    source of truth) must agree: the exact p99 falls in a populated
    power-of-two bucket whose bounds bracket it."""
    rep = build_report(rma_result, SPEC, NRANKS)
    p99 = rep["latency_ns"]["p99"]
    hist = rma_result.obs.metrics.merged_histogram("kv.latency_ns")
    snap = hist.snapshot()
    assert snap["count"] == SPEC.total_requests
    assert p99 <= snap["max"]


def test_checker_clean():
    """The CAS-update/MCS serving path carries enough happens-before
    (lock hb edges + flush ordering + note_local annotation) for a
    clean bill from the race checker."""
    res = run_kv_serve(NRANKS, SPEC, check=True)
    assert res.check.clean, \
        [v.describe() for v in res.check.violations]
    assert res.check.accesses_seen > 0


def test_rma_matches_replay_model(rma_result):
    keys, determined = expected_contents(SPEC, NRANKS)
    final = merged_contents(rma_result)
    assert set(final) == keys
    for k, v in determined.items():
        assert final[k] == v


def test_mpi1_comparator_matches_replay_model():
    from repro.apps.kvstore.mpi1_kv import mpi1_kv_program

    res = run_spmd(mpi1_kv_program, NRANKS, SPEC,
                   machine=MachineConfig(ranks_per_node=1),
                   sim=SimConfig(seed=SPEC.seed),
                   obs=ObsConfig(enabled=True))
    keys, determined = expected_contents(SPEC, NRANKS)
    final = merged_contents(res)
    assert set(final) == keys
    for k, v in determined.items():
        assert final[k] == v
    # same op counts as the RMA backend (same schedules)
    rep = build_report(res, SPEC, NRANKS, variant="mpi1")
    assert rep["ops"]["get"] \
        == int(sum(np.count_nonzero(r[0][:, 2] == OP_GET)
                   for r in res.returns))


def test_exact_percentiles_nearest_rank():
    samples = np.arange(1, 101)          # 1..100
    pct = exact_percentiles(samples)
    assert pct == {"p50": 50, "p99": 99, "p99_9": 100}
    assert exact_percentiles([])["p99"] == 0
    assert exact_percentiles([42]) == {"p50": 42, "p99": 42, "p99_9": 42}


def test_cli_serve_and_slo_gate(capsys):
    from repro.__main__ import main

    rc = main(["serve", "kvstore", "--ranks", "4", "--requests", "400",
               "--nkeys", "64", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p99" in out and "report digest" in out
    # impossible SLO -> exit 1
    rc = main(["serve", "kvstore", "--ranks", "4", "--requests", "400",
               "--nkeys", "64", "--seed", "3", "--slo-p99-us", "0.001"])
    assert rc == 1
    assert "SLO FAILED" in capsys.readouterr().out


def test_cli_writes_identical_json(tmp_path):
    from repro.__main__ import main

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    for p in (pa, pb):
        assert main(["serve", "kvstore", "--ranks", "4", "--requests",
                     "300", "--nkeys", "32", "--seed", "5",
                     "--out", str(p)]) == 0
    assert pa.read_bytes() == pb.read_bytes()
