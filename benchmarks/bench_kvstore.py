"""KV serving benchmark: RMA store vs the MPI-1 active-message comparator.

Open-loop Zipfian serving (``repro.serve``) at increasing client counts:
aggregate throughput and the exact p99 for both backends.  The sweep
fans out over the benchmark process pool and the content-addressed run
cache like every figure sweep; results land in the ``serve`` section of
``BENCH_simperf.json`` (via ``record_serve``), which ``perf_gate.py``
diffs against the committed baseline (req/s floors, unscaled: simulated
throughput is machine-independent).

What the curves show -- and the shape assertions pin:

* uncontended, one-sided access wins the median: at 4 clients the RMA
  get path (direct remote read under an idle stripe lock) undercuts the
  comparator's request/reply round trip;
* each stripe lock's queue lives at the key's owner, so the store has
  one queue per (owner, stripe) and keeps scaling past 16 clients:
  0.76M -> 1.54M req/s from 16 to 64 clients;
* under Zipf-0.99 skew at 64 clients it still saturates: the hottest
  key's (owner, stripe) queue serializes ~15% of all traffic, so the
  store trails the comparator (1.54M vs 2.76M req/s) and the p99
  explodes (22 us at 16 clients, 2.4 ms at 64) -- exactly the hotspot
  the serving report's key-skew heatmap and lock-contention section are
  built to diagnose.  The cheap-handler comparator keeps scaling here
  because its 60 ns handler is far shorter than a lock critical
  section; it models receiver *dispatch*, not receiver *interference*.
"""

from repro.bench import BenchPoint, Series, format_series_table, run_points
from repro.bench.appbench import kv_serve_stats

SERVE_PS = [4, 16, 64]
VARIANTS = ("rma", "mpi1")
TOTAL_REQUESTS = 6400
RATE_HZ = 5e4   # per client; drives the RMA store into its hot-stripe
                # saturation regime at p=64 (deterministically)
SEED = 1


def test_kv_serve(benchmark, record_series, record_serve):
    def run():
        points = [BenchPoint(kv_serve_stats, (variant, p, TOTAL_REQUESTS),
                             {"rate_hz": RATE_HZ, "seed": SEED})
                  for variant in VARIANTS for p in SERVE_PS]
        values = iter(run_points(points))
        return {variant: {p: next(values) for p in SERVE_PS}
                for variant in VARIANTS}

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    thr, p99 = [], []
    for variant in VARIANTS:
        s_thr = Series(label=variant, meta={"unit": "req/s", "mode": "sim"})
        s_p99 = Series(label=variant, meta={"unit": "us", "mode": "sim"})
        for p in SERVE_PS:
            s_thr.add(p, stats[variant][p]["throughput_rps"])
            s_p99.add(p, round(stats[variant][p]["p99_ns"] / 1e3, 3))
        thr.append(s_thr)
        p99.append(s_p99)
    table = format_series_table(
        "KV serving: aggregate throughput [req/s] vs clients "
        f"(Zipf 0.99, {TOTAL_REQUESTS} requests)", "p", thr)
    table += "\n\n" + format_series_table(
        "KV serving: exact p99 [us] vs clients", "p", p99)
    record_series("kvstore", table, thr + p99)
    record_serve({
        "throughput_rps": {
            f"{variant}_p{p}": stats[variant][p]["throughput_rps"]
            for variant in VARIANTS for p in SERVE_PS},
        "p99_us": {
            f"{variant}_p{p}": round(stats[variant][p]["p99_ns"] / 1e3, 3)
            for variant in VARIANTS for p in SERVE_PS},
        "requests": TOTAL_REQUESTS,
        "rate_hz": RATE_HZ,
        "seed": SEED,
    })
    benchmark.extra_info["serve"] = stats

    by_thr = {s.label: s for s in thr}
    # Uncontended median: one-sided access beats the request/reply
    # round trip.
    assert stats["rma"][4]["p50_ns"] < stats["mpi1"][4]["p50_ns"]
    # Both backends' aggregate throughput rises with client count ...
    for variant in VARIANTS:
        assert by_thr[variant].ys[-1] > by_thr[variant].ys[0]
    # ... the owner-homed stripe queues keep the RMA store scaling from
    # 16 to 64 clients (~2x) ...
    assert by_thr["rma"].ys[-1] > 1.8 * by_thr["rma"].ys[-2]
    # ... but under skew its hottest (owner, stripe) queue serializes,
    # so it trails the comparator, which keeps scaling.
    assert by_thr["rma"].ys[-1] < by_thr["mpi1"].ys[-1]
    assert by_thr["mpi1"].ys[-1] > 2 * by_thr["mpi1"].ys[-2]
    # Saturation is visible where it should be: the RMA tail at p=64
    # blows past its p=16 value by an order of magnitude.
    assert stats["rma"][64]["p99_ns"] > 10 * stats["rma"][16]["p99_ns"]
