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
  get (one lock-free NO_OP read of the slot) undercuts the comparator's
  request/reply round trip;
* gets take no lock and writers queue only on their key's (owner,
  stripe) MCS lock, so under Zipf-0.99 skew the store keeps pace with
  the offered load all the way to 64 clients: 0.76M -> 2.76M req/s from
  16 to 64 clients, tying the comparator (2,758,140 vs 2,757,566 req/s);
* there is no saturation knee: the RMA p99 grows only ~1.6x from 16 to
  64 clients (11.7 us -> 18.1 us) and stays under the comparator's at
  64 clients (23.7 us), whose owners are interrupted by every remote
  request.  The comparator's 60 ns handler models receiver *dispatch*,
  not receiver *interference*, so its curve is the cheap-handler bound.
"""

from repro.bench import BenchPoint, Series, format_series_table, run_points
from repro.bench.appbench import kv_serve_stats

SERVE_PS = [4, 16, 64]
VARIANTS = ("rma", "mpi1")
TOTAL_REQUESTS = 6400
RATE_HZ = 5e4   # per client; offers 3.2M req/s at p=64, where the
                # locked-read store saturated (deterministically)
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
    # ... with no lock on the read path the RMA store keeps pace with
    # the offered load from 16 to 64 clients (3.64x, as the comparator)
    # ...
    assert by_thr["rma"].ys[-1] > 3.5 * by_thr["rma"].ys[-2]
    assert by_thr["mpi1"].ys[-1] > 3.5 * by_thr["mpi1"].ys[-2]
    # ... and ties the comparator under skew at 64 clients ...
    assert by_thr["rma"].ys[-1] > 0.99 * by_thr["mpi1"].ys[-1]
    # ... with no saturation knee: the RMA tail at p=64 stays within 2x
    # of its p=16 value, and below the comparator's.
    assert stats["rma"][64]["p99_ns"] < 2 * stats["rma"][16]["p99_ns"]
    assert stats["rma"][64]["p99_ns"] < stats["mpi1"][64]["p99_ns"]
