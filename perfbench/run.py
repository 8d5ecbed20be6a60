"""foMPI-py benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload ht_insert --seed 1 \
        --seconds 22 --trace 0

Workloads, their parameters and the layer -> end-to-end predictions are
in ``perfbench/spec.json``; metric names and units in ``BENCHMARK.json``.

``--trace 0`` sets up and runs the workload repeatedly for ``--seconds``
(at least three times) with tracing off and reports the end-to-end metrics:
median host wall and set-up time, both scaled to a reference host speed
by ``hostspeed.Sampler``, peak RSS, and the simulated metrics, which
must repeat exactly across the runs.  ``--trace 1`` runs the
workload three times -- untraced, traced (layer spans, written to
``perfbench/out/``) and counted (cProfile calls by package) -- checks
that all three produce identical simulated results and counters, and
reports the per-layer metrics.  Every run's outputs are checked; the
last line of stdout is the JSON result and the exit code is 0 only when
every check passed.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Extra set-ups per invocation -- world constructions, and imports in
#: fresh interpreters -- so set-up time is a median of several even when
#: the measured runs are few.
SETUP_PROBES = 3
IMPORT_PROBES = 2
MIN_RUNS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_seconds(first: float) -> float:
    """Median time to import the program at the reference host speed,
    over this process and ``IMPORT_PROBES`` fresh interpreters (each
    waited for)."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; "
            "import hostspeed\n"
            "with hostspeed.Sampler() as t:\n"
            "    import tracing, workloads\n"
            "print(t.seconds)")
    samples = [first]
    for _ in range(IMPORT_PROBES):
        child = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True, timeout=120)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def _timed(wl):
    t0 = time.perf_counter()
    state = wl.setup()
    t1 = time.perf_counter()
    raw = wl.run(state)
    return t1 - t0, time.perf_counter() - t1, raw


def _sampled(wl):
    """Set-up and run under ``hostspeed.Sampler``; returns (set-up,
    run, raw), the samplers carrying reference and plain seconds."""
    with hostspeed.Sampler() as setup:
        state = wl.setup()
    with hostspeed.Sampler() as run:
        raw = wl.run(state)
    return setup, run, raw


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, seconds: float, import_s: float):
    """Repeated untraced runs; returns (metrics, outcomes, consistent)."""
    setups = []
    for _ in range(SETUP_PROBES):
        with hostspeed.Sampler() as setup:
            wl.setup()
        setups.append(setup.seconds)
    walls, raws, outs = [], [], []
    spent = 0.0
    while True:
        gc.collect()
        setup, run, raw = _sampled(wl)
        setups.append(setup.seconds)
        walls.append(run.seconds)
        raws.append(run.raw)
        outs.append(wl.evaluate(raw))
        del raw
        spent += setup.raw + run.raw
        if len(walls) >= MIN_RUNS and spent + setup.raw + run.raw > seconds:
            break
    rss = _peak_rss_mb()
    sim = outs[0].sim
    consistent = all(o.sim == sim and o.stats == outs[0].stats for o in outs)
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": (_import_seconds(import_s)
                           + statistics.median(setups)),
               "peak_rss_mb": rss,
               **{k: v for k, v in sim.items() if k.startswith("sim_")}}
    if wl.name == "kv_zipf":
        metrics["sim_capacity_rps"] = wl.capacity_rps(outs[0])
        outs += wl.probe_outcomes
    print(f"# {wl.name}: {len(walls)} measured runs, walls "
          + " ".join(f"{w:.3f}" for w in walls) + " s at reference speed, "
          + " ".join(f"{w:.3f}" for w in raws) + " s plain")
    return metrics, outs, consistent


def per_layer(wl, tracing):
    """Untraced, traced and counted runs; returns (metrics, outcomes,
    consistent, tracer)."""
    _s_u, wall_u, raw_u = _timed(wl)
    with tracing.Tracer() as tracer:
        setup_t, wall_t, raw_t = _timed(wl)
    state = wl.setup()
    raw_c, calls = tracing.count_calls(lambda: wl.run(state), SRC)
    outs = [wl.evaluate(raw) for raw in (raw_u, raw_t, raw_c)]
    ref = outs[0]
    consistent = all(o.sim == ref.sim and o.stats == ref.stats
                     and o.layer == ref.layer for o in outs)
    metrics = tracing.layer_metrics(tracer, ref, calls, wl.ops)
    metrics["trace.overhead_frac"] = wall_t / wall_u - 1.0
    metrics["trace.unattributed_frac"] = tracer.unattributed(setup_t + wall_t)
    print(f"# {wl.name}: untraced {wall_u:.3f} s, traced {wall_t:.3f} s, "
          f"{len(tracer.host)} spans")
    return metrics, outs, consistent, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # One thread per process: BLAS worker threads are not part of the
    # modelled program and only add host-time noise on a small box.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    with hostspeed.Sampler() as imported:
        import repro
        import tracing
        import workloads
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    spec = json.loads((HERE / "spec.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    wl = workloads.WORKLOADS[args.workload](
        args.seed, spec["workloads"][args.workload]["params"])
    try:
        if args.trace:
            values, outs, consistent, tracer = per_layer(wl, tracing)
            tracer.save(HERE / "out"
                        / f"spans-{wl.name}-seed{args.seed}.npz")
        else:
            values, outs, consistent = end_to_end(wl, args.seconds,
                                                  imported.seconds)
    except Exception:  # the program crashed: report, do not hide
        traceback.print_exc()
        values, outs, consistent = {}, [], False
    attempted = sum(o.attempted for o in outs) or wl.ops
    failed = sum(o.failed for o in outs) if outs else wl.ops
    if not consistent:
        print("error: runs of one seed disagree on simulated results",
              file=sys.stderr)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} not measured", file=sys.stderr)
            consistent = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{wl.name:12s} {m['name']:28s} {value:>16.6f} {m['unit']}")
    print(f"{wl.name:12s} {'error_rate':28s} {failed / attempted:>16.6f} "
          f"fraction ({failed} failed / {attempted} attempted)")
    correct = consistent and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
