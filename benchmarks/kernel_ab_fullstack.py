"""Same-machine full-stack kernel A/B: gen-2 vs the frozen pre-gen-2 kernel.

The figure wall times in ``BENCH_simperf.json`` are only comparable when
measured on one machine; this script produces that comparison for the
wall-clock-dominant figure driver (one fig7a hashtable point, the
workload ROADMAP cites as the kernel bottleneck).  It runs the driver in
two subprocesses:

* **post** -- the installed gen-2 kernel, defaults as shipped;
* **pre**  -- ``benchmarks/_pr2_kernel.py`` installed as
  ``repro.sim.kernel`` *before* any other repro import.  Everything
  above the kernel is the same code in both runs, so the two differ
  only in the kernel.

and merges a ``kernel_ab_fullstack`` section into ``BENCH_simperf.json``.

Usage::

    PYTHONPATH=src python benchmarks/kernel_ab_fullstack.py          # A/B
    PYTHONPATH=src python benchmarks/kernel_ab_fullstack.py --one pre
"""

import json
import os
import pathlib
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
REPORT = REPO / "BENCH_simperf.json"

#: One fig7a point: fompi hashtable inserts at the largest process count
#: the figure sweeps (32 ranks/node), measured end to end.
VARIANT, P, INSERTS = "fompi", 512, 64
ROUNDS = 3


def _child(kernel: str) -> None:
    if kernel == "pre":
        import importlib.util

        import repro.errors  # noqa: F401  (kernel's only repro dep)
        spec = importlib.util.spec_from_file_location(
            "repro.sim.kernel", REPO / "benchmarks" / "_pr2_kernel.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules["repro.sim.kernel"] = mod
        spec.loader.exec_module(mod)
    from repro.bench.appbench import hashtable_rate
    best = None
    rate = 0.0
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        rate = hashtable_rate(VARIANT, P, INSERTS)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    print(json.dumps({"wall_s": round(best, 3),
                      "inserts_per_sec": round(rate, 1)}))


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--one":
        _child(sys.argv[2])
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_BENCH_CACHE"] = "0"  # walls must measure real simulation
    results = {}
    for kernel in ("pre", "post"):
        out = subprocess.run(
            [sys.executable, __file__, "--one", kernel],
            env=env, capture_output=True, text=True, check=True)
        results[kernel] = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{kernel:>5}: {results[kernel]['wall_s']:.2f}s "
              f"({results[kernel]['inserts_per_sec']:,.0f} inserts/s)")
    # Determinism cross-check: both kernels simulate the identical
    # schedule, so the simulated insert rate must match exactly.
    assert results["pre"]["inserts_per_sec"] == \
        results["post"]["inserts_per_sec"], results
    speedup = results["pre"]["wall_s"] / results["post"]["wall_s"]
    section = {
        "workload": f"fig7a hashtable {VARIANT} p={P}",
        "note": "same-machine wall A/B, frozen pre-gen2 kernel "
                "(benchmarks/_pr2_kernel.py) vs gen2, "
                f"best of {ROUNDS}",
        "pre_wall_s": results["pre"]["wall_s"],
        "post_wall_s": results["post"]["wall_s"],
        "speedup": round(speedup, 3),
    }
    report = {}
    if REPORT.exists():
        try:
            report = json.loads(REPORT.read_text())
        except (ValueError, OSError):
            report = {}
    report["kernel_ab_fullstack"] = section
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"speedup: {speedup:.2f}x -> {REPORT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
