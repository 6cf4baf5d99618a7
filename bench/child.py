"""One execution of a benchmark workload in a fresh process.

Imports nrsim, builds the workload's configs and codebooks (set-up), runs
compare_modes, writes the three CSVs, and prints one JSON line with its
timings, its resource use and the per-point standard errors. run.py starts it
with OPENBLAS_NUM_THREADS=1 and PYTHONPATH pointing at the checkout's src/.

    python3 bench/child.py --workload compare_8x4 --seed 2026 --slots 20 --out DIR [--trace]
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import CSV_NAMES  # noqa: E402
from workloads import WORKLOADS, build_codebooks, build_configs  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    wl = WORKLOADS[args.workload]

    import nrsim
    import numpy
    import scipy

    configs = build_configs(nrsim, wl, args.seed, args.slots)
    build_codebooks(nrsim, wl)
    t_setup = time.perf_counter()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(nrsim)
        tracer.enter("bench.workload")
    t0 = time.perf_counter()
    comparison = nrsim.compare_modes(configs)
    t_sweep = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    writers = (nrsim.write_sweep_csv, nrsim.write_ri_hist_csv, nrsim.write_cqi_hist_csv)
    for name, write in zip(CSV_NAMES, writers):
        if tracer:
            tracer.enter("sim.write_csv")
        write(comparison.results, args.out / name)
        if tracer:
            tracer.exit()
    t_csv = time.perf_counter()

    trace_summary = None
    if tracer:
        tracer.exit()
        tracer.uninstall()
        tracer.write(args.out / "spans.csv")
        trace_summary = tracer.summary()

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, all joined
    print(json.dumps({
        "nrsim_file": nrsim.__file__,
        "setup_s": t_setup - T_START,
        "sweep_s": t_sweep - t0,
        "run_s": t_csv - t0,
        "csv_bytes": sum((args.out / n).stat().st_size for n in CSV_NAMES),
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "se": {res.mode.value: [pt.se_mean_throughput for pt in res.points]
               for res in comparison.results},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trace": trace_summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
