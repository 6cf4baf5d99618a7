#!/usr/bin/env python3
"""nrsim benchmark: host time of Type I / Type II / SVD sweeps, end to end and
per module.

    python3 bench/run.py --workload compare_8x4 --seed 2026 --seconds 45 --trace 0

Run from the root of a checkout; nrsim is imported from its src/. Every
workload execution is a fresh process (bench/child.py) with
OPENBLAS_NUM_THREADS=1 and nrsim's default worker count, min(nproc, points).

--trace 0 repeats the workload until --seconds have passed and reports the
medians of the end-to-end metrics. --trace 1 runs cycles of three executions,
one worker untraced, the default worker count untraced, and one worker with
spans around nrsim's public names, and reports the per-layer metrics. Both
check every execution's CSVs (bench/check.py) and that repeated executions
write identical bytes. The last line of standard output is the result JSON;
a fuller record, with the machine fingerprint, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))

from check import CSV_NAMES, check_outputs, csv_digests, read_outputs  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def run_child(wl, seed: int, slots: int, out_dir: Path, *, one_worker: bool = False,
              trace: bool = False) -> dict:
    """Run one workload execution; returns its record plus the wall time from
    process start to exit, measured here."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("NRSIM_THREADS", None)
    if one_worker:
        env["NRSIM_THREADS"] = "1"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", wl.name, "--seed", str(seed),
           "--slots", str(slots), "--out", str(out_dir)] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise ChildFailed(f"{wl.name} execution exceeded {CHILD_TIMEOUT_S} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{wl.name} execution exited {proc.returncode}: {stderr[-3000:]}")
    rec = json.loads(stdout.strip().splitlines()[-1])
    if not Path(rec["nrsim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildFailed(f"nrsim was imported from {rec['nrsim_file']}, not from {SRC}")
    rec["wall_s"] = wall
    rec["digests"] = csv_digests(out_dir)
    return rec


def load_reference(name: str) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worker_count(wl) -> int:
    """nrsim's default: one process per SNR point, at most one per CPU."""
    return max(1, min(os.cpu_count() or 1, len(wl.snr_db)))


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def fingerprint(wl, seed: int, slots: int, child: dict | None) -> dict:
    cpu_model = None
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind, size = (_read_text(f"{base}/{f}") for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nrsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": seed,
        "slots_per_point": slots,
        "git_commit": commit,
        "nrsim_source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "workers": worker_count(wl),
        "openblas_num_threads": child and child["openblas_num_threads"],
        "versions": child and child["versions"],
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "cpu_cache": caches,
    }


class Run:
    """Executions of one benchmark run, with their output-check tally."""

    def __init__(self, wl, seed: int, slots: int, out_dir: Path):
        self.wl, self.seed, self.slots, self.out_dir = wl, seed, slots, out_dir
        # At the reference seed and the workload's own slot count the
        # reference must exist and match; elsewhere only invariants apply.
        at_reference = seed == REFERENCE_SEED and slots == wl.slots
        self.reference = (load_reference(wl.name) or {}) if at_reference else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[dict] = []
        self.last_child: dict | None = None

    def execute(self, kind: str, **kwargs) -> dict:
        out = self.out_dir / kind
        shutil.rmtree(out, ignore_errors=True)
        rec = run_child(self.wl, self.seed, self.slots, out, **kwargs)
        points = check_outputs(out, self.wl, self.slots, self.reference)
        self.attempted += len(points)
        for (mode, snr), problems in points.items():
            if problems:
                self.failed += 1
                self.problems.append(f"{kind} {mode} {snr:g} dB: {'; '.join(problems)}")
        self.digests.append(rec["digests"])
        rec["out"] = out
        self.last_child = rec
        return rec

    def identical_csvs(self) -> int:
        """CSVs with the same bytes in every execution and, at the reference
        seed and the workload's slot count, the reference's bytes."""
        ref_digests = None if self.reference is None else self.reference.get("csv_sha256", {})
        same = 0
        for name in CSV_NAMES:
            seen = {d[name] for d in self.digests}
            if len(seen) == 1 and (ref_digests is None or ref_digests.get(name) in seen):
                same += 1
        return same

    def check_repeatable(self) -> None:
        for name in CSV_NAMES:
            if len({d[name] for d in self.digests}) > 1:
                self.problems.append(f"{name} differs between executions of the same seed")


def end_to_end(run: Run, seconds: float) -> dict:
    """Repeat the default-worker execution until the time is used up."""
    wl, samples = run.wl, {"wall_s": [], "slots_per_s": [], "setup_s": [], "peak_rss_mb": []}
    scored = wl.scored_per_mode(run.slots) * len(wl.modes)
    start = time.perf_counter()
    lap = []
    while True:
        t0 = time.perf_counter()
        rec = run.execute("default")
        samples["wall_s"].append(rec["wall_s"])
        samples["slots_per_s"].append(scored / rec["sweep_s"])
        samples["setup_s"].append(rec["setup_s"])
        samples["peak_rss_mb"].append(rec["peak_rss_mb"])
        lap.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(lap) >= MIN_REPS and elapsed + statistics.median(lap) > seconds:
            return samples


def per_layer(run: Run, seconds: float) -> dict:
    """Cycles of one-worker, default-worker and traced executions."""
    wl = run.wl
    workers = worker_count(wl)
    per_mode = wl.scored_per_mode(run.slots)
    n_all = per_mode * len(wl.modes)
    n_t1 = per_mode if "type1" in wl.modes else 0
    n_t2 = per_mode if "type2" in wl.modes else 0
    codebook_points = len(wl.snr_db) * sum(m != "svd" for m in wl.modes)

    def per(x, n):
        return x / n if n else 0.0

    samples: dict[str, list] = {}
    start = time.perf_counter()
    lap = []
    while True:
        t0 = time.perf_counter()
        one = run.execute("one_worker", one_worker=True)
        many = run.execute("default")
        traced = run.execute("traced", one_worker=True, trace=True)
        tr = traced["trace"]
        s, c = tr["self_s"], tr["calls"]
        t1_self = s.get("csi.select_csi.type1", 0.0)
        m = {
            "channel.generate_channel.us_per_slot": per(s.get("channel.generate_channel", 0.0), n_all) * 1e6,
            "channel.h_mb": tr["h_bytes"] / 1e6,
            "codebook.build_type1_codebook.ms": s.get("codebook.build_type1_codebook", 0.0) * 1e3,
            "codebook.build_type1_codebook.calls": c.get("codebook.build_type1_codebook", 0),
            "codebook.realize_type2_precoder.us_per_slot": per(s.get("codebook.realize_type2_precoder", 0.0), n_t2) * 1e6,
            "codebook.realize_type2_precoder.calls_per_slot": per(c.get("codebook.realize_type2_precoder", 0), n_t2),
            "codebook.dft_beam.us_per_slot": per(s.get("codebook.dft_beam", 0.0), n_all) * 1e6,
            "codebook.dft_beam.calls_per_slot": per(c.get("codebook.dft_beam", 0), n_all),
            "codebook.dft_beam.distinct_frac": per(tr["dft_beam_distinct"], c.get("codebook.dft_beam", 0)),
            "csi.select_csi.type1.us_per_slot": per(t1_self, n_t1) * 1e6,
            "csi.type1.precoders_per_slot": per(tr["type1_precoders"], n_t1),
            "csi.type1.ns_per_precoder": per(t1_self, tr["type1_precoders"]) * 1e9,
            "csi.select_csi.type2.us_per_slot": per(s.get("csi.select_csi.type2", 0.0), n_t2) * 1e6,
            "csi.quantize_phases.us_per_slot": per(s.get("csi.quantize_phases", 0.0), n_t2) * 1e6,
            "csi.quantize_phases.calls_per_slot": per(c.get("csi.quantize_phases", 0), n_t2),
            "overhead.us_per_point": per(sum(v for k, v in s.items() if k.startswith("overhead.")),
                                         codebook_points) * 1e6,
            "sim.score.us_per_slot": per(s.get("sim.run_sweep", 0.0), n_all) * 1e6,
            "sim.parallel_eff": one["sweep_s"] / (workers * many["sweep_s"]),
            "sim.cpu_s": many["cpu_s"],
            "sim.write_csv.ms": s.get("sim.write_csv", 0.0) * 1e3,
            "sim.write_csv.bytes": many["csv_bytes"],
            "sim.tracing_overhead_frac": traced["run_s"] / one["run_s"] - 1.0,
            "sim.cost_model_ratio": many["sweep_s"] * workers / sum(tr["sweep_s_by_mode"].values()),
            "sim.t1_t2_gap_0db_pct": t1_t2_gap_0db_pct(many["out"], wl),
            "trace.unaccounted_frac": per(s.get("bench.workload", 0.0), tr["root_s"]),
        }
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
        lap.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lap) > seconds:
            break
    samples["sim.outputs_identical"] = [run.identical_csvs()]
    return samples


def t1_t2_gap_0db_pct(out_dir: Path, wl) -> float:
    """|Type II - Type I| mean_se at 0 dB in % of the larger curve's peak;
    0 where the workload does not run both codebooks at 0 dB."""
    if not {"type1", "type2"} <= set(wl.modes) or 0.0 not in wl.snr_db:
        return 0.0
    pts = read_outputs(out_dir)
    full = max(pts[(m, s)]["mean_se"] for m in ("type1", "type2") for s in wl.snr_db)
    return abs(pts[("type2", 0.0)]["mean_se"] - pts[("type1", 0.0)]["mean_se"]) / full * 100.0


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def write_reference() -> int:
    """Record seed-2026 statistics and CSV digests of every workload."""
    ref = {}
    for name, wl in WORKLOADS.items():
        run = Run(wl, REFERENCE_SEED, wl.slots, OUT / f"reference-{name}")
        run.reference = None
        rec = run.execute("default")
        if run.problems:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        pts = read_outputs(rec["out"])
        ref[name] = {
            "seed": REFERENCE_SEED,
            "slots": wl.slots,
            "csv_sha256": rec["digests"],
            "points": [
                {"mode": mode, "snr_db": snr, "se": rec["se"][mode][i],
                 **{k: pts[(mode, snr)][k] for k in ("mean_se", "overhead", "ri", "cqi")}}
                for mode in wl.modes for i, snr in enumerate(wl.snr_db)
            ],
        }
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--slots", type=int, help="slots per SNR point (default: the workload's)")
    p.add_argument("--write-reference", action="store_true",
                   help="re-record bench/reference.json at seed 2026 and exit")
    args = p.parse_args(argv)
    if not (SRC / "nrsim" / "__init__.py").is_file():
        print(f"nrsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        p.error("--workload is required")
    specs = load_metric_specs()[args.trace]

    wl = WORKLOADS[args.workload]
    slots = args.slots or wl.slots
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    run = Run(wl, args.seed, slots, out_dir)
    samples: dict[str, list] = {}
    try:
        samples = (end_to_end if args.trace == "0" else per_layer)(run, args.seconds)
    except ChildFailed as exc:
        run.problems.append(str(exc))
        run.attempted += len(wl.snr_db) * len(wl.modes)
        run.failed += len(wl.snr_db) * len(wl.modes)
    run.check_repeatable()

    metrics, lines = {}, []
    for spec in specs:
        vals = samples.get(spec["name"])
        if not vals:
            continue
        q1, med, q3 = _quartiles(vals)
        metrics[spec["name"]] = {"value": med, "unit": spec["unit"]}
        lines.append(f"{spec['name']:<48} {med:14.6g} {spec['unit']:<8} "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")
    correct = not run.problems and len(metrics) == len(specs)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"fingerprint": fingerprint(wl, args.seed, slots, run.last_child),
              "samples": samples, "problems": run.problems, "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("fingerprint " + json.dumps(record["fingerprint"]))
    print("\n".join(lines))
    print(f"failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} points)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
