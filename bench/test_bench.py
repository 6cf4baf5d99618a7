"""Self-tests of the benchmark (about two minutes on two cores):

    python3 -m pytest -q bench/test_bench.py
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import check_outputs  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

TINY_SLOTS = {"compare_8x4": 3, "type1_16port": 3, "svd_52sb": 20}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_of_benchmark_json(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                  "--slots", str(TINY_SLOTS[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name in wanted:  # the human-readable lines carry the same names and units
        line = next(l for l in proc.stdout.splitlines() if l.split()[:1] == [name])
        assert line.split()[2] == wanted[name]


def _rewrite(path: Path, row_index: int, column: str, value) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row_index][column] = repr(value)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Outputs of one default-worker execution per workload at seed 2026."""
    cache = {}

    def get(name):
        if name not in cache:
            wl = WORKLOADS[name]
            out = tmp_path_factory.mktemp(name) / "out"
            cache[name] = (wl, out, run.run_child(wl, REFERENCE_SEED, wl.slots, out))
        return cache[name]
    return get


@pytest.fixture
def reference_outputs(reference_run):
    wl, out, _ = reference_run("type1_16port")
    return wl, out


def _failed_points(wl, out, reference=None):
    reference = run.load_reference(wl.name) if reference is None else reference
    problems = check_outputs(out, wl, wl.slots, reference)
    return [key for key, p in problems.items() if p]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_outputs_pass(reference_run, workload):
    wl, out, rec = reference_run(workload)
    reference = run.load_reference(workload)
    assert (reference["seed"], reference["slots"]) == (REFERENCE_SEED, wl.slots)
    assert _failed_points(wl, out) == []
    assert rec["digests"] == reference["csv_sha256"]


def test_stale_reference_fails_every_point(reference_outputs):
    wl, out = reference_outputs
    stale = dict(run.load_reference(wl.name), slots=wl.slots + 8)
    assert len(_failed_points(wl, out, stale)) == len(wl.modes) * len(wl.snr_db)
    assert len(_failed_points(wl, out, {})) == len(wl.modes) * len(wl.snr_db)


@pytest.mark.parametrize("name, row, column, delta", [
    ("sweep.csv", 0, "mean_se", "2se"),  # within every invariant, outside the reference's SE
    ("sweep.csv", 2, "mean_overhead_bits", 1.0),
    ("ri_hist.csv", 0, "fraction", 1e-9),
    ("cqi_hist.csv", 0, "fraction", 1e-9),
])
def test_output_check_trips_on_perturbed_csv(reference_outputs, tmp_path, name, row, column, delta):
    wl, out = reference_outputs
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    with open(bad / name, newline="") as fh:
        value = float(list(csv.DictReader(fh))[row][column])
    if delta == "2se":
        ref = run.load_reference(wl.name)["points"][row]
        _rewrite(bad / name, row, "mean_mbps",
                 (value + 2 * ref["se"]) * wl.subbands * wl.subband_spacing_hz / 1e6)
        delta = 2 * ref["se"]
    _rewrite(bad / name, row, column, value + delta)
    assert len(_failed_points(wl, bad)) == 1


def test_invariants_trip_without_reference(reference_outputs, tmp_path):
    wl, out = reference_outputs
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    with open(bad / "ri_hist.csv", newline="") as fh:
        value = float(list(csv.DictReader(fh))[0]["fraction"])
    _rewrite(bad / "ri_hist.csv", 0, "fraction", value + 1e-3)
    problems = check_outputs(bad, wl, wl.slots, None)
    assert [key for key, p in problems.items() if p] == [("type1", wl.snr_db[0])]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "svd_52sb", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
