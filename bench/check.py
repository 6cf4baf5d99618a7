"""Output check on the three CSVs of one workload execution.

Every point is checked against invariants that hold for any seed. At the
reference seed and the workload's own slot count, a point also fails if its
mean_se departs from the reference by more than the reference's standard
error of the mean, if its RI or CQI histogram differs, if its mean overhead
differs, or if the reference has no entry for it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

CSV_NAMES = ("sweep.csv", "ri_hist.csv", "cqi_hist.csv")
_REL = 1e-12  # float slack for identities the program computes in one expression


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in CSV_NAMES}


def read_outputs(out_dir: Path) -> dict[tuple[str, float], dict]:
    """Rows of the three CSVs keyed by (mode, snr_db)."""
    points: dict[tuple[str, float], dict] = {}
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            points[(row["mode"], float(row["snr_db"]))] = {
                "mean_se": float(row["mean_se"]),
                "mean_mbps": float(row["mean_mbps"]),
                "overhead": float(row["mean_overhead_bits"]),
                "fail_frac": float(row["fail_frac"]),
                "ri": {},
                "cqi": {},
            }
    for name, hist, key in (("ri_hist.csv", "ri", "rank"), ("cqi_hist.csv", "cqi", "cqi")):
        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                pt = points.get((row["mode"], float(row["snr_db"])))
                if pt is None:
                    raise ValueError(f"{name} has a row for a point missing from sweep.csv: {row}")
                pt[hist][int(row[key])] = float(row["fraction"])
    return points


def _invariant_problems(pt: dict, mode: str, wl) -> list[str]:
    """Properties of any seed that do not restate nrsim's own formulas."""
    problems = []
    values = [pt["mean_se"], pt["mean_mbps"], pt["overhead"], pt["fail_frac"]]
    values += list(pt["ri"].values()) + list(pt["cqi"].values())
    if not all(math.isfinite(v) for v in values):
        return ["non-finite value"]
    if pt["mean_se"] < 0 or pt["overhead"] < 0 or not 0.0 <= pt["fail_frac"] <= 1.0:
        problems.append("mean_se, overhead or fail_frac out of range")
    mbps = pt["mean_se"] * wl.subbands * wl.subband_spacing_hz / 1e6
    if not math.isclose(pt["mean_mbps"], mbps, rel_tol=_REL, abs_tol=_REL):
        problems.append("mean_mbps != mean_se x bandwidth")
    # A rank cannot exceed min(rx, tx), whatever the codebook allows.
    for hist, valid in (("ri", range(1, min(wl.rx, wl.tx) + 1)), ("cqi", range(0, 16))):
        h = pt[hist]
        if not h or any(k not in valid or f <= 0 for k, f in h.items()):
            problems.append(f"{hist} histogram has invalid entries {h}")
        elif not math.isclose(sum(h.values()), 1.0, abs_tol=1e-9):
            problems.append(f"{hist} histogram sums to {sum(h.values())!r}")
    if mode == "svd" and pt["overhead"] != 0.0:
        problems.append("svd point reports feedback overhead")
    return problems


def _reference_problems(pt: dict, ref: dict) -> list[str]:
    problems = []
    if abs(pt["mean_se"] - ref["mean_se"]) > ref["se"]:
        problems.append(f"mean_se {pt['mean_se']!r} departs from reference {ref['mean_se']!r} "
                        f"by more than its standard error {ref['se']!r}")
    for hist in ("ri", "cqi"):
        want = {int(k): v for k, v in ref[hist].items()}
        if pt[hist] != want:
            problems.append(f"{hist} histogram {pt[hist]} differs from reference {want}")
    if pt["overhead"] != ref["overhead"]:
        problems.append(f"overhead {pt['overhead']!r} differs from reference {ref['overhead']!r}")
    return problems


def check_outputs(out_dir: Path, wl, slots: int,
                  reference: dict | None) -> dict[tuple[str, float], list[str]]:
    """Problems per expected (mode, snr_db) point; an empty list means it passed.

    ``reference`` is None when the run is not at the reference seed and the
    workload's own slot count. Otherwise it is the workload's entry of
    reference.json ({} if there is none), and every point must match it.
    """
    try:
        points = read_outputs(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return {(m, s): [f"unreadable outputs: {exc}"] for m in wl.modes for s in wl.snr_db}
    ref_points = None
    if reference is not None:
        ref_points = {}
        if reference.get("slots") == slots:
            ref_points = {(r["mode"], r["snr_db"]): r for r in reference["points"]}
    result = {}
    for mode in wl.modes:
        for snr in wl.snr_db:
            pt = points.pop((mode, snr), None)
            if pt is None:
                result[(mode, snr)] = ["missing from sweep.csv"]
                continue
            problems = _invariant_problems(pt, mode, wl)
            if ref_points is not None:
                ref = ref_points.get((mode, snr))
                problems += (_reference_problems(pt, ref) if ref else
                             [f"reference.json has no point for {wl.name} at {slots} slots"])
            result[(mode, snr)] = problems
    for key in points:
        result[key] = ["unexpected row in sweep.csv"]
    return result
