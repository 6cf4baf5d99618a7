"""SNR sweep engine: per slot, select CSI, apply the reported precoder after
a feedback delay, score throughput through the link abstraction, and
aggregate RI/CQI/overhead statistics per SNR point.

SNR is referenced to unit average channel power with unit-power symbols, so
noise_var = 10^(-snr_db/10). Points run in parallel with independent derived
seeds; results are deterministic for a given config regardless of the worker
count.
"""

from __future__ import annotations

import csv
import enum
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, generate_channel
from .codebook import (
    AntennaConfig,
    Type2CodebookSpace,
    Type2Config,
    build_type1_codebook,
    build_type2_structure,
    oversampling_factors,
    realize_type2_precoder,
)
from .csi import CqiTable, _effective_sinr, _layer_sinr_batch, select_csi
from .overhead import expected_overhead, type1_overhead_bits, type2_overhead_bits

__all__ = [
    "CodebookMode",
    "Scenario",
    "SweepConfig",
    "SnrPointResult",
    "SweepResult",
    "ComparisonRow",
    "ModeComparison",
    "run_sweep",
    "compare_modes",
    "write_sweep_csv",
    "write_ri_hist_csv",
    "write_cqi_hist_csv",
]

# Realized-vs-threshold comparisons guard against float roundoff at exact
# CQI boundaries (e.g. zero delay and zero Doppler reproduce the selection
# channel bit for bit).
_THRESHOLD_SLACK_DB = 1e-9


class CodebookMode(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    SVD_IDEAL = "svd"


@dataclass(frozen=True)
class Scenario:
    antenna: AntennaConfig
    channel: ChannelConfig
    type2: Type2Config | None = None
    cqi_table: CqiTable | None = None

    def __post_init__(self) -> None:
        if self.antenna.num_ports != self.channel.num_tx_ports:
            raise ValueError(
                f"panel has {self.antenna.num_ports} ports but the channel is configured "
                f"for {self.channel.num_tx_ports} tx ports"
            )
        if self.cqi_table is None:
            object.__setattr__(self, "cqi_table", CqiTable.default())


@dataclass(frozen=True)
class SweepConfig:
    scenario: Scenario
    snr_points_db: tuple[float, ...]
    num_slots: int = 1000
    feedback_delay_slots: int = 1
    codebook_mode: CodebookMode = CodebookMode.TYPE1
    seed: int = 0

    def __post_init__(self) -> None:
        points = tuple(float(s) for s in self.snr_points_db)
        if len(points) == 0:
            raise ValueError("snr_points_db must be nonempty")
        if not all(math.isfinite(s) for s in points):
            raise ValueError(f"snr_points_db must be finite, got {points}")
        if any(b < a for a, b in zip(points, points[1:])):
            raise ValueError("snr_points_db must be sorted ascending")
        object.__setattr__(self, "snr_points_db", points)
        if self.num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {self.num_slots}")
        if self.feedback_delay_slots < 0:
            raise ValueError(f"feedback_delay_slots must be >= 0, got {self.feedback_delay_slots}")
        if self.num_slots <= self.feedback_delay_slots:
            raise ValueError(
                f"num_slots={self.num_slots} leaves no scored slots at "
                f"feedback_delay_slots={self.feedback_delay_slots}"
            )
        if self.codebook_mode is CodebookMode.TYPE2 and self.scenario.type2 is None:
            raise ValueError("Type II mode needs a Type2Config in the scenario")


@dataclass(frozen=True)
class SnrPointResult:
    snr_db: float
    mean_throughput: float  # bits/s/Hz
    mean_throughput_mbps: float
    se_mean_throughput: float  # Monte-Carlo standard error of the mean
    ri_histogram: dict[int, float]
    cqi_histogram: dict[int, float]
    mean_overhead_bits: float
    slots_failed: float


@dataclass(frozen=True)
class SweepResult:
    mode: CodebookMode
    points: tuple[SnrPointResult, ...]


def _derive_point_seed(sweep_seed: int, point_idx: int) -> int:
    """Mode-independent per-point channel seed, so different modes run over
    identical channel realizations (paired comparison)."""
    return int(np.random.SeedSequence((sweep_seed, point_idx)).generate_state(1, np.uint64)[0])


def _materialize_precoders(selector, report, num_subbands: int) -> np.ndarray:
    """Reconstruct the per-subband precoders (subbands, tx, rank) from the
    reported PMI, as the transmitter would."""
    if isinstance(selector, Type2CodebookSpace):
        return realize_type2_precoder(selector, report.pmi)
    w = selector[report.ri].matrix_for(report.pmi)
    return np.broadcast_to(w, (num_subbands,) + w.shape)


def _aggregate(snr_db: float, per_slot_tp: np.ndarray, ri_counts: Counter,
               cqi_counts: Counter, failed: int, mean_overhead: float,
               bandwidth_hz: float) -> SnrPointResult:
    scored = per_slot_tp.size
    mean_se = float(per_slot_tp.mean())
    se_of_mean = float(per_slot_tp.std(ddof=1) / math.sqrt(scored)) if scored > 1 else 0.0
    ri_hist = {r: ri_counts[r] / scored for r in sorted(ri_counts)}
    cqi_hist = {c: cqi_counts[c] / scored for c in sorted(cqi_counts)}
    return SnrPointResult(
        snr_db=snr_db,
        mean_throughput=mean_se,
        mean_throughput_mbps=mean_se * bandwidth_hz / 1e6,
        se_mean_throughput=se_of_mean,
        ri_histogram=ri_hist,
        cqi_histogram=cqi_hist,
        mean_overhead_bits=mean_overhead,
        slots_failed=failed / scored,
    )


def _run_point(cfg: SweepConfig, point_idx: int) -> SnrPointResult:
    scenario = cfg.scenario
    antenna, table = scenario.antenna, scenario.cqi_table
    snr_db = cfg.snr_points_db[point_idx]
    noise_var = 10.0 ** (-snr_db / 10.0)
    ch_cfg = replace(scenario.channel, seed=_derive_point_seed(cfg.seed, point_idx))
    realization = generate_channel(ch_cfg, cfg.num_slots)
    num_sb = realization.num_subbands
    bandwidth_hz = num_sb * ch_cfg.subband_spacing_hz
    delay = cfg.feedback_delay_slots
    scored = cfg.num_slots - delay
    num_rx, num_tx = ch_cfg.num_rx_ports, ch_cfg.num_tx_ports

    if cfg.codebook_mode is CodebookMode.SVD_IDEAL:
        sigma = np.linalg.svd(realization.h[delay:], compute_uv=False)
        capacity = np.log2(1.0 + sigma ** 2 / noise_var).sum(axis=-1).mean(axis=-1)
        return _aggregate(
            snr_db, capacity,
            Counter({min(num_rx, num_tx): scored}), Counter({0: scored}),
            failed=0, mean_overhead=0.0, bandwidth_hz=bandwidth_hz,
        )

    ov = oversampling_factors(antenna)
    if cfg.codebook_mode is CodebookMode.TYPE1:
        max_rank = min(4, num_rx, num_tx)
        selector = {r: build_type1_codebook(antenna, r, ov) for r in range(1, max_rank + 1)}
    else:
        selector = build_type2_structure(antenna, scenario.type2, ov)

    per_slot_tp = np.zeros(scored)
    ri_counts: Counter = Counter()
    cqi_counts: Counter = Counter()
    failed = 0
    for s in range(scored):
        report = select_csi(realization.h[s], noise_var, selector, table)
        ri_counts[report.ri] += 1
        cqi_counts[report.cqi] += 1
        if report.cqi == 0:
            continue  # nothing scheduled; throughput 0 without counting a failure
        w = _materialize_precoders(selector, report, num_sb)
        g = np.einsum("kij,kjr->kir", realization.h[s + delay], w)
        eff = float(_effective_sinr(_layer_sinr_batch(g, noise_var)))
        eff_db = 10.0 * math.log10(eff) if eff > 0 else -math.inf
        if eff_db >= table.sinr_threshold_db[report.cqi - 1] - _THRESHOLD_SLACK_DB:
            per_slot_tp[s] = report.ri * table.efficiency(report.cqi)
        else:
            failed += 1

    ranks = sorted(ri_counts)
    probs = [ri_counts[r] / scored for r in ranks]
    if cfg.codebook_mode is CodebookMode.TYPE1:
        per_rank_bits = [type1_overhead_bits(antenna, ov, r, num_sb).total_bits for r in ranks]
    else:
        per_rank_bits = [
            type2_overhead_bits(antenna, ov, scenario.type2, r, num_sb).total_bits for r in ranks
        ]
    mean_overhead = expected_overhead(probs, per_rank_bits)
    return _aggregate(snr_db, per_slot_tp, ri_counts, cqi_counts, failed,
                      mean_overhead, bandwidth_hz)


def _worker_count(num_tasks: int) -> int:
    limit = os.cpu_count() or 1
    env = os.environ.get("NRSIM_THREADS", "").strip()
    if env:
        try:
            limit = min(limit, max(1, int(env)))
        except ValueError:
            raise ValueError(f"NRSIM_THREADS must be an integer, got {env!r}") from None
    return max(1, min(limit, num_tasks))


def _point_task(args) -> SnrPointResult:
    cfg, idx = args
    return _run_point(cfg, idx)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every SNR point of one sweep; deterministic per (config, seed)."""
    n = len(cfg.snr_points_db)
    workers = _worker_count(n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_point_task, [(cfg, i) for i in range(n)]))
    else:
        points = [_run_point(cfg, i) for i in range(n)]
    return SweepResult(mode=cfg.codebook_mode, points=tuple(points))


@dataclass(frozen=True)
class ComparisonRow:
    """Mean throughputs at one SNR point, ordered like the input configs."""

    snr_db: float
    mean_throughput: tuple[float, ...]
    winner: str  # mode label of the best throughput, or "tie"


@dataclass(frozen=True)
class ModeComparison:
    results: tuple[SweepResult, ...]
    rows: tuple[ComparisonRow, ...]


def compare_modes(cfgs) -> ModeComparison:
    """Run several sweep configs over paired channel seeds and classify which
    mode wins at each SNR point.

    All configs must share the SNR grid, slot counts, seed, and scenario
    geometry so per-point differences reflect the codebook alone.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("compare_modes needs at least one config")
    ref = cfgs[0]
    for other in cfgs[1:]:
        if other.snr_points_db != ref.snr_points_db:
            raise ValueError("configs disagree on snr_points_db")
        if (other.num_slots, other.feedback_delay_slots, other.seed) != (
                ref.num_slots, ref.feedback_delay_slots, ref.seed):
            raise ValueError("configs disagree on num_slots/feedback_delay_slots/seed")
        if other.scenario.antenna != ref.scenario.antenna:
            raise ValueError("configs disagree on the antenna layout")
        if other.scenario.channel != ref.scenario.channel:
            raise ValueError("configs disagree on the channel scenario")
        if other.scenario.cqi_table != ref.scenario.cqi_table:
            raise ValueError("configs disagree on the CQI table")
    results = tuple(run_sweep(c) for c in cfgs)
    rows = []
    for i, snr_db in enumerate(ref.snr_points_db):
        tps = tuple(res.points[i].mean_throughput for res in results)
        best = max(tps)
        winners = [res.mode.value for res, tp in zip(results, tps) if tp == best]
        rows.append(ComparisonRow(snr_db, tps, winners[0] if len(winners) == 1 else "tie"))
    return ModeComparison(results=results, rows=tuple(rows))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_sweep_csv(results, path) -> None:
    """One row per (mode, SNR point): snr_db, mode, mean_se, mean_mbps,
    mean_overhead_bits, fail_frac."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mode", "mean_se", "mean_mbps",
                         "mean_overhead_bits", "fail_frac"])
        for res in results:
            for pt in res.points:
                writer.writerow([
                    _fmt(pt.snr_db), res.mode.value, _fmt(pt.mean_throughput),
                    _fmt(pt.mean_throughput_mbps), _fmt(pt.mean_overhead_bits),
                    _fmt(pt.slots_failed),
                ])


def write_ri_hist_csv(results, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mode", "rank", "fraction"])
        for res in results:
            for pt in res.points:
                for rank in sorted(pt.ri_histogram):
                    writer.writerow([_fmt(pt.snr_db), res.mode.value, rank,
                                     _fmt(pt.ri_histogram[rank])])


def write_cqi_hist_csv(results, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mode", "cqi", "fraction"])
        for res in results:
            for pt in res.points:
                for cqi in sorted(pt.cqi_histogram):
                    writer.writerow([_fmt(pt.snr_db), res.mode.value, cqi,
                                     _fmt(pt.cqi_histogram[cqi])])
