"""SNR sweep engine: draw each point's channel into one window of a
selection block plus the feedback delay, select CSI per slot, apply each
report's precoder after a feedback delay, score each reported rank's slots
in one pass through the link abstraction, and aggregate RI/CQI/overhead
statistics per SNR point.

SNR is referenced to unit average channel power with unit-power symbols, so
noise_var = 10^(-snr_db/10). Points have independent derived seeds.
compare_modes starts the one process pool and queues every (config, point)
of its configs on it; run_sweep(cfg) outside a comparison is
compare_modes([cfg]).results[0]. Results are deterministic for a given
config regardless of the worker count.
"""

from __future__ import annotations

import csv
import ctypes
import enum
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it lazily; pool workers inherit it loaded)

from .channel import ChannelConfig, _trajectory
from .channel import _block_slots as _channel_block_slots
from .channel import generate_channel  # not called here: bench/spans.py traces it as sim.generate_channel
from .codebook import (
    AntennaConfig,
    Type2Config,
    _check_ints,
    _check_real,
    build_type1_codebook,
    build_type2_structure,
    oversampling_factors,
    realize_type2_precoder,  # not called here: bench/spans.py traces it as sim.realize_type2_precoder
)
from .csi import (CqiTable, _block_slots, _check_finite, _logdet_capacity, _precoded_sinr,
                  _select_type1, _select_type2, _usable_ranks)
from .csi import select_csi  # not called here: bench/spans.py traces it as sim.select_csi
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

# Beyond this many dB from 0 the noise power nears the ends of the float
# range, and a point would report inf or a spurious top CQI.
_SNR_LIMIT_DB = 1000


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
        points = _check_real("snr_points_db", self.snr_points_db, -_SNR_LIMIT_DB, _SNR_LIMIT_DB)
        if np.ndim(points) != 1 or len(points) == 0:
            raise ValueError(f"snr_points_db must be a nonempty sequence, got {np.shape(points)}")
        if any(b < a for a, b in zip(points, points[1:])):
            raise ValueError("snr_points_db must be sorted ascending")
        object.__setattr__(self, "snr_points_db", tuple(points.tolist()))
        _check_ints(self, num_slots=1, feedback_delay_slots=0, seed=0)
        if self.num_slots <= self.feedback_delay_slots:
            raise ValueError(
                f"num_slots={self.num_slots} leaves no scored slots at "
                f"feedback_delay_slots={self.feedback_delay_slots}"
            )
        if not isinstance(self.codebook_mode, CodebookMode):
            raise ValueError(f"codebook_mode must be a CodebookMode, got {self.codebook_mode!r}")
        if self.codebook_mode is CodebookMode.TYPE2:
            if self.scenario.type2 is None:
                raise ValueError("Type II mode needs a Type2Config in the scenario")
            self.scenario.type2.check_panel(self.scenario.antenna)


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


def _aggregate(snr_db: float, tp: np.ndarray, ri: np.ndarray, cqi: np.ndarray,
               failed: int, bits_of_rank, bandwidth_hz: float) -> SnrPointResult:
    """One point's statistics from its per-slot throughputs and reported
    ranks and CQIs; bits_of_rank(r) is the size of a rank-r report."""
    scored = tp.size
    mean_se = float(tp.mean())
    se_of_mean = float(tp.std(ddof=1) / math.sqrt(scored)) if scored > 1 else 0.0
    ri_hist, cqi_hist = ({int(k): int(n) / scored
                          for k, n in zip(*np.unique(x, return_counts=True))} for x in (ri, cqi))
    mean_overhead = expected_overhead(list(ri_hist.values()), [bits_of_rank(r) for r in ri_hist])
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


def _codebooks(cfg: SweepConfig):
    """(select(h, noise_var, table), block, bits(rank)): the mode's block
    selection, the slots csi's _block_slots lets it select at a time, and its
    report size. The SVD bound selects nothing (select is None), reports
    nothing, and takes the channel generator's blocks. Codebooks are built
    once per process."""
    antenna, channel = cfg.scenario.antenna, cfg.scenario.channel
    if cfg.codebook_mode is CodebookMode.SVD_IDEAL:
        block = _channel_block_slots(len(channel.pdp), channel.num_rx_ports, channel.num_tx_ports)
        return None, block, lambda r: 0
    ov = oversampling_factors(antenna)
    if cfg.codebook_mode is CodebookMode.TYPE1:
        cbs = {r: build_type1_codebook(antenna, r, ov)
               for r in _usable_ranks(range(1, 5), channel.num_rx_ports, antenna.num_ports)}
        return (lambda h, noise_var, table: _select_type1(h, noise_var, cbs, table),
                _block_slots(cbs, channel.num_subbands, channel.num_rx_ports),
                lambda r: type1_overhead_bits(cbs[r], channel.num_subbands).total_bits)
    space = build_type2_structure(antenna, cfg.scenario.type2, ov)
    return (lambda h, noise_var, table: _select_type2(h, noise_var, space, table),
            _block_slots(space, channel.num_subbands, channel.num_rx_ports),
            lambda r: type2_overhead_bits(space, r, channel.num_subbands).total_bits)


def _outcome(ri, cqi, realized_db, table: CqiTable):
    """(throughput per slot, failed slots) of reports (ri, cqi) realized at
    effective SINRs realized_db (dB): ri x efficiency(cqi) where realized_db
    reaches the CQI's threshold less _THRESHOLD_SLACK_DB, else a failure.
    A CQI-0 slot schedules nothing: throughput 0, no failure."""
    scheduled = cqi > 0  # cqi - 1 = -1 reads a threshold no CQI-0 slot uses
    thr_db = np.asarray(table.sinr_threshold_db)[cqi - 1] - _THRESHOLD_SLACK_DB
    ok = scheduled & (realized_db >= thr_db)
    return np.where(ok, ri * table.efficiency(cqi), 0.0), int(np.count_nonzero(scheduled & ~ok))


def _run_point(cfg: SweepConfig, point_idx: int) -> SnrPointResult:
    table, ch_cfg = cfg.scenario.cqi_table, cfg.scenario.channel
    snr_db = cfg.snr_points_db[point_idx]
    noise_var = 10.0 ** (-snr_db / 10.0)
    bandwidth_hz = ch_cfg.num_subbands * ch_cfg.subband_spacing_hz
    delay = cfg.feedback_delay_slots
    scored = cfg.num_slots - delay
    select, block, bits = _codebooks(cfg)
    # The window holds a block of scored slots and the feedback_delay slots
    # after them; each block's window keeps the previous one's last delay
    # slots at its front and fills the rest from the channel. Select the
    # block, then realize each rank it schedules (CQI > 0) in one pass on the
    # channel the report is applied to, feedback_delay later, with the
    # precoders taken from the selection's w. The SVD bound selects nothing:
    # each scored slot pays the capacity of its delayed channel.
    ri, cqi = np.zeros(scored, dtype=int), np.zeros(scored, dtype=int)
    realized = np.full(scored, np.nan)  # effective SINR (dB) of each scheduled slot, or capacity
    fill = _trajectory(ch_cfg, _derive_point_seed(cfg.seed, point_idx))
    window = np.empty((min(block, scored) + delay, ch_cfg.num_subbands, ch_cfg.num_rx_ports,
                       ch_cfg.num_tx_ports), dtype=complex)
    fill(window[:delay])
    for start in range(0, scored, block):
        n = min(block, scored - start)  # scored slots start to start + n
        h = window[:n + delay]
        fill(h[delay:])
        _check_finite(h)
        s = slice(start, start + n)
        if select is None:
            realized[s] = _logdet_capacity(h[delay:], noise_var).mean(axis=-1)
        else:
            _, ri[s], cqi[s], w, _ = select(h[:n], noise_var, table)
            for rank in set(ri[s][cqi[s] > 0].tolist()):  # np.unique would import numpy.ma
                idx = np.flatnonzero((ri[s] == rank) & (cqi[s] > 0))
                with np.errstate(divide="ignore"):
                    realized[start + idx] = 10.0 * np.log10(
                        _precoded_sinr(h[idx + delay], w[idx, ..., :rank], noise_var))
        window[:delay] = h[n:]
    if select is None:
        ri[:] = min(ch_cfg.num_rx_ports, ch_cfg.num_tx_ports)
        tp, failed = realized, 0
    else:
        tp, failed = _outcome(ri, cqi, realized, table)
    return _aggregate(snr_db, tp, ri, cqi, failed, bits, bandwidth_hz)


def _worker_count(num_tasks: int) -> int:
    limit = os.cpu_count() or 1
    env = os.environ.get("NRSIM_THREADS", "").strip()
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"NRSIM_THREADS must be an integer, got {env!r}") from None
        if threads < 1:
            raise ValueError(f"NRSIM_THREADS must be >= 1, got {env!r}")
        limit = min(limit, threads)
    return max(1, min(limit, num_tasks))


def _init_worker() -> None:
    """Keep a pool worker's per-slot numpy temporaries in the heap: fix
    glibc's mmap threshold at 32 MiB and trim only above 1 GiB. A forked
    worker inherits the caller's threshold, and at its low start value the
    worker maps and unmaps the per-slot temporaries (tracemalloc peak 7.2 MB
    on a 16-port Type I slot) every slot: on the compare_8x4 benchmark the
    two workers of one compare_modes call, which run the points of all three
    modes, take about 32k minor page faults (getrusage of the children)
    without these settings and 11k with them.
    Only nrsim's own pool workers change: the caller's process, and so the
    one-worker path (NRSIM_THREADS=1), keeps its settings. Does nothing
    where mallopt does not exist."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


# The comparison open in this context: the iterator of each config's point
# results that compare_modes queued, in config order. run_sweep takes the first.
_open_sweeps: ContextVar[list | None] = ContextVar("nrsim_open_sweeps", default=None)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every SNR point of one sweep; deterministic per (config, seed).
    Inside compare_modes it collects the points its comparison queued for
    cfg; otherwise it is compare_modes([cfg]).results[0]."""
    sweeps = _open_sweeps.get()
    if not sweeps:
        return compare_modes([cfg]).results[0]
    return SweepResult(mode=cfg.codebook_mode, points=tuple(sweeps.pop(0)))


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


_PAIRED_FIELDS = ("snr_points_db", "num_slots", "feedback_delay_slots", "seed",
                  "scenario.antenna", "scenario.channel", "scenario.cqi_table")


def compare_modes(cfgs) -> ModeComparison:
    """Run several sweep configs over paired channel seeds and classify which
    mode wins at each SNR point.

    All configs must agree on every field in _PAIRED_FIELDS so per-point
    differences reflect the codebook alone; scenario.type2 may differ, as
    only Type II mode reads it.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("compare_modes needs at least one config")
    ref = cfgs[0]
    for field in _PAIRED_FIELDS:
        get = attrgetter(field)
        if any(get(other) != get(ref) for other in cfgs[1:]):
            raise ValueError(f"configs disagree on {field}")
    # Build every config's codebooks, and with its block length Type I's _gram_plan,
    # first, so forked workers inherit them. One pool of _worker_count(configs x
    # points) processes gets every (config, point) task at once, in config order and
    # then point order; at one worker the builtin map runs each config's points in
    # this process, inside its own run_sweep call. The finally cancels the points
    # still queued and shuts the pool down, also when queuing itself fails.
    for cfg in cfgs:
        _codebooks(cfg)
    points = range(len(ref.snr_points_db))
    workers = _worker_count(len(cfgs) * len(points))
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker) if workers > 1 else None
    sweeps = []
    token = _open_sweeps.set(sweeps)
    try:
        sweeps += [(pool.map if pool else map)(_run_point, repeat(cfg), points) for cfg in cfgs]
        results = tuple(run_sweep(cfg) for cfg in cfgs)
    finally:
        _open_sweeps.reset(token)
        if pool is not None:
            pool.shutdown(cancel_futures=True)
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


def _write_hist_csv(results, path, column: str, attr: str) -> None:
    """One row per (mode, SNR point, key of the point's histogram attr):
    snr_db, mode, column, fraction."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mode", column, "fraction"])
        for res in results:
            for pt in res.points:
                hist = getattr(pt, attr)
                for key in sorted(hist):
                    writer.writerow([_fmt(pt.snr_db), res.mode.value, key, _fmt(hist[key])])


def write_ri_hist_csv(results, path) -> None:
    _write_hist_csv(results, path, "rank", "ri_histogram")


def write_cqi_hist_csv(results, path) -> None:
    _write_hist_csv(results, path, "cqi", "cqi_histogram")
