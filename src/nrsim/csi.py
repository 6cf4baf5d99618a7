"""Channel state information: SVD reference, per-layer MMSE SINRs, the
effective-SINR link abstraction, CQI mapping, and RI/PMI/CQI selection.

Selection maximizes predicted throughput (rank times the spectral efficiency
of the mapped CQI). Type I is searched exhaustively; Type II uses a two-stage
projection-and-quantization construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .codebook import (
    TYPE2_MAX_RANK,
    TYPE2_SB_AMPLITUDES,
    TYPE2_WB_AMPLITUDES,
    Codebook,
    Type2CodebookSpace,
    TypeIIPmi,
    TypeIPmi,
    realize_type2_precoder,
)

__all__ = [
    "SvdResult",
    "CqiTable",
    "CsiReport",
    "svd_precode",
    "mimo_capacity",
    "layer_sinr_mmse",
    "effective_sinr",
    "map_cqi",
    "quantize_phases",
    "select_csi",
]

# 4-bit CQI spectral efficiencies (bits/s/Hz), indices 1..15.
_CQI_EFFICIENCY = (
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770,
    1.1758, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)
_DEFAULT_GAP_DB = 2.0


@dataclass(frozen=True)
class SvdResult:
    """Full factorization H = U diag(sigma) V^H; v is num_tx x num_tx so its
    leading columns precode any rank up to min(num_rx, num_tx)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class CqiTable:
    """CQI index -> (spectral efficiency, SINR threshold). Index 0 means
    out of range and is not a row."""

    spectral_efficiency: tuple[float, ...]
    sinr_threshold_db: tuple[float, ...]

    def __post_init__(self) -> None:
        se = np.asarray(self.spectral_efficiency, dtype=float)
        thr = np.asarray(self.sinr_threshold_db, dtype=float)
        if se.size == 0 or se.size != thr.size:
            raise ValueError("table must have matching, nonempty efficiency and threshold columns")
        if not np.all(np.isfinite(se) & (se > 0)):
            raise ValueError(
                f"spectral_efficiency must be finite and positive, got {self.spectral_efficiency}")
        if not np.all(np.isfinite(thr)):
            raise ValueError(f"sinr_threshold_db must be finite, got {self.sinr_threshold_db}")
        if np.any(np.diff(se) <= 0):
            raise ValueError("spectral efficiencies must be strictly increasing")
        if np.any(np.diff(thr) <= 0):
            raise ValueError("SINR thresholds must be strictly increasing")

    def efficiency(self, cqi: int) -> float:
        if cqi == 0:
            return 0.0
        return self.spectral_efficiency[cqi - 1]

    @classmethod
    def default(cls, gap_db: float = _DEFAULT_GAP_DB) -> "CqiTable":
        """Embedded 15-entry table; threshold = gap * (2^SE - 1) in linear."""
        gap = 10.0 ** (gap_db / 10.0)
        thr = tuple(10.0 * math.log10(gap * (2.0 ** se - 1.0)) for se in _CQI_EFFICIENCY)
        return cls(_CQI_EFFICIENCY, thr)

    @classmethod
    def from_csv(cls, path) -> "CqiTable":
        """Load rows (cqi_index, efficiency, threshold_db); indices must be
        contiguous from 1."""
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            required = {"cqi_index", "efficiency", "threshold_db"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"{path}: expected columns {sorted(required)}")
            for row in reader:
                try:  # a short row leaves None in its missing fields
                    rows.append((int(row["cqi_index"]), float(row["efficiency"]),
                                 float(row["threshold_db"])))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}:{reader.line_num}: expected an integer cqi_index and numeric "
                        f"efficiency and threshold_db, got {list(row.values())}") from None
        rows.sort()
        if not rows or [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}: cqi_index must run contiguously from 1")
        return cls(tuple(r[1] for r in rows), tuple(r[2] for r in rows))


@dataclass(frozen=True)
class CsiReport:
    ri: int
    pmi: "TypeIPmi | TypeIIPmi"
    cqi: int
    predicted_throughput: float

    def __post_init__(self) -> None:
        if self.ri < 1:
            raise ValueError(f"ri must be >= 1, got {self.ri}")
        if isinstance(self.pmi, TypeIIPmi) and self.pmi.rank != self.ri:
            raise ValueError(f"ri={self.ri} inconsistent with a rank-{self.pmi.rank} PMI")
        if self.cqi < 0:
            raise ValueError(f"cqi must be >= 0, got {self.cqi}")


def svd_precode(h: np.ndarray) -> SvdResult:
    """Full SVD of one channel matrix; v's leading columns are the ideal
    per-layer precoders and u^H the matched detector."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.size == 0:
        raise ValueError(f"h must be a nonempty 2-D matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h contains non-finite entries")
    u, sigma, vh = np.linalg.svd(h, full_matrices=True)
    return SvdResult(u=u, sigma=sigma, v=vh.conj().T)


def mimo_capacity(sigma, noise_var: float) -> float:
    """Shannon capacity of the diagonalized channel with unit-power symbols:
    sum_i log2(1 + sigma_i^2 / noise_var)."""
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    s = np.asarray(sigma, dtype=float)
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    return float(np.sum(np.log2(1.0 + s * s / noise_var)))


def _layer_sinr_batch(g: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-layer linear-MMSE SINR for effective channels g (..., rx, layers):
    SINR_i = 1/[(I + G^H G / nv)^-1]_ii - 1, clamped at 0 against roundoff."""
    r = g.shape[-1]
    gram = np.einsum("...ir,...is->...rs", g.conj(), g)
    a = np.eye(r) + gram / noise_var
    diag = np.einsum("...ii->...i", np.linalg.inv(a)).real
    return np.maximum(1.0 / diag - 1.0, 0.0)


def layer_sinr_mmse(h: np.ndarray, w: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-layer SINR after linear-MMSE detection of G = h @ w."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0:
        w = w.reshape(1, 1)
    elif w.ndim == 1:
        w = w[:, None]
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    if h.shape[1] != w.shape[0]:
        raise ValueError(f"h has {h.shape[1]} columns but w has {w.shape[0]} rows")
    return _layer_sinr_batch(h @ w, noise_var)


def _effective_sinr(sinr: np.ndarray) -> np.ndarray:
    """Capacity-domain average over the last two axes (subbands, layers):
    eff = 2^(mean of log2(1+SINR)) - 1."""
    return np.exp2(np.mean(np.log2(1.0 + sinr), axis=(-2, -1))) - 1.0


def effective_sinr(per_layer_per_subband) -> float:
    """Capacity-domain average of every SINR value: eff = 2^(mean of
    log2(1+SINR)) - 1."""
    arr = np.asarray(per_layer_per_subband, dtype=float)
    if arr.size == 0:
        raise ValueError("effective_sinr needs at least one SINR value")
    if np.any(arr < 0):
        raise ValueError("SINR values must be nonnegative")
    return float(_effective_sinr(arr.reshape(1, -1)))


def _choose(candidates, table: CqiTable) -> tuple[float, int, int, int]:
    """(throughput, rank, index, cqi) of the best candidate; candidates yields
    (rank, effective SINRs of that rank's candidates) in ascending rank."""
    rates = np.concatenate([[0.0], table.spectral_efficiency])
    best = None
    for rank, eff in candidates:
        eff = np.atleast_1d(eff)
        cqi = np.zeros(eff.shape, dtype=int)
        positive = eff > 0
        if np.any(positive):
            eff_db = 10.0 * np.log10(eff[positive])
            cqi[positive] = np.searchsorted(table.sinr_threshold_db, eff_db, side="right")
        throughput = rank * rates[cqi]
        i = int(np.argmax(throughput))
        if best is None or throughput[i] > best[0]:
            best = (float(throughput[i]), rank, i, int(cqi[i]))
    return best


def map_cqi(eff_sinr: float, table: CqiTable) -> int:
    """Largest CQI whose threshold is <= eff_sinr (boundary inclusive); 0 if
    below the lowest."""
    return _choose([(1, np.asarray([eff_sinr], dtype=float))], table)[3]


def quantize_phases(target_coeffs, amplitudes, n_psk: int) -> np.ndarray:
    """PSK indices maximizing |sum_j a_j * exp(j*2*pi*idx_j/n_psk) * conj(c_j)|,
    the correlation between the realized coefficient vector and the target,
    for each row along the last axis (leading axes are a batch).

    Exact maximizer over the full index grid: the optimum aligns every term
    near one common direction, so it is a per-coefficient nearest-point
    assignment for some rotation psi; sweeping psi over the breakpoints and
    the midpoints between them visits every distinct assignment (at most 2
    per coefficient). Ties keep the first candidate rotation.
    """
    z = np.atleast_1d(np.asarray(target_coeffs, dtype=complex))
    a = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if z.shape != a.shape:
        raise ValueError(f"coefficient/amplitude shape mismatch: {z.shape} vs {a.shape}")
    if n_psk < 1:
        raise ValueError(f"n_psk must be >= 1, got {n_psk}")
    if np.any(a < 0):
        raise ValueError("amplitudes must be nonnegative")
    if z.shape[-1] == 0:
        return np.zeros(z.shape, dtype=int)
    weight = a * np.abs(z)
    active = weight > 0
    delta = 2.0 * np.pi / n_psk
    phi = -np.angle(z)  # term angle is idx*delta + phi
    breaks = np.sort(np.mod(phi + delta / 2.0, delta), axis=-1)
    mids = (breaks + np.roll(breaks, -1, axis=-1)) / 2.0
    mids[..., -1] = np.mod((breaks[..., -1] + breaks[..., 0] + delta) / 2.0, delta)
    psi = np.concatenate([breaks, mids], axis=-1)[..., :, None]  # (..., candidates, 1)
    phi, weight, active = phi[..., None, :], weight[..., None, :], active[..., None, :]
    idx = np.where(active, np.round((psi - phi) / delta).astype(int) % n_psk, 0)
    val = np.abs(np.sum(weight * np.exp(1j * (idx * delta + phi)), axis=-1))
    best = np.argmax(val, axis=-1)[..., None, None]
    return np.take_along_axis(idx, best, axis=-2)[..., 0, :]


def _select_type1(h: np.ndarray, noise_var: float, codebooks: dict[int, Codebook],
                  table: CqiTable) -> CsiReport:
    num_sb, num_rx, num_tx = h.shape
    for rank, cb in codebooks.items():
        if len(cb) == 0:
            raise ValueError(f"rank-{rank} codebook is empty")
    ranks = [rank for rank in sorted(codebooks) if rank <= min(num_rx, num_tx)]
    if not ranks:
        raise ValueError("no codebook rank is usable for this channel size")
    candidates = (
        (rank, _effective_sinr(_layer_sinr_batch(
            np.einsum("kij,ejr->ekir", h, codebooks[rank].w_stack), noise_var)))
        for rank in ranks)
    tp, rank, e, cqi = _choose(candidates, table)
    pmi = codebooks[rank].pmi_of(e)
    report_pmi = TypeIPmi(pmi.i11, pmi.i12, pmi.i13, pmi.i2_per_subband * num_sb)
    return CsiReport(ri=rank, pmi=report_pmi, cqi=cqi, predicted_throughput=tp)


def _nearest_amplitude_index(rel: np.ndarray) -> np.ndarray:
    return np.argmin(np.abs(rel[:, None] - TYPE2_WB_AMPLITUDES[None, :]), axis=1)


def _quantize_type2_layer(c: np.ndarray, n_psk: int):
    """Quantize one layer's beam-basis target coefficients c (subbands x 2B).

    Wideband amplitude: per-coefficient mean magnitude over subbands, scaled
    by the strongest coefficient, rounded to the 8-level alphabet. Subband
    amplitude bit: above/below that mean. Phases: exact max-correlation PSK
    indices per subband, after rotating each subband so the strongest
    coefficient is real-positive.
    """
    width = c.shape[1]
    wb_mag = np.abs(c).mean(axis=0)
    peak = float(wb_mag.max())
    if peak > 0.0:
        ref = int(np.argmax(wb_mag))
        c = c * np.exp(-1j * np.angle(c[:, ref]))[:, None]
        wb_idx = _nearest_amplitude_index(wb_mag / peak)
    else:
        wb_idx = np.zeros(width, dtype=int)
        wb_idx[0] = len(TYPE2_WB_AMPLITUDES) - 1
    sb_bits = (np.abs(c) >= wb_mag[None, :]).astype(int)
    amp = TYPE2_WB_AMPLITUDES[wb_idx][None, :] * TYPE2_SB_AMPLITUDES[sb_bits]
    return wb_idx, sb_bits, quantize_phases(c, amp, n_psk)


def _select_type2(h: np.ndarray, noise_var: float, space: Type2CodebookSpace,
                  table: CqiTable) -> CsiReport:
    num_sb, num_rx, num_tx = h.shape
    cfg, t2 = space.cfg, space.t2
    if num_tx != cfg.num_ports:
        raise ValueError(f"channel has {num_tx} tx ports but the panel has {cfg.num_ports}")
    p_pol = num_tx // 2
    h_pol = h.reshape(num_sb, num_rx, 2, p_pol)

    # Stage 1: the (rotation, beam subset) pair maximizing the projection
    # power of H onto the beam span, summed over subbands and polarizations;
    # np.argmax keeps the first of tied pairs in (q1, q2, i12) order.
    proj = np.einsum("krpe,qsbe->qskrpb", h_pol, space.beams.conj()) / math.sqrt(p_pol)
    gains = np.sum(np.abs(proj) ** 2, axis=(2, 3, 4))  # (o1, o2, n1*n2)
    scores = np.sum(gains[:, :, space.combos], axis=-1)  # (o1, o2, combinations)
    q1, q2, i12 = (int(i) for i in np.unravel_index(np.argmax(scores), scores.shape))
    beams = space.beams[q1, q2, space.combos[i12]]

    # Stage 2: per layer, quantize the dominant right-singular vectors in the
    # selected beam basis, then rate every layer count up to the Type II limit.
    vh = np.linalg.svd(h)[2]  # (subbands, num_tx, num_tx)
    max_layers = min(TYPE2_MAX_RANK, num_rx, num_tx)
    quant = []
    for layer in range(max_layers):
        target = vh[:, layer, :].conj().reshape(num_sb, 2, p_pol)
        c = np.einsum("kpe,be->kpb", target, beams.conj()).reshape(num_sb, -1) / p_pol
        quant.append(_quantize_type2_layer(c, t2.n_psk))
    wb = tuple(tuple(amps.tolist()) for amps, _, _ in quant)
    sb = tuple(tuple(map(tuple, bits.tolist())) for _, bits, _ in quant)
    ph = tuple(tuple(map(tuple, phases.tolist())) for _, _, phases in quant)
    pmis = [TypeIIPmi(i11=(q1, q2), i12=i12, wideband_amplitudes=wb[:n],
                      subband_cophase=ph[:n], subband_amplitude=sb[:n])
            for n in range(1, max_layers + 1)]
    candidates = (
        (pmi.rank, _effective_sinr(_layer_sinr_batch(
            np.einsum("kij,kjr->kir", h, realize_type2_precoder(space, pmi)), noise_var)))
        for pmi in pmis)
    tp, layers, _, cqi = _choose(candidates, table)
    return CsiReport(ri=layers, pmi=pmis[layers - 1], cqi=cqi, predicted_throughput=tp)


def select_csi(h, noise_var: float, codebooks, table: CqiTable) -> CsiReport:
    """Pick (RI, PMI, CQI) maximizing predicted throughput for one slot.

    h is the slot view (num_subbands, num_rx, num_tx); a bare 2-D matrix is
    treated as a single subband. codebooks is either a mapping rank ->
    Codebook (Type I, exhaustive search; ranks above min(num_rx, num_tx) are
    skipped) or a Type2CodebookSpace (two-stage construction).

    Every candidate precoder is rated the same way: its effective SINR maps
    to the largest CQI whose threshold is at or below it (0 where the SINR is
    <= 0), and the rating is rank times that CQI's spectral efficiency. The
    first best candidate is reported, so ties prefer the lower rank, then the
    lower entry index (Type I entries run in lexicographic PMI order).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim == 2:
        h = h[None]
    if h.ndim != 3 or h.size == 0:
        raise ValueError(f"slot view must be (subbands, rx, tx), got shape {h.shape}")
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    if isinstance(codebooks, Type2CodebookSpace):
        return _select_type2(h, noise_var, codebooks, table)
    if not codebooks:
        raise ValueError("no codebooks supplied")
    return _select_type1(h, noise_var, dict(codebooks), table)
