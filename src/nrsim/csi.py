"""Channel state information: SVD reference, per-layer MMSE SINRs, the
effective-SINR link abstraction, CQI mapping, and RI/PMI/CQI selection.

Selection maximizes predicted throughput (rank times the spectral efficiency
of the mapped CQI). Type I is searched exhaustively; Type II uses a two-stage
projection-and-quantization construction.
"""

from __future__ import annotations

import csv
import functools
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
    _type2_columns,
    realize_type2_precoder,  # not called here: bench/spans.py traces it as csi.realize_type2_precoder
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

    def efficiency(self, cqi):
        """Spectral efficiency of a CQI index, or of each in an index array;
        0 at CQI 0."""
        return np.concatenate(([0.0], self.spectral_efficiency))[cqi]

    @classmethod
    def default(cls) -> "CqiTable":
        """Embedded 15-entry table; threshold = gap * (2^SE - 1) in linear,
        with a 2 dB gap."""
        gap = 10.0 ** (_DEFAULT_GAP_DB / 10.0)
        thr = tuple(10.0 * math.log10(gap * (2.0 ** se - 1.0)) for se in _CQI_EFFICIENCY)
        return cls(_CQI_EFFICIENCY, thr)

    @classmethod
    def from_csv(cls, path) -> "CqiTable":
        """Load rows (cqi_index, efficiency, threshold_db); indices must be
        contiguous from 1."""
        rows = []
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                required = {"cqi_index", "efficiency", "threshold_db"}
                if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                    raise ValueError(f"{path}: expected columns {sorted(required)}")
                for row in reader:
                    try:  # short rows fill in None, long rows file surplus under None
                        if None in row:
                            raise ValueError
                        rows.append((int(row["cqi_index"]), float(row["efficiency"]),
                                     float(row["threshold_db"])))
                    except (TypeError, ValueError):
                        raise ValueError(
                            f"{path}:{reader.line_num}: expected an integer cqi_index and "
                            f"numeric efficiency and threshold_db, got {list(row.values())}"
                        ) from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None
        rows.sort()
        if not rows or [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}: cqi_index must run contiguously from 1")
        try:
            return cls(tuple(r[1] for r in rows), tuple(r[2] for r in rows))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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


def _check_noise_var(noise_var: float) -> None:
    if not 0.0 < noise_var < math.inf:  # also refuses nan
        raise ValueError(f"noise_var must be finite and positive, got {noise_var}")


def mimo_capacity(sigma, noise_var: float) -> float | np.ndarray:
    """Shannon capacity of the diagonalized channel with unit-power symbols:
    sum_i log2(1 + sigma_i^2 / noise_var) over the last axis of sigma. One
    sigma vector gives a float; a batch (..., n) gives an array of its
    leading shape."""
    _check_noise_var(noise_var)
    s = np.atleast_1d(np.asarray(sigma, dtype=float))
    if not np.all((s >= 0) & (s < math.inf)):  # also refuses nan
        raise ValueError(f"singular values must be finite and nonnegative, got {s.tolist()}")
    capacity = np.sum(np.log2(1.0 + s * s / noise_var), axis=-1)
    return float(capacity) if s.ndim == 1 else capacity


def _mmse_sinr(upper, noise_var: float) -> np.ndarray:
    """Per-layer linear-MMSE SINR_i = 1/[(I + G/nv)^-1]_ii - 1, clamped at 0
    against roundoff, for Hermitian r x r Grams G given by their upper
    triangle: upper[n] is G[i, j] for the n-th (i, j) of np.triu_indices(r),
    the batch on its trailing axes. Returns (r, *batch). Works on A = G +
    nv*I: closed form for r = 2, else one Gauss-Jordan sweep per index (no
    pivot search, A being positive definite), which turns A into -A^-1 (at
    r = 1, -1/a00); only the upper triangle is kept, and entries no later
    step reads are not updated."""
    r = (math.isqrt(8 * len(upper) + 1) - 1) // 2
    a = [[None] * r for _ in range(r)]
    for (i, j), g in zip(((i, j) for i in range(r) for j in range(i, r)), upper):
        a[i][j] = g.real + noise_var if i == j else g
    if r == 2:
        det = a[0][0] * a[1][1] - (a[0][1].real ** 2 + a[0][1].imag ** 2)
        inv_diag = [a[1][1] / det, a[0][0] / det]
    else:
        for k in range(r):
            p = 1.0 / a[k][k]
            row = {j: (a[k][j] if j > k else np.conj(a[j][k])) * p for j in range(r) if j != k}
            for i in row:
                col = a[i][k] if i < k else np.conj(a[k][i])
                a[i][i] = a[i][i] - (col * row[i]).real
                for j in range(max(i, k) + 1, r):
                    a[i][j] = a[i][j] - col * row[j]
            for j in range(k + 1, r):
                a[k][j] = row[j]
            a[k][k] = -p
        inv_diag = [-a[i][i] for i in range(r)]
    return np.maximum(1.0 / (noise_var * np.array(inv_diag)) - 1.0, 0.0)


def _layer_sinr_batch(g: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-layer linear-MMSE SINR for effective channels g (..., rx, layers),
    shape (..., layers)."""
    r = g.shape[-1]
    gram = np.einsum("...ir,...is->rs...", g.conj(), g)
    upper = [gram[i, j] for i in range(r) for j in range(i, r)]
    return np.moveaxis(_mmse_sinr(upper, noise_var), 0, -1)


def layer_sinr_mmse(h: np.ndarray, w: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-layer SINR after linear-MMSE detection of G = h @ w."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0:
        w = w.reshape(1, 1)
    elif w.ndim == 1:
        w = w[:, None]
    _check_noise_var(noise_var)
    for name, a in (("h", h), ("w", w)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite, got a nan or inf entry")
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
    if not np.all(arr >= 0):  # also refuses nan
        raise ValueError("SINR values must be nonnegative, not nan")
    return float(_effective_sinr(arr.reshape(1, -1)))


def _precoded_sinr(h: np.ndarray, w: np.ndarray, noise_var: float) -> np.ndarray:
    """Effective SINR of precoders w (..., subbands or 1, tx, layers) on
    channels h (..., subbands, rx, tx), over the leading batch axes."""
    return _effective_sinr(_layer_sinr_batch(np.einsum("...kij,...kjr->...kir", h, w), noise_var))


def _choose(candidates, table: CqiTable) -> tuple[float, int, int, int]:
    """(throughput, rank, index, cqi) of the best candidate; candidates yields
    (rank, effective SINRs of that rank's candidates) in ascending rank."""
    best = None
    for rank, eff in candidates:
        eff = np.atleast_1d(eff)
        cqi = np.zeros(eff.shape, dtype=int)
        positive = eff > 0
        if np.any(positive):
            eff_db = 10.0 * np.log10(eff[positive])
            cqi[positive] = np.searchsorted(table.sinr_threshold_db, eff_db, side="right")
        throughput = rank * table.efficiency(cqi)
        i = int(np.argmax(throughput))
        if best is None or throughput[i] > best[0]:
            best = (float(throughput[i]), rank, i, int(cqi[i]))
    return best


def map_cqi(eff_sinr: float, table: CqiTable) -> int:
    """Largest CQI whose threshold is <= eff_sinr (boundary inclusive); 0 if
    below the lowest."""
    if not eff_sinr >= 0:  # also refuses nan
        raise ValueError(f"eff_sinr must be nonnegative, not nan, got {eff_sinr}")
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


@functools.lru_cache(maxsize=16)
def _gram_plan(cbs: tuple[Codebook, ...]):
    """How each codebook's entry Grams gather from shared beam products.

    Columns i <= j of the entry with base beam b and i13 value t use beams
    b + o_i and b + o_j (o = col_offsets[t]), paired by D_d[b + o_i] where
    d = o_j - o_i and D_d[b] pairs beams b and b + d. Returns the flat grid
    index of b + d for each d used, (d values, beams), and per codebook over
    (upper-triangle pairs, t): which d; the flat index of b + o_i, with the
    beams last; and the weights conj(a_ip) * a_jq / (ports * r) of the
    polarization products D_d[p, q], a_i = (1, cophase), (pairs, t, i2, 4).
    """
    if len({(cb.cfg, cb.grid.shape) for cb in cbs}) != 1:
        raise ValueError("Type I codebooks must share one panel and beam grid")
    n_l, n_m = cbs[0].grid.shape[:2]
    l, m = np.divmod(np.arange(n_l * n_m), n_m)

    def moved(offset):  # flat grid index of every beam moved by offset (..., 2)
        return (l + offset[..., :1]) % n_l * n_m + (m + offset[..., 1:]) % n_m

    steps, tables = [], []
    for cb in cbs:
        r = cb.col_offsets.shape[1]
        iu, ju = np.triu_indices(r)
        o_i = cb.col_offsets[:, iu].swapaxes(0, 1)  # (pairs, t, 2)
        steps.append(cb.col_offsets[:, ju].swapaxes(0, 1) - o_i)
        c_i, c_j = cb.cophase[..., iu], cb.cophase[..., ju]  # (t, i2, pairs)
        weights = np.stack([np.ones_like(c_i), c_j, c_i.conj(), c_i.conj() * c_j], axis=-1)
        tables.append((moved(o_i), weights.transpose(2, 0, 1, 3) / (cb.cfg.num_ports * r)))
    diffs, which = np.unique(np.concatenate([d.reshape(-1, 2) for d in steps]), axis=0,
                             return_inverse=True)
    which = np.split(which, np.cumsum([d.size // 2 for d in steps])[:-1])
    return moved(diffs), [(w.reshape(d.shape[:2]), *t) for w, d, t in zip(which, steps, tables)]


def _select_type1(h: np.ndarray, noise_var: float, codebooks: dict[int, Codebook],
                  table: CqiTable) -> CsiReport:
    num_sb, num_rx, num_tx = h.shape
    ranks = [rank for rank in sorted(codebooks) if rank <= min(num_rx, num_tx)]
    if not ranks:
        raise ValueError("no codebook rank is usable for this channel size")
    shifts, plans = _gram_plan(tuple(codebooks[rank] for rank in ranks))
    # x[p, :, b] = H_p v_b for polarization p and grid beam b: (2, rx, beams, subbands).
    grid = codebooks[ranks[0]].grid
    x = grid.reshape(shifts.shape[1], -1) @ h.reshape(num_sb, num_rx, 2, -1).transpose(2, 1, 3, 0)
    # prod[p, q, d, b] = sum over rx of conj(x[p, :, b]) * x[q, :, b + d]
    prod = (x.conj()[:, None, :, None] * x[:, :, shifts][None]).sum(axis=2)
    prod = prod.reshape(4, *prod.shape[2:])
    candidates = []
    for rank, (which, base, weights) in zip(ranks, plans):
        gathered = prod[np.arange(4)[:, None], which[:, :, None, None], base[:, :, None, :]]
        gram = weights @ gathered.reshape(*gathered.shape[:3], -1)  # (pairs, t, i2, beams * subbands)
        sinr = _mmse_sinr(gram, noise_var).reshape(-1, *gram.shape[1:3], *prod.shape[2:])
        eff = _effective_sinr(np.moveaxis(sinr, 0, -1))  # (t, i2, beams)
        candidates.append((rank, eff.transpose(2, 0, 1).ravel()))  # in entry order
    tp, rank, e, cqi = _choose(candidates, table)
    pmi = codebooks[rank].pmi_of(e)
    report_pmi = TypeIPmi(pmi.i11, pmi.i12, pmi.i13, pmi.i2_per_subband * num_sb)
    return CsiReport(ri=rank, pmi=report_pmi, cqi=cqi, predicted_throughput=tp)


def _quantize_type2(c: np.ndarray, n_psk: int):
    """Quantize beam-basis target coefficients c (layers, subbands, 2B) to
    wideband amplitude (layers, 2B), subband amplitude bit and co-phase
    (layers, subbands, 2B) indices. Per layer: the wideband amplitude is each
    coefficient's mean magnitude over subbands, scaled by the strongest and
    rounded to the 8-level alphabet; the subband bit is above/below that mean;
    phases are exact max-correlation PSK indices after rotating each subband
    so the strongest coefficient is real-positive. An all-zero layer gets
    wideband indices [7, 0, ...]."""
    wb_mag = np.abs(c).mean(axis=1)  # (layers, 2B)
    peak = wb_mag.max(axis=1, keepdims=True)
    ref = np.argmax(wb_mag, axis=1)[:, None, None]
    c = c * np.exp(-1j * np.angle(np.take_along_axis(c, ref, axis=2)))
    rel = wb_mag / np.where(peak > 0.0, peak, 1.0)
    wb_idx = np.argmin(np.abs(rel[..., None] - TYPE2_WB_AMPLITUDES), axis=-1)
    wb_idx[peak[:, 0] == 0.0, 0] = len(TYPE2_WB_AMPLITUDES) - 1
    sb_bits = (np.abs(c) >= wb_mag[:, None, :]).astype(int)
    amp = TYPE2_WB_AMPLITUDES[wb_idx][:, None, :] * TYPE2_SB_AMPLITUDES[sb_bits]
    return wb_idx, sb_bits, quantize_phases(c, amp, n_psk)


def _select_type2(h: np.ndarray, noise_var: float, space: Type2CodebookSpace,
                  table: CqiTable) -> CsiReport:
    num_sb, num_rx, num_tx = h.shape
    cfg, t2 = space.cfg, space.t2
    if num_tx != cfg.num_ports:
        raise ValueError(f"channel has {num_tx} tx ports but the panel has {cfg.num_ports}")
    p_pol = num_tx // 2
    h_pol = h.reshape(num_sb, num_rx, 2, p_pol)

    # Stage 1: the (rotation, beam subset) pair maximizing sum_b ||H_p v_b||^2,
    # the power each polarization's channel H_p sends through the chosen
    # beams, summed over subbands and polarizations; np.argmax keeps the
    # first of tied pairs in (q1, q2, i12) order.
    proj = np.einsum("krpe,qsbe->qskrpb", h_pol, space.beams) / math.sqrt(p_pol)
    gains = np.sum(np.abs(proj) ** 2, axis=(2, 3, 4))  # (o1, o2, n1*n2)
    scores = np.sum(gains[:, :, space.combos], axis=-1)  # (o1, o2, combinations)
    q1, q2, i12 = (int(i) for i in np.unravel_index(np.argmax(scores), scores.shape))
    beams = space.beams[q1, q2, space.combos[i12]]

    # Stage 2: quantize the dominant right-singular vectors of every layer in
    # the selected beam basis at once; rank n is rated by the first n unit
    # columns, and only the reported rank becomes a PMI.
    vh = np.linalg.svd(h)[2]  # (subbands, num_tx, num_tx)
    max_layers = min(TYPE2_MAX_RANK, num_rx, num_tx)
    target = vh[:, :max_layers, :].conj().reshape(num_sb, max_layers, 2, p_pol)
    c = np.einsum("klpe,be->lkpb", target, beams.conj()).reshape(max_layers, num_sb, -1) / p_pol
    wb_idx, sb_bits, phases = _quantize_type2(c, t2.n_psk)
    unit = _type2_columns(space, (q1, q2), i12, wb_idx, sb_bits, phases)
    candidates = ((n, _precoded_sinr(h, unit[..., :n] / math.sqrt(n), noise_var))
                  for n in range(1, max_layers + 1))
    tp, n, _, cqi = _choose(candidates, table)
    pmi = TypeIIPmi(i11=(q1, q2), i12=i12, wideband_amplitudes=_tuples(wb_idx[:n]),
                    subband_cophase=_tuples(phases[:n]), subband_amplitude=_tuples(sb_bits[:n]))
    return CsiReport(ri=n, pmi=pmi, cqi=cqi, predicted_throughput=tp)


def _tuples(a: np.ndarray) -> tuple:
    """Nested tuples of Python ints, the PMI report format."""
    return tuple(map(_tuples, a)) if a.ndim > 1 else tuple(a.tolist())


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
    if not np.all(np.isfinite(h)):  # LAPACK may never return on inf
        raise ValueError("h must be finite, got a nan or inf entry")
    _check_noise_var(noise_var)
    if isinstance(codebooks, Type2CodebookSpace):
        return _select_type2(h, noise_var, codebooks, table)
    if not codebooks:
        raise ValueError("no codebooks supplied")
    return _select_type1(h, noise_var, dict(codebooks), table)
