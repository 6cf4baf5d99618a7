"""Channel state information: the capacity bound, per-layer MMSE errors, the
effective-SINR link abstraction, CQI mapping, and RI/PMI/CQI selection.

Selection maximizes predicted throughput (rank times the spectral efficiency
of the mapped CQI). For both codebook families the highest rank is rated
first, and a lower rank only in the slots where it can still reach the best
throughput found, so a skipped rank can neither win nor tie. The Type I
search is exact; Type II uses a two-stage projection-and-quantization design.
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
    _check_count,
    _check_ints,
    _check_real,
    _type2_columns,
    realize_type2_precoder,  # not called here: bench/spans.py traces it as csi.realize_type2_precoder
)

__all__ = [
    "CqiTable",
    "CsiReport",
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
_SELECT_BYTES = 2 << 20  # bytes a selection block's largest array may take (_block_slots)


@dataclass(frozen=True)
class CqiTable:
    """CQI index -> (spectral efficiency, SINR threshold). Index 0 means
    out of range and is not a row."""

    spectral_efficiency: tuple[float, ...]
    sinr_threshold_db: tuple[float, ...]

    def __post_init__(self) -> None:
        se = _check_real("spectral_efficiency", self.spectral_efficiency, positive=True)
        thr = _check_real("sinr_threshold_db", self.sinr_threshold_db)
        if np.size(se) == 0 or np.size(se) != np.size(thr):
            raise ValueError("table must have matching, nonempty efficiency and threshold columns")
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
        _check_ints(self, ri=1, cqi=0)
        if isinstance(self.pmi, TypeIIPmi) and self.pmi.rank != self.ri:
            raise ValueError(f"ri={self.ri} inconsistent with a rank-{self.pmi.rank} PMI")


def _check_finite(h: np.ndarray) -> None:
    if not np.all(np.isfinite(h)):  # LAPACK may never return on inf
        raise ValueError("h must be finite, got a nan or inf entry")


def _logdet_capacity(h: np.ndarray, noise_var: float) -> np.ndarray:
    """Shannon capacity sum_i log2(1 + sigma_i^2 / nv) of channels h (...,
    rx, tx) with unit-power symbols, shape (...), without an SVD: log2
    det(I + G/nv) for the Hermitian Gram G on the smaller side, summed as
    log2 of the LDL^H pivots of I + G/nv.
    Like _sweep, the elimination runs in plain ufuncs over the batch with no
    pivot search, the matrix being positive definite, and no LAPACK call
    (np.linalg.slogdet of the same Grams was slower and took more memory).
    Each pivot is at least 1 in exact arithmetic and is clamped there
    against roundoff."""
    if h.shape[-2] > h.shape[-1]:
        h = h.swapaxes(-2, -1)  # the Gram of H^T is conj(H^H H): same eigenvalues
    r = h.shape[-2]
    a = [[None] * r for _ in range(r)]
    for j in range(r):
        row_conj = h[..., j, :].conj()
        for i in range(j + 1):
            g = np.einsum("...t,...t->...", h[..., i, :], row_conj) / noise_var
            a[i][j] = g.real + 1.0 if i == j else g
    capacity = 0.0
    for k in range(r):
        capacity = capacity + np.log2(np.maximum(a[k][k], 1.0))
        for i in range(k + 1, r):
            row = a[k][i].conj() / a[k][k]
            a[i][i] = a[i][i] - (row * a[k][i]).real
            for j in range(i + 1, r):
                a[i][j] = a[i][j] - row * a[k][j]
    return capacity


def _sweep(upper, noise_var: float, keep=()) -> list:
    """Gauss-Jordan sweep of A = G + nv*I for Hermitian r x r Grams G given
    by their upper triangle: upper[n] is G[i, j] for the n-th (i, j) of
    np.triu_indices(r), the batch on its trailing axes. One sweep per index,
    with no pivot search (A being positive definite), turns A into -A^-1;
    each step forms the ratio a_kj / a_kk before any product, and uses no
    determinant. Returns the r x r nested list holding -A^-1 on the diagonal
    and at the upper-triangle (i, j) in keep; entries no later step reads
    and keep does not name are not updated."""
    r = (math.isqrt(8 * len(upper) + 1) - 1) // 2
    a = [[None] * r for _ in range(r)]
    for (i, j), g in zip(((i, j) for i in range(r) for j in range(i, r)), upper):
        a[i][j] = g.real + noise_var if i == j else g
    for k in range(r):
        p = 1.0 / a[k][k]
        row = {j: (a[k][j] if j > k else np.conj(a[j][k])) * p for j in range(r) if j != k}
        for i in row:
            col = a[i][k] if i < k else np.conj(a[k][i])
            a[i][i] = a[i][i] - (col * row[i]).real
            for j in range(i + 1, r):
                if j > k or (j < k and (i, j) in keep):
                    a[i][j] = a[i][j] - col * row[j]
        for j in range(r):
            if j > k:
                a[k][j] = row[j]
            elif (j, k) in keep:
                a[j][k] = a[j][k] * p
        a[k][k] = -p
    return a


def _mmse_error(g: np.ndarray, noise_var: float) -> list:
    """Per-layer linear-MMSE errors e_i = [(I + G/nv)^-1]_ii of effective
    channels g (..., rx, layers), G = g^H g, one array (...) per layer: nv
    times the diagonal of A^-1, A = G + nv*I, off _sweep's diagonal. The
    layer's SINR is 1/e_i - 1."""
    r = g.shape[-1]
    gram = np.einsum("...ir,...is->rs...", g.conj(), g)
    a = _sweep([gram[i, j] for i in range(r) for j in range(i, r)], noise_var)
    return [-noise_var * a[i][i] for i in range(r)]


def _effective_sinr(errors) -> np.ndarray:
    """Capacity-domain average 2^(mean rate) - 1 of per-layer MMSE errors,
    one C-contiguous array (..., subbands) per layer, with rate
    log2(1 + SINR) = log2(max(1/e, 1)). Each layer is summed over its
    subbands, then the layers are added in index order, so a value's bits do
    not depend on the batch around it."""
    total = 0.0
    for e in errors:
        total = total + np.log2(np.maximum(1.0 / e, 1.0)).sum(axis=-1)
    return np.exp2(total / (len(errors) * errors[0].shape[-1])) - 1.0


def _precoded_sinr(h: np.ndarray, w: np.ndarray, noise_var: float) -> np.ndarray:
    """Effective SINR of precoders w (..., subbands or 1, tx, layers) on
    channels h (..., subbands, rx, tx), over the leading batch axes."""
    return _effective_sinr(_mmse_error(np.einsum("...kij,...kjr->...kir", h, w), noise_var))


def _cqi(eff: np.ndarray, table: CqiTable) -> np.ndarray:
    """CQI of each effective SINR in eff: the largest whose threshold is at
    or below it, 0 where the SINR is <= 0 or nan. Nondecreasing in eff."""
    cqi = np.zeros(eff.shape, dtype=int)
    positive = eff > 0
    cqi[positive] = np.searchsorted(table.sinr_threshold_db, 10.0 * np.log10(eff[positive]),
                                    side="right")
    return cqi


def _choose(ranks, rate, num_slots: int, table: CqiTable) -> tuple[np.ndarray, ...]:
    """(SINR, rank, index, cqi) of the best candidate per slot, rated as rank
    x efficiency(CQI), for rate(rank, slots) giving the effective SINRs
    (slots, that rank's candidates) of an index array of slots, or of all
    for slice(None). Ranks go from the highest down, and rank r is rated
    only where the best so far is at most r x the top efficiency, which is
    all r can reach. A rating >= the best replaces it: ties go to the lower
    rank, then to the lower index, whose SINR (not its rank's largest) is kept."""
    tp, sinr = np.zeros(num_slots), np.zeros(num_slots)
    best_rank, index, cqi = (np.zeros(num_slots, dtype=int) for _ in range(3))
    for rank in sorted(ranks, reverse=True):
        live = np.flatnonzero(tp <= rank * table.spectral_efficiency[-1])
        if live.size == 0:
            continue
        eff = rate(rank, slice(None) if live.size == num_slots else live)
        c = _cqi(eff, table)
        i, c = np.argmax(c, axis=-1), c.max(axis=-1)  # the efficiency grows with the CQI
        t = rank * table.efficiency(c)
        won = t >= tp[live]
        s = live[won]
        tp[s], sinr[s], best_rank[s], index[s], cqi[s] = t[won], eff[won, i[won]], rank, i[won], c[won]
    return sinr, best_rank, index, cqi


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
    a = np.atleast_1d(_check_real("amplitudes", amplitudes, 0))
    if z.shape != a.shape:
        raise ValueError(f"coefficient/amplitude shape mismatch: {z.shape} vs {a.shape}")
    _check_count("n_psk", n_psk, 1)
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


def _pair_plan(cb: Codebook):
    """How a rank-4 codebook's entries rate from one inverse per beam pair.

    Each entry must have two columns [v; c v] and [v; -c v] on one beam and
    two [v'; c' v'] and [v'; -c' v'] on another, |c| = |c'| = 1. With a = H_1 v
    and b = H_2 v per polarization block, the pair's effective channel is
    [a b a' b'] U / sqrt(2 * ports) for a unitary U whose column on beam v is
    (1, c) / sqrt(2), so [(I + G^H G/nv)^-1]_ii = nv * u_i^H Y^-1 u_i for
    Y = M / (2 * ports) + nv*I, M the Gram of (a, b, a', b'): every i13 and
    i2 value on a beam pair shares one Y^-1. Returns the grid offsets of the
    distinct beam pairs (pairs, 2 beams, 2), the pair of each i13 value (t,),
    the distinct co-phases c (C,), and per entry column (t, i2, 4) its beam
    times C plus the index of its co-phase.
    """
    offsets, cophase = cb.col_offsets, cb.cophase  # (t, 4, 2), (t, i2, 4)
    beam = np.any(offsets != offsets[:, :1], axis=-1)  # (t, 4): off the first column's beam
    order = np.argsort(beam, axis=1, kind="stable")
    cols = np.take_along_axis(offsets, order[..., None], axis=1)
    c = np.take_along_axis(cophase, order[:, None, :], axis=2)
    if not (np.all(beam.sum(axis=1) == 2) and np.all(cols[:, 2] == cols[:, 3])
            and np.all(c[..., 0::2] == -c[..., 1::2]) and np.all(np.abs(cophase) == 1.0)):
        raise ValueError("rank-4 Type I entries must be [v; c v], [v; -c v] column pairs "
                         "with |c| = 1 on two beams")
    pairs, pair_of_t = np.unique(cols[:, 0::2], axis=0, return_inverse=True)
    cvals, c_idx = np.unique(cophase, return_inverse=True)
    columns = beam[:, None, :] * len(cvals) + c_idx.reshape(cophase.shape)
    return pairs, pair_of_t.reshape(-1), cvals, columns


@functools.lru_cache(maxsize=16)
def _gram_plan(cbs: tuple[Codebook, ...]):
    """How each codebook's entries rate from shared beam products D_d[p, q],
    where D_d[p, q][b] = (H_p v_b)^H H_q v_{b+d}, laid out as (4
    polarization pairs pq, d values, beams). Returns the flat grid index of
    b + d for each d used, (d values, beams), one row per d modulo the grid,
    and a plan per codebook.

    Ranks 1-3: columns i <= j of the entry with base beam b and i13 value t
    use beams b + o_i and b + o_j (o = col_offsets[t]), paired by
    D_d[b + o_i] where d = o_j - o_i. The plan is the flat index of
    D_d[p, q][b + o_i] in the products over (upper-triangle pairs, t), shape
    (pairs, t, 4, beams), and the weights conj(a_ip) * a_jq / (ports * r) of
    the polarization products D_d[p, q], a_i = (1, cophase), (pairs, t, i2, 4).

    Rank 4 (_pair_plan): the plan is the flat index of the 10 upper entries
    of M per distinct beam pair, shape (10, pairs, beams), then _pair_plan's
    pair of each i13 value, co-phases and entry columns.
    """
    if len({(cb.cfg, cb.grid.shape) for cb in cbs}) != 1:
        raise ValueError("Type I codebooks must share one panel and beam grid")
    n_l, n_m = cbs[0].grid.shape[:2]
    l, m = np.divmod(np.arange(n_l * n_m), n_m)

    def moved(offset):  # flat grid index of every beam moved by offset (..., 2)
        return (l + offset[..., :1]) % n_l * n_m + (m + offset[..., 1:]) % n_m

    # Per codebook: pq, o_i and d = o_j - o_i of each product it reads, and the rest of its plan.
    reads, rest = [], []
    for cb in cbs:
        r = cb.col_offsets.shape[1]
        if r == 4:
            pairs, *more = _pair_plan(cb)
            iu, ju = np.triu_indices(4)  # (a, b, a', b'): polarization n % 2 of beam n // 2
            o_i, o_j = pairs[:, iu // 2].swapaxes(0, 1), pairs[:, ju // 2].swapaxes(0, 1)
            reads.append(((2 * (iu % 2) + ju % 2)[:, None], o_i, o_j - o_i))  # (10, pairs, ...)
            rest.append(more)
            continue
        iu, ju = np.triu_indices(r)
        o_i = cb.col_offsets[:, iu].swapaxes(0, 1)[:, :, None]  # (pairs, t, 1, 2)
        reads.append((np.arange(4), o_i, cb.col_offsets[:, ju].swapaxes(0, 1)[:, :, None] - o_i))
        c_i, c_j = cb.cophase[..., iu], cb.cophase[..., ju]  # (t, i2, pairs)
        weights = np.stack([np.ones_like(c_i), c_j, c_i.conj(), c_i.conj() * c_j], axis=-1)
        rest.append([weights.transpose(2, 0, 1, 3) / (cb.cfg.num_ports * r)])
    # Differences equal modulo the grid move every beam alike: one product plane each.
    diffs, which = np.unique(np.concatenate([d.reshape(-1, 2) for _, _, d in reads]) % (n_l, n_m),
                             axis=0, return_inverse=True)
    which = np.split(which.reshape(-1), np.cumsum([d.size // 2 for _, _, d in reads])[:-1])
    return moved(diffs), [((pq * len(diffs) + w.reshape(d.shape[:-1]))[..., None] * n_l * n_m
                           + moved(o_i), *more)
                          for (pq, o_i, d), w, more in zip(reads, which, rest)]


def _rate_pairs(prod: np.ndarray, plan, noise_var: float, num_ports: int) -> np.ndarray:
    """Effective SINRs (slots, t, i2, beams) of a rank-4 codebook's entries
    from the beam products prod (slots, products, subbands) and its
    _gram_plan plan: one inverse per (slot, beam pair, base beam, subband)
    by _sweep, then each column's nv * [A^-1]_ii = nv * (Z_00 + Z_11 +
    2 Re(c Z_01)) / 2 on its beam's 2 x 2 block of Z = Y^-1."""
    gather, pair_of_t, cvals, columns = plan
    num_slots, _, num_sb = prod.shape
    m = np.take(prod, gather, axis=1).reshape(num_slots, *gather.shape[:2], -1, num_sb)
    # Sweeping M + nv_m*I, nv_m = 2 * ports * nv, gives Y^-1 / (2 * ports) with
    # no rounding (a power-of-two scale) and without scaling M.
    nv_m = 2 * num_ports * noise_var
    a = _sweep(np.moveaxis(m, 1, 0), nv_m, keep=((0, 1), (2, 3)))  # -Z / (2 * ports)
    f = np.stack([np.stack([a[0][0] + a[1][1], a[0][1].real, a[0][1].imag]),
                  np.stack([a[2][2] + a[3][3], a[2][3].real, a[2][3].imag])])
    weights = -nv_m * np.stack([np.full(cvals.shape, 0.5), cvals.real, -cvals.imag], axis=-1)
    nv_inv_diag = weights @ f.reshape(2, 3, -1)  # (beam of the pair, co-phase, ...)
    # _effective_sinr's rate log2(max(1/e, 1)), summed over subbands, then columns in order.
    rates = np.log2(np.maximum(1.0 / nv_inv_diag, 1.0)).reshape(
        -1, num_slots, *gather.shape[1:], num_sb).sum(axis=-1)
    total = rates[columns, :, pair_of_t[:, None, None]].sum(axis=2)  # (t, i2, slots, beams)
    return np.exp2(total / (4 * num_sb)).transpose(2, 0, 1, 3) - 1.0


def _usable_ranks(ranks, num_rx: int, num_tx: int) -> list[int]:
    """The Type I ranks, ascending, that a num_rx x num_tx channel carries."""
    return [rank for rank in sorted(ranks) if rank <= min(num_rx, num_tx)]


def _block_slots(family, num_sb: int, num_rx: int) -> int:
    """Slots per selection block of family (Type I codebooks by rank, or a
    Type2CodebookSpace) at num_sb subbands and num_rx rx, at least one: as
    many as keep its largest array within _SELECT_BYTES, Type I's largest
    beam-product gather of a usable rank or Type II's projections or phase search."""
    if isinstance(family, Type2CodebookSpace):  # per subband: projections, 2 x 4B x 2B search
        sb_bytes = max(family.beams[..., 0].size * num_rx * 2, 16 * family.t2.num_beams ** 2) * 16
    else:
        ranks = _usable_ranks(family, num_rx, next(iter(family.values())).cfg.num_ports)
        sb_bytes = max(plan[0].size for plan in _gram_plan(tuple(family[r] for r in ranks))[1]) * 16
    return max(1, _SELECT_BYTES // (sb_bytes * num_sb))


def _select_type1(h: np.ndarray, noise_var: float, codebooks: dict[int, Codebook],
                  table: CqiTable) -> tuple[np.ndarray, ...]:
    """(SINR, rank, CQI, w, indices) per slot of h (slots, subbands, rx, tx):
    w (slots, 1, ports, top rank) is the reported precoder, 0 past rank, and
    indices its PMI arrays (i11, i12, i13, i2) in TypeIPmi field order."""
    num_slots, num_sb, num_rx, num_tx = h.shape
    num_ports = next(iter(codebooks.values())).cfg.num_ports
    if num_tx != num_ports:
        raise ValueError(f"channel has {num_tx} tx ports but the panel has {num_ports}")
    for key, cb in codebooks.items():
        if key != cb.col_offsets.shape[1]:
            raise ValueError(f"codebooks[{key}] is a rank-{cb.col_offsets.shape[1]} codebook")
    ranks = _usable_ranks(codebooks, num_rx, num_tx)
    if not ranks:
        raise ValueError("no codebook rank is usable for this channel size")
    shifts, plans = _gram_plan(tuple(codebooks[rank] for rank in ranks))
    # x[s, p, :, b] = H_p v_b for slot s, polarization p and grid beam b:
    # (slots, 2, rx, beams, subbands).
    grid = codebooks[ranks[0]].grid
    x = grid.reshape(shifts.shape[1], -1) @ h.reshape(*h.shape[:3], 2, -1).transpose(0, 3, 2, 4, 1)
    # prod[s, p, q, d, b] = sum over rx of conj(x[s, p, :, b]) * x[s, q, :, b + d],
    # accumulated one rx at a time in place.
    x_conj = x.conj()[:, :, None, :, None]
    prod = x_conj[:, :, :, 0] * x[:, None, :, 0, shifts]
    for r in range(1, num_rx):
        prod += x_conj[:, :, :, r] * x[:, None, :, r, shifts]
    prod = prod.reshape(num_slots, -1, num_sb)

    def rate(rank, slots):  # effective SINRs (slots, entries), in entry order
        p, plan = prod[slots], plans[ranks.index(rank)]
        if rank == 4:
            eff = _rate_pairs(p, plan, noise_var, num_tx)  # (slots, t, i2, beams)
        else:
            # Gathered products (slots, pairs, t, 4, beams * subbands) to Grams (..., i2, ...).
            gather, weights = plan
            gram = weights @ np.take(p, gather, axis=1).reshape(len(p), *gather.shape[:3], -1)
            gram = gram.reshape(*gram.shape[:-1], -1, num_sb)  # (..., i2, beams, subbands)
            a = _sweep(np.moveaxis(gram, 1, 0), noise_var)
            eff = _effective_sinr([-noise_var * a[i][i] for i in range(rank)])
        return eff.transpose(0, 3, 1, 2).reshape(len(p), -1)

    sinr, rank, entry, cqi = _choose(ranks, rate, num_slots, table)
    w = np.zeros((num_slots, 1, num_tx, ranks[-1]), dtype=complex)
    indices = np.zeros((4, num_slots), dtype=int)
    for r in set(rank.tolist()):
        s = rank == r
        w[s, 0, :, :r] = codebooks[r].precoders(entry[s])
        indices[:, s] = np.unravel_index(entry[s], codebooks[r].index_shape)
    return sinr, rank, cqi, w, tuple(indices)


def _quantize_type2(c: np.ndarray, n_psk: int):
    """Quantize beam-basis target coefficients c (..., layers, subbands, 2B)
    to wideband amplitude (..., layers, 2B), subband amplitude bit and
    co-phase (..., layers, subbands, 2B) indices. Per layer: the wideband
    amplitude is each coefficient's mean magnitude over subbands, scaled by
    the strongest and rounded to the 8-level alphabet; the subband bit is
    above/below that mean; phases are exact max-correlation PSK indices after
    rotating each subband so the strongest coefficient is real-positive. An
    all-zero layer gets wideband indices [7, 0, ...]."""
    wb_mag = np.abs(c).mean(axis=-2)  # (..., layers, 2B)
    peak = wb_mag.max(axis=-1, keepdims=True)
    ref = np.argmax(wb_mag, axis=-1)[..., None, None]
    c = c * np.exp(-1j * np.angle(np.take_along_axis(c, ref, axis=-1)))
    rel = wb_mag / np.where(peak > 0.0, peak, 1.0)
    wb_idx = np.argmin(np.abs(rel[..., None] - TYPE2_WB_AMPLITUDES), axis=-1)
    wb_idx[peak[..., 0] == 0.0, 0] = len(TYPE2_WB_AMPLITUDES) - 1
    sb_bits = (np.abs(c) >= wb_mag[..., None, :]).astype(int)
    amp = TYPE2_WB_AMPLITUDES[wb_idx][..., None, :] * TYPE2_SB_AMPLITUDES[sb_bits]
    return wb_idx, sb_bits, quantize_phases(c, amp, n_psk)


def _select_type2(h: np.ndarray, noise_var: float, space: Type2CodebookSpace,
                  table: CqiTable) -> tuple:
    """(SINR, rank, CQI, w, indices) per slot of h (slots, subbands, rx, tx):
    w (slots, subbands, ports, layers) is the reported precoder, its
    first rank unit columns / sqrt(rank) and 0 past them, and indices holds
    every layer's PMI arrays in TypeIIPmi field order."""
    num_slots, num_sb, num_rx, num_tx = h.shape
    cfg, t2 = space.cfg, space.t2
    if num_tx != cfg.num_ports:
        raise ValueError(f"channel has {num_tx} tx ports but the panel has {cfg.num_ports}")
    p_pol = num_tx // 2
    h_pol = h.reshape(num_slots, num_sb, num_rx, 2, p_pol)

    # Stage 1: the (rotation, beam subset) pair maximizing sum_b ||H_p v_b||^2,
    # the power each polarization's channel H_p sends through the chosen
    # beams, summed over subbands and polarizations; np.argmax keeps the
    # first of tied pairs in (q1, q2, i12) order.
    proj = np.einsum("xkrpe,qsbe->xqskrpb", h_pol, space.beams) / math.sqrt(p_pol)
    gains = np.sum(np.abs(proj) ** 2, axis=(3, 4, 5))  # (slots, o1, o2, n1*n2)
    scores = np.sum(gains[..., space.combos], axis=-1)  # (slots, o1, o2, combinations)
    q1, q2, i12 = np.unravel_index(np.argmax(scores.reshape(num_slots, -1), axis=-1), scores.shape[1:])
    beams = space.beams[q1[:, None], q2[:, None], space.combos[i12]]  # (slots, B, n1*n2)

    # Stage 2: quantize the dominant right-singular vectors of every layer in
    # the selected beam basis at once; rank n is rated by the first n unit
    # columns.
    vh = np.linalg.svd(h)[2]  # (slots, subbands, num_tx, num_tx)
    max_layers = min(TYPE2_MAX_RANK, num_rx, num_tx)
    target = vh[..., :max_layers, :].conj().reshape(num_slots, num_sb, max_layers, 2, p_pol)
    c = np.einsum("xklpe,xbe->xlkpb", target, beams.conj()).reshape(
        num_slots, max_layers, num_sb, -1) / p_pol
    wb_idx, sb_bits, phases = _quantize_type2(c, t2.n_psk)
    unit = _type2_columns(space, beams, wb_idx, sb_bits, phases)

    def rate(n, slots):  # effective SINRs (slots, 1)
        return _precoded_sinr(h[slots], unit[slots, ..., :n] / math.sqrt(n), noise_var)[:, None]

    sinr, rank, _, cqi = _choose(range(1, max_layers + 1), rate, num_slots, table)
    ri = rank[:, None, None, None]
    w = np.where(np.arange(max_layers) < ri, unit, 0) / np.sqrt(ri)
    return sinr, rank, cqi, w, (np.stack([q1, q2], axis=-1), i12, wb_idx, phases, sb_bits)


def _tuples(a: np.ndarray) -> tuple:
    """Nested tuples of Python ints, the PMI report format."""
    return tuple(map(_tuples, a)) if a.ndim > 1 else tuple(a.tolist())


def select_csi(h, noise_var: float, codebooks, table: CqiTable) -> CsiReport:
    """Pick (RI, PMI, CQI) maximizing predicted throughput for one slot.

    h is the slot view (num_subbands, num_rx, num_tx); a bare 2-D matrix is
    treated as a single subband. codebooks is either a mapping rank ->
    Codebook (Type I, exact search; ranks above min(num_rx, num_tx) are
    skipped) or a Type2CodebookSpace (two-stage construction).

    Every candidate precoder is rated the same way: its effective SINR maps
    to the largest CQI whose threshold is at or below it (0 where the SINR is
    <= 0), and the rating is rank times that CQI's spectral efficiency. A
    rank that cannot reach the best rating of the ranks above it is not
    rated. Ties prefer the lower rank, then the lower entry index (Type I
    entries run in lexicographic PMI order). The PMI tuple is built from the
    index arrays of the sweep's block selection.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim == 2:
        h = h[None]
    if h.ndim != 3 or h.size == 0:
        raise ValueError(f"slot view must be (subbands, rx, tx), got shape {h.shape}")
    _check_finite(h)
    noise_var = _check_real("noise_var", noise_var, positive=True)
    if isinstance(codebooks, Type2CodebookSpace):
        _, ri, cqi, _, indices = _select_type2(h[None], noise_var, codebooks, table)
        i11, i12, *layers = (a[0] for a in indices)
        pmi = TypeIIPmi(_tuples(i11), int(i12), *(_tuples(a[:ri[0]]) for a in layers))
    else:
        if not codebooks:
            raise ValueError("no codebooks supplied")
        _, ri, cqi, _, indices = _select_type1(h[None], noise_var, dict(codebooks), table)
        i11, i12, i13, i2 = (int(a[0]) for a in indices)
        pmi = TypeIPmi(i11, i12, i13, (i2,) * h.shape[0])
    return CsiReport(int(ri[0]), pmi, int(cqi[0]), float(ri[0] * table.efficiency(cqi[0])))
