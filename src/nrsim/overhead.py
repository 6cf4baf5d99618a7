"""Feedback overhead accounting for the precoding report.

Bit counts follow the index structure of each codebook: wideband indices are
reported once, subband indices once per subband. Ceiling is applied to every
log2 term individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import TYPE2_MAX_RANK, AntennaConfig, Oversampling, Type2Config

__all__ = [
    "OverheadBreakdown",
    "type1_overhead_bits",
    "type2_overhead_bits",
    "expected_overhead",
]


@dataclass(frozen=True)
class OverheadBreakdown:
    """Per-index bit counts and their sum. Subband-reported indices appear
    pre-multiplied by the subband count so total_bits == sum(values)."""

    per_index_bits: dict[str, int]
    total_bits: int


def _bits(cardinality: float) -> int:
    if cardinality < 1:
        raise ValueError(f"index cardinality must be >= 1, got {cardinality}")
    return math.ceil(math.log2(cardinality)) if cardinality > 1 else 0


def _breakdown(per_index_bits: dict[str, int]) -> OverheadBreakdown:
    return OverheadBreakdown(per_index_bits, sum(per_index_bits.values()))


def type1_overhead_bits(cfg: AntennaConfig, ov: Oversampling, rank: int,
                        num_subbands: int = 1) -> OverheadBreakdown:
    """Type I report size: i11/i12 beam indices, i13 beam-pair index (absent
    at rank 1), and the per-subband co-phase i2 (2 bits at rank 1, 1 bit at
    ranks 2-4)."""
    if rank not in (1, 2, 3, 4):
        raise ValueError(f"rank must be in 1..4, got {rank}")
    if num_subbands < 1:
        raise ValueError(f"num_subbands must be >= 1, got {num_subbands}")
    per = {
        "i11": _bits(cfg.n1 * ov.o1),
        "i12": _bits(cfg.n2 * ov.o2),
        "i13": 0 if rank == 1 else 2,
        "i2": num_subbands * (2 if rank == 1 else 1),
    }
    return _breakdown(per)


def type2_overhead_bits(cfg: AntennaConfig, ov: Oversampling, t2: Type2Config,
                        layers: int, num_subbands: int = 1) -> OverheadBreakdown:
    """Type II report size: rotation (i11) and beam combination (i12) are
    wideband and layer-common; per layer, the strongest-coefficient index
    (i13l) and wideband amplitudes (i14l) are wideband, while co-phases
    (i21l) and amplitude refinements (i22l) repeat per subband."""
    if not 1 <= layers <= TYPE2_MAX_RANK:
        raise ValueError(f"layers must be in 1..{TYPE2_MAX_RANK}, got {layers}")
    if num_subbands < 1:
        raise ValueError(f"num_subbands must be >= 1, got {num_subbands}")
    t2.check_panel(cfg)
    two_b = 2 * t2.num_beams
    per = {
        "i11": _bits(ov.o1) + _bits(ov.o2),
        "i12": _bits(math.comb(cfg.n1 * cfg.n2, t2.num_beams)),
    }
    for layer in range(1, layers + 1):
        per[f"i13{layer}"] = _bits(t2.num_beams)
        per[f"i14{layer}"] = two_b * 3
        per[f"i21{layer}"] = num_subbands * two_b * _bits(t2.n_psk)
        per[f"i22{layer}"] = num_subbands * two_b
    return _breakdown(per)


def expected_overhead(rank_probs, per_rank_bits) -> float:
    """Expected report size E[Q] = sum_i p_i * Q_i for a rank distribution."""
    p = np.asarray(rank_probs, dtype=float)
    q = np.asarray(per_rank_bits, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: probabilities {p.shape} vs bit counts {q.shape}")
    if p.size == 0:
        raise ValueError("rank distribution is empty")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("rank probabilities must be nonnegative and sum to 1")
    return float(p @ q)
