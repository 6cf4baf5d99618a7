"""Feedback overhead accounting for the precoding report.

Bit counts are the index ranges of the codebook structures themselves: a
Type I codebook's PMI index space and a Type II structure's rotations, beam
combinations and coefficient alphabets. Wideband indices are reported once,
subband indices once per subband. Ceiling is applied to every log2 term
individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import (TYPE2_MAX_RANK, TYPE2_SB_AMPLITUDES, TYPE2_WB_AMPLITUDES, Codebook,
                       Type2CodebookSpace, _check_count, _check_real)

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


def _bits(cardinality: int) -> int:
    _check_count("index cardinality", cardinality, 1)
    return math.ceil(math.log2(cardinality)) if cardinality > 1 else 0


def type1_overhead_bits(codebook: Codebook, num_subbands: int = 1) -> OverheadBreakdown:
    """Type I report size: beam indices i11/i12, beam-pair index i13 and the
    per-subband co-phase i2, each as wide as its axis of the codebook's PMI
    index space index_shape."""
    _check_count("num_subbands", num_subbands, 1)
    per = dict(zip(("i11", "i12", "i13", "i2"), map(_bits, codebook.index_shape)))
    per["i2"] *= num_subbands
    return OverheadBreakdown(per, sum(per.values()))


def type2_overhead_bits(space: Type2CodebookSpace, layers: int,
                        num_subbands: int = 1) -> OverheadBreakdown:
    """Type II report size: rotation (i11) and beam combination (i12) are
    wideband and layer-common; per layer, the strongest-coefficient index
    (i13l) and wideband amplitudes (i14l) are wideband, while co-phases
    (i21l) and amplitude refinements (i22l) repeat per subband. Each index
    is as wide as the structure's or its alphabet's range."""
    _check_count("layers", layers, 1, TYPE2_MAX_RANK)
    _check_count("num_subbands", num_subbands, 1)
    t2, two_b = space.t2, 2 * space.t2.num_beams
    per = {"i11": sum(map(_bits, space.beams.shape[:2])), "i12": _bits(len(space.combos))}
    for layer in range(1, layers + 1):
        per[f"i13{layer}"] = _bits(t2.num_beams)
        per[f"i14{layer}"] = two_b * _bits(len(TYPE2_WB_AMPLITUDES))
        per[f"i21{layer}"] = num_subbands * two_b * _bits(t2.n_psk)
        per[f"i22{layer}"] = num_subbands * two_b * _bits(len(TYPE2_SB_AMPLITUDES))
    return OverheadBreakdown(per, sum(per.values()))


def expected_overhead(rank_probs, per_rank_bits) -> float:
    """Expected report size E[Q] = sum_i p_i * Q_i for a rank distribution."""
    p = _check_real("rank_probs", rank_probs, 0)
    q = _check_real("per_rank_bits", per_rank_bits, 0)
    if np.shape(p) != np.shape(q) or np.ndim(p) != 1:
        raise ValueError(f"shape mismatch: probabilities {np.shape(p)} vs bit counts {np.shape(q)}")
    if p.size == 0:
        raise ValueError("rank distribution is empty")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("rank probabilities must sum to 1")
    return float(p @ q)
