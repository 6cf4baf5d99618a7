"""Reference implementations the tests hold nrsim to.

Each oracle is written from its definition with plain numpy (a sum over
singular values for the capacity, np.linalg.solve for the MMSE filters, a
scan over the CQI thresholds, loops over every codebook entry) and calls none of nrsim's rating code, so that a test
comparing the two compares independent computations
(tests/test_oracles.py checks that this module stays that way). The Type I
precoders come from the codebook under test: the full materialization
precoders(np.arange(len(cb))), whose bits per_entry_precoder checks.
"""

import math

import numpy as np

from nrsim import dft_beam
from nrsim.codebook import _BEAM_PATTERNS, _PHI2, _PHI4, _i13_variants


def mimo_capacity(sigma, noise_var):
    """Shannon capacity of the diagonalized channel with unit-power symbols:
    sum_i log2(1 + sigma_i^2 / noise_var) over the last axis of sigma, as
    log1p / ln 2, which keeps its relative precision far below 0 dB. One
    sigma vector gives a float; a batch (..., n) gives an array of its
    leading shape. Of np.linalg.svd's singular values, it is the reference
    for the svd mode's capacity."""
    s = np.atleast_1d(np.asarray(sigma, dtype=float))
    capacity = np.sum(np.log1p(s * s / noise_var), axis=-1) / math.log(2.0)
    return float(capacity) if s.ndim == 1 else capacity


def mmse_sinr_explicit(g, noise_var):
    """Per-layer SINR of effective channel g (rx, layers) via explicit MMSE
    filters, independent of the matrix-inversion-lemma form used by the
    implementation."""
    num_rx, layers = g.shape
    cov = g @ g.conj().T + noise_var * np.eye(num_rx)
    out = []
    for i in range(layers):
        w = np.linalg.solve(cov, g[:, i])
        signal = abs(np.vdot(w, g[:, i])) ** 2
        interf = sum(abs(np.vdot(w, g[:, j])) ** 2 for j in range(layers) if j != i)
        noise = noise_var * float(np.vdot(w, w).real)
        out.append(signal / (interf + noise))
    return np.asarray(out)


def effective_sinr_explicit(h, w, noise_var):
    """Effective SINR of precoder w (tx, layers) on slot view h (subbands,
    rx, tx): 2^(mean of log2(1 + SINR)) - 1 over every subband and layer
    of the explicit-filter SINRs."""
    sinrs = np.stack([mmse_sinr_explicit(h_k @ w, noise_var) for h_k in h])
    return 2.0 ** float(np.mean(np.log2(1.0 + sinrs))) - 1.0


def cqi_scan(eff, table):
    """CQI of one effective SINR by scanning the thresholds: the last
    (largest) index whose threshold in dB is at or below it, 0 if none is or
    the SINR is not positive. The dB value is numpy's log10, as in the
    sweep: math.log10 differs from it in the last bit for about 2% of
    values, so a value at a threshold could land on either side."""
    eff_db = 10.0 * float(np.log10(eff)) if eff > 0 else -math.inf
    cqi = 0
    for k, thr in enumerate(table.sinr_threshold_db, start=1):
        if eff_db >= thr:
            cqi = k
    return cqi


def brute_force_type1(h, noise_var, codebooks, table):
    """(rating, rank, entry, cqi) of the best Type I entry for one slot view
    h (subbands, rx, tx), by a double loop over ranks and entries: every
    entry's explicit-filter SINRs on every subband, their capacity-domain
    mean, and the rating rank x efficiency(CQI). Ties go to the lower rank,
    then to the lower entry index."""
    best = None
    for rank in sorted(codebooks):
        cb = codebooks[rank]
        if rank > min(h.shape[1], cb.cfg.num_ports):
            continue
        for idx, w in enumerate(cb.precoders(np.arange(len(cb)))):
            cqi = cqi_scan(effective_sinr_explicit(h, w, noise_var), table)
            metric = rank * table.efficiency(cqi)
            if best is None or metric > best[0]:
                best = (metric, rank, idx, cqi)
    return best


def per_entry_precoder(cfg, ov, rank, pmi):
    """Reference Type I precoder of one PMI, built entry by entry from
    dft_beam: columns [v_b; s*phi*v_b] over the beam pair (v, v') that i13
    selects, divided by the matrix's Frobenius norm."""
    i2 = pmi.i2_per_subband[0]
    v = dft_beam(pmi.i11, pmi.i12, cfg, ov)
    if rank == 1:
        w = np.concatenate([v, _PHI4[i2] * v])[:, None]
    else:
        (dl, dm), pattern, negate = _i13_variants(rank, cfg, ov)[pmi.i13]
        l2 = (pmi.i11 + dl) % (cfg.n1 * ov.o1)
        m2 = (pmi.i12 + dm) % (cfg.n2 * ov.o2)
        beams = (v, dft_beam(l2, m2, cfg, ov))
        phi = -_PHI2[i2] if negate else _PHI2[i2]
        beam_sel, signs = _BEAM_PATTERNS[(rank, pattern)]
        w = np.stack([np.concatenate([beams[b], s * phi * beams[b]])
                      for b, s in zip(beam_sel, signs)], axis=1)
    return w / np.linalg.norm(w)
