"""SVD reference, MMSE SINRs, CQI mapping, phase quantization, and selection."""

import csv
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nrsim
from nrsim import (
    AntennaConfig,
    CqiTable,
    Type2Config,
    TypeIIPmi,
    build_type1_codebook,
    build_type2_structure,
    dft_beam,
    effective_sinr,
    layer_sinr_mmse,
    map_cqi,
    mimo_capacity,
    oversampling_factors,
    quantize_phases,
    realize_type2_precoder,
    select_csi,
    svd_precode,
)
from nrsim.codebook import TYPE2_MAX_RANK, TYPE2_SB_AMPLITUDES, TYPE2_WB_AMPLITUDES, TypeIPmi
from nrsim.csi import (CsiReport, _choose, _effective_sinr, _mmse_sinr, _precoded_sinr,
                       _quantize_type2)


def _rand_h(rng, num_rx, num_tx):
    return (rng.standard_normal((num_rx, num_tx))
            + 1j * rng.standard_normal((num_rx, num_tx))) / math.sqrt(2.0)


class TestSvd:
    def test_identity(self):
        res = svd_precode(np.eye(2))
        assert np.allclose(res.sigma, [1.0, 1.0])

    def test_diagonal_sorted(self):
        res = svd_precode(np.diag([3.0, 4.0]))
        assert np.allclose(res.sigma, [4.0, 3.0])

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = _rand_h(rng, 4, 8)
            res = svd_precode(h)
            full = res.u @ np.diag(res.sigma) @ res.v[:, :4].conj().T
            assert np.linalg.norm(full - h) <= 1e-9 * np.linalg.norm(h)
            assert np.allclose(res.u.conj().T @ res.u, np.eye(4), atol=1e-12)
            assert np.allclose(res.v.conj().T @ res.v, np.eye(8), atol=1e-12)
            assert np.all(np.diff(res.sigma) <= 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            svd_precode(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svd_precode(np.zeros((0, 4)))


class TestCapacity:
    def test_two_unit_layers(self):
        assert mimo_capacity((1.0, 1.0), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_single_layer(self):
        assert mimo_capacity((math.sqrt(3.0),), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_log_det(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = _rand_h(rng, 4, 8)
            nv = float(rng.uniform(0.1, 10.0))
            cap = mimo_capacity(svd_precode(h).sigma, nv)
            gram = np.eye(4) + h @ h.conj().T / nv
            direct = float(np.log2(np.linalg.det(gram).real))
            assert cap == pytest.approx(direct, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mimo_capacity((1.0,), 0.0)
        with pytest.raises(ValueError):
            mimo_capacity((-1.0,), 1.0)

    def test_nan_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_var"):
            mimo_capacity((1.0,), math.nan)

    @pytest.mark.parametrize("sigma", [(math.nan, 1.0), (math.inf,), (1.0, -math.inf)])
    def test_non_finite_singular_values_rejected(self, sigma):
        with pytest.raises(ValueError, match="singular values must be finite"):
            mimo_capacity(sigma, 1.0)


def _mmse_sinr_explicit(g, noise_var):
    """Per-layer SINR via explicit MMSE filters, independent of the
    matrix-inversion-lemma form used by the implementation."""
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


def _layer_sinr_inv(g, noise_var):
    """Per-layer MMSE SINR of effective channels g (..., rx, layers) through
    np.linalg.inv: the formula the closed-form and sweep helper replaced."""
    r = g.shape[-1]
    gram = np.einsum("...ir,...is->...rs", g.conj(), g)
    diag = np.einsum("...ii->...i", np.linalg.inv(np.eye(r) + gram / noise_var)).real
    return np.maximum(1.0 / diag - 1.0, 0.0)


def _select_type1_einsum_inv(h, noise_var, codebooks, table):
    """Type I selection as it was before the beam-Gram search: every entry's
    effective channel H @ W formed explicitly, its SINRs through
    np.linalg.inv, rated by the shared rule."""
    num_sb, num_rx, num_tx = h.shape
    ranks = [rank for rank in sorted(codebooks) if rank <= min(num_rx, num_tx)]
    candidates = (
        (rank, _effective_sinr(_layer_sinr_inv(
            np.einsum("kij,ejr->ekir", h, codebooks[rank].w_stack), noise_var)))
        for rank in ranks)
    tp, rank, e, cqi = _choose(candidates, table)
    pmi = codebooks[rank].pmi_of(e)
    report_pmi = TypeIPmi(pmi.i11, pmi.i12, pmi.i13, pmi.i2_per_subband * num_sb)
    return CsiReport(ri=rank, pmi=report_pmi, cqi=cqi, predicted_throughput=tp)


class TestLayerSinr:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_helper_matches_inverse(self, rank):
        """The closed-form (r <= 2) and sweep (r = 3, 4) MMSE SINRs match
        np.linalg.inv on Hermitian positive-definite Grams from -10 to 40 dB."""
        rng = np.random.default_rng(20 + rank)
        iu, ju = np.triu_indices(rank)
        for snr_db in range(-10, 45, 5):
            nv = 10.0 ** (-snr_db / 10.0)
            g = _rand_h(rng, 500 * (rank + 2), rank).reshape(500, rank + 2, rank)
            gram = g.conj().swapaxes(-1, -2) @ g
            got = _mmse_sinr(np.moveaxis(gram[:, iu, ju], -1, 0), nv)
            assert got.shape == (rank, 500)
            np.testing.assert_allclose(got.T, _layer_sinr_inv(g, nv), rtol=1e-12, atol=0.0)

    def test_scalar_channel(self):
        h = np.array([[0.5 - 1.0j]])
        got = layer_sinr_mmse(h, np.array([[1.0]]), 0.25)
        assert got == pytest.approx([abs(h[0, 0]) ** 2 / 0.25], abs=1e-12)

    def test_orthogonal_columns_decouple(self):
        g = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]], dtype=complex)
        got = layer_sinr_mmse(np.eye(3), g, 0.5)
        assert got == pytest.approx([8.0, 8.0], abs=1e-9)

    def test_matches_explicit_filters(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = _rand_h(rng, 4, 6)
            w = _rand_h(rng, 6, 2)
            nv = float(rng.uniform(0.05, 5.0))
            got = layer_sinr_mmse(h, w, nv)
            want = _mmse_sinr_explicit(h @ w, nv)
            assert got == pytest.approx(want, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            layer_sinr_mmse(np.eye(4), np.ones((3, 1), dtype=complex), 1.0)

    def test_nan_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_var"):
            layer_sinr_mmse(np.eye(2), np.eye(2), math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_channel_or_precoder_rejected(self, bad):
        with pytest.raises(ValueError, match="^h must be finite"):
            layer_sinr_mmse([[bad, 1.0]], [[1.0], [0.0]], 1.0)
        with pytest.raises(ValueError, match="^w must be finite"):
            layer_sinr_mmse([[1.0, 1.0]], [[1.0], [bad]], 1.0)


class TestEffectiveSinr:
    def test_fixed_point(self):
        assert effective_sinr([[2.5, 2.5], [2.5, 2.5]]) == pytest.approx(2.5, abs=1e-12)

    def test_single_entry_identity(self):
        assert effective_sinr([0.7]) == pytest.approx(0.7, abs=1e-15)

    def test_zero_and_s_below_half(self):
        s = 3.0
        eff = effective_sinr([0.0, s])
        assert eff == pytest.approx(2.0 ** (0.5 * math.log2(1 + s)) - 1.0, abs=1e-12)
        assert eff < s / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_sinr([])
        with pytest.raises(ValueError):
            effective_sinr([-0.1, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            effective_sinr([math.nan, 1.0])


class TestCqiTable:
    def test_default_shape(self):
        tbl = CqiTable.default()
        assert len(tbl.spectral_efficiency) == 15
        assert all(a < b for a, b in zip(tbl.spectral_efficiency, tbl.spectral_efficiency[1:]))
        assert all(a < b for a, b in zip(tbl.sinr_threshold_db, tbl.sinr_threshold_db[1:]))
        assert tbl.efficiency(0) == 0.0
        assert tbl.efficiency(15) == 5.5547

    def test_threshold_values(self):
        tbl = CqiTable.default()
        assert tbl.sinr_threshold_db[0] == pytest.approx(-7.5334955829992625, abs=1e-12)
        assert tbl.sinr_threshold_db[6] == pytest.approx(4.51132121535138, abs=1e-12)
        assert tbl.sinr_threshold_db[14] == pytest.approx(18.627920180010545, abs=1e-12)

    def test_csv_round_trip(self, tmp_path):
        tbl = CqiTable.default()
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cqi_index", "efficiency", "threshold_db"])
            for i, (se, thr) in enumerate(
                zip(tbl.spectral_efficiency, tbl.sinr_threshold_db), start=1
            ):
                writer.writerow([i, repr(se), repr(thr)])
        loaded = CqiTable.from_csv(path)
        assert loaded.spectral_efficiency == tbl.spectral_efficiency
        assert loaded.sinr_threshold_db == tbl.sinr_threshold_db

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cqi_index,efficiency\n1,0.15\n")
        with pytest.raises(ValueError, match="threshold_db"):
            CqiTable.from_csv(path)

    def test_csv_non_contiguous(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cqi_index,efficiency,threshold_db\n1,0.15,-7.5\n3,0.23,-5.0\n")
        with pytest.raises(ValueError, match="contiguous"):
            CqiTable.from_csv(path)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            CqiTable((0.2, 0.1), (-5.0, -3.0))

    @pytest.mark.parametrize("se, thr, column", [
        ((0.2, math.nan), (-5.0, -3.0), "efficiency"),
        ((0.2, math.inf), (-5.0, -3.0), "efficiency"),
        ((-0.5, 0.2), (-3.0, 1.0), "efficiency"),
        ((0.0, 0.2), (-3.0, 1.0), "efficiency"),
        ((0.1, 0.2), (-5.0, math.nan), "threshold_db"),
        ((0.1, 0.2), (-math.inf, 1.0), "threshold_db"),
        ((0.1, 0.2), (-5.0, math.inf), "threshold_db"),
    ])
    def test_non_finite_or_non_positive_rejected(self, se, thr, column):
        with pytest.raises(ValueError, match=column):
            CqiTable(se, thr)


class TestMapCqi:
    def test_below_range(self):
        tbl = CqiTable.default()
        assert map_cqi(0.0, tbl) == 0
        assert map_cqi(10 ** (-20.0 / 10.0), tbl) == 0

    def test_exact_threshold_inclusive(self):
        tbl = CqiTable.default()
        for k in (1, 7, 15):
            thr = 10.0 ** (tbl.sinr_threshold_db[k - 1] / 10.0)
            assert map_cqi(thr, tbl) == k

    def test_gap_rule_inversion(self):
        tbl = CqiTable.default()
        gap = 10.0 ** (2.0 / 10.0)
        for k, se in enumerate(tbl.spectral_efficiency, start=1):
            assert map_cqi(gap * (2.0 ** se - 1.0), tbl) == k

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="eff_sinr"):
            map_cqi(math.nan, CqiTable.default())

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, -math.inf])
    def test_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="eff_sinr"):
            map_cqi(bad, CqiTable.default())

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_monotone(self, a, b):
        tbl = CqiTable.default()
        lo, hi = sorted((a, b))
        assert map_cqi(lo, tbl) <= map_cqi(hi, tbl)


def _phase_objective(indices, target, amplitudes, n_psk):
    phases = np.exp(2j * np.pi * np.asarray(indices) / n_psk)
    return abs(np.vdot(target, amplitudes * phases))


class TestQuantizePhases:
    def test_matches_exhaustive_search(self):
        """Every row of a (subbands, 2B) batch reaches the exhaustive maximum,
        including rows with zero amplitudes (inactive breaks) and repeated
        phases (duplicate breaks)."""
        rng = np.random.default_rng(4)
        for trial in range(60):
            m = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 5))
            n_psk = int(rng.choice([4, 8]))
            target = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
            amps = rng.uniform(0.0, 1.0, (rows, m))
            amps[0, rng.integers(0, m)] = 0.0
            target[-1] = target[-1, 0] * rng.uniform(0.5, 2.0, m)  # one shared phase
            if trial % 10 == 0:
                amps[0] = 0.0
            got = quantize_phases(target, amps, n_psk)
            assert got.shape == (rows, m)
            assert got.dtype.kind == "i"
            assert np.all((got >= 0) & (got < n_psk))
            for k in range(rows):
                best = max(
                    _phase_objective(cand, target[k], amps[k], n_psk)
                    for cand in itertools.product(range(n_psk), repeat=m)
                )
                got_val = _phase_objective(got[k], target[k], amps[k], n_psk)
                assert got_val == pytest.approx(best, abs=1e-12)
                assert np.array_equal(got[k], quantize_phases(target[k], amps[k], n_psk))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_refining_grid_never_hurts(self, data):
        m = data.draw(st.integers(min_value=1, max_value=8))
        target = np.asarray([
            complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2)))
            for _ in range(m)
        ])
        amps = np.asarray([data.draw(st.floats(0.0, 1.0)) for _ in range(m)])
        coarse = quantize_phases(target, amps, 4)
        fine = quantize_phases(target, amps, 8)
        v4 = _phase_objective(coarse, target, amps, 4)
        v8 = _phase_objective(fine, target, amps, 8)
        assert v8 >= v4 - 1e-12


def _brute_force_type1(h, noise_var, codebooks, table):
    """Independent double-loop evaluator mirroring the selection contract:
    maximize rank x SE(CQI), ties to lower rank then lower entry index."""
    num_rx = h.shape[1]
    best = None
    for rank in sorted(codebooks):
        cb = codebooks[rank]
        if rank > min(num_rx, cb.cfg.num_ports):
            continue
        for idx in range(len(cb)):
            w = cb.w_stack[idx]
            sinrs = np.stack([_mmse_sinr_explicit(h[k] @ w, noise_var)
                              for k in range(h.shape[0])])
            eff = 2.0 ** float(np.mean(np.log2(1.0 + sinrs))) - 1.0
            eff_db = 10.0 * math.log10(eff) if eff > 0 else -math.inf
            cqi = 0
            for k, thr in enumerate(table.sinr_threshold_db, start=1):
                if eff_db >= thr:
                    cqi = k
            metric = rank * table.efficiency(cqi)
            if best is None or metric > best[0]:
                best = (metric, rank, idx, cqi)
    return best


class TestSelectCsi:
    def test_constructed_channel_picks_entry_zero(self):
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2)}
        rng = np.random.default_rng(5)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = np.outer(y, cbs[1].w_stack[0][:, 0].conj())
        report = select_csi(h, 0.1, cbs, CqiTable.default())
        assert report.ri == 1
        assert cbs[1].index_of_pmi(report.pmi) == 0
        assert report.cqi >= 1

    def test_zero_channel(self):
        cfg = AntennaConfig(2, 1)
        ov = oversampling_factors(cfg)
        cbs = {1: build_type1_codebook(cfg, 1, ov)}
        report = select_csi(np.zeros((2, 4), dtype=complex), 1.0, cbs, CqiTable.default())
        assert report.cqi == 0
        assert report.predicted_throughput == 0.0

    def test_matches_brute_force(self):
        cfg = AntennaConfig(2, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2)}
        table = CqiTable.default()
        rng = np.random.default_rng(6)
        for _ in range(15):
            num_rx = int(rng.integers(1, 5))
            num_sb = int(rng.integers(1, 4))
            nv = float(rng.uniform(0.05, 20.0))
            h = np.stack([_rand_h(rng, num_rx, 4) for _ in range(num_sb)])
            report = select_csi(h, nv, cbs, table)
            metric, rank, idx, cqi = _brute_force_type1(h, nv, cbs, table)
            assert report.ri == rank
            assert cbs[rank].index_of_pmi(report.pmi) == idx
            assert report.cqi == cqi
            assert report.predicted_throughput == pytest.approx(metric, abs=1e-12)

    @pytest.mark.parametrize("layout", [(2, 2), (4, 1)])
    def test_matches_brute_force_ranks_1_to_4(self, layout):
        """Ranks 3-4 and a panel with both grid axes oversampled, against
        the double-loop evaluator, with 4 rx from -10 to 40 dB."""
        cfg = AntennaConfig(*layout)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
        table = CqiTable.default()
        rng = np.random.default_rng(17)
        ranks = []
        for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0):
            nv = 10.0 ** (-snr_db / 10.0)
            h = np.stack([_rand_h(rng, 4, cfg.num_ports) for _ in range(2)])
            report = select_csi(h, nv, cbs, table)
            metric, rank, idx, cqi = _brute_force_type1(h, nv, cbs, table)
            assert (report.ri, cbs[report.ri].index_of_pmi(report.pmi), report.cqi) == (rank, idx, cqi)
            assert report.predicted_throughput == pytest.approx(metric, abs=1e-12)
            ranks.append(report.ri)
        assert {3, 4} <= set(ranks)

    def test_matches_einsum_inverse_selection_4x2(self):
        """The beam-Gram search gives the same reports as forming every H @ W
        and inverting, on the 16-port panel from -10 to 40 dB."""
        cfg = AntennaConfig(4, 2)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
        table = CqiTable.default()
        rng = np.random.default_rng(18)
        ranks = []
        for snr_db in range(-10, 45, 5):
            nv = 10.0 ** (-snr_db / 10.0)
            for _ in range(3):
                h = np.stack([_rand_h(rng, 4, cfg.num_ports) for _ in range(4)])
                report = select_csi(h, nv, cbs, table)
                assert report == _select_type1_einsum_inv(h, nv, cbs, table)
                ranks.append(report.ri)
        assert set(ranks) == {1, 2, 3, 4}

    def test_codebooks_of_two_panels_rejected(self):
        """4x1 and 2x2 panels both have 8 ports, but not the same beam grid."""
        cbs = {rank: build_type1_codebook(cfg, rank, oversampling_factors(cfg))
               for rank, cfg in ((1, AntennaConfig(4, 1)), (2, AntennaConfig(2, 2)))}
        with pytest.raises(ValueError, match="one panel"):
            select_csi(np.ones((1, 2, 8), dtype=complex), 1.0, cbs, CqiTable.default())

    def test_rank_above_rx_count_skipped(self):
        cfg = AntennaConfig(2, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2)}
        rng = np.random.default_rng(7)
        report = select_csi(_rand_h(rng, 1, 4), 0.5, cbs, CqiTable.default())
        assert report.ri == 1

    def test_predicted_throughput_monotone_in_snr(self):
        cfg = AntennaConfig(2, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2)}
        table = CqiTable.default()
        h = _rand_h(np.random.default_rng(8), 2, 4)
        last = -1.0
        for nv in (10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01):
            tp = select_csi(h, nv, cbs, table).predicted_throughput
            assert tp >= last
            last = tp

    def test_capacity_upper_bounds_any_entry(self):
        cfg = AntennaConfig(2, 1)
        ov = oversampling_factors(cfg)
        rng = np.random.default_rng(9)
        for _ in range(5):
            h = _rand_h(rng, 2, 4)
            nv = float(rng.uniform(0.1, 2.0))
            sigma = svd_precode(h).sigma
            for rank in (1, 2):
                cb = build_type1_codebook(cfg, rank, ov)
                sinrs = layer_sinr_mmse(h, cb.w_stack.transpose(1, 0, 2).reshape(4, -1), nv)
                cap = mimo_capacity(sigma[:rank], nv)
                rates = np.log2(1.0 + sinrs).reshape(len(cb), rank).sum(axis=1)
                assert np.all(rates <= cap + 1e-9)

    def test_pmi_reports_i2_per_subband(self):
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
        rng = np.random.default_rng(10)
        h = np.stack([_rand_h(rng, 4, 8) for _ in range(3)])
        report = select_csi(h, 0.2, cbs, CqiTable.default())
        assert len(report.pmi.i2_per_subband) == 3

    def test_empty_codebooks_rejected(self):
        with pytest.raises(ValueError):
            select_csi(np.eye(4, dtype=complex), 1.0, {}, CqiTable.default())

    def test_noise_var_validated(self):
        cfg = AntennaConfig(2, 1)
        ov = oversampling_factors(cfg)
        cbs = {1: build_type1_codebook(cfg, 1, ov)}
        with pytest.raises(ValueError):
            select_csi(np.eye(4, dtype=complex), 0.0, cbs, CqiTable.default())


def _selectors_4x1():
    cfg = AntennaConfig(4, 1)
    ov = oversampling_factors(cfg)
    return {"type1": {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)},
            "type2": build_type2_structure(cfg, Type2Config(4, 8), ov)}


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_rejected(family, bad):
    """A nan or inf channel entry, and a noise variance that is not finite
    and positive, are refused naming the argument, in both families. (Type
    II's inf channel runs in a subprocess: test_inf_type2_slot_fails_fast.)"""
    selector = _selectors_4x1()[family]
    rng = np.random.default_rng(4)
    h = np.stack([_rand_h(rng, 4, 8) for _ in range(3)])
    table = CqiTable.default()
    if not (family == "type2" and bad == math.inf):
        h_bad = h.copy()
        h_bad[0, 0, 0] = bad
        with pytest.raises(ValueError, match="h must be finite"):
            select_csi(h_bad, 1.0, selector, table)
    with pytest.raises(ValueError, match="noise_var"):
        select_csi(h, bad, selector, table)


def test_inf_type2_slot_fails_fast():
    """An inf in the first channel entry makes Type II stage 2's full LAPACK
    SVD spin without end, even on an all-ones slot, so the slot runs in a
    subprocess that must refuse it within the timeout."""
    code = ("import math, numpy as np, nrsim\n"
            "cfg = nrsim.AntennaConfig(4, 1)\n"
            "space = nrsim.build_type2_structure(cfg, nrsim.Type2Config(4, 8),\n"
            "                                    nrsim.oversampling_factors(cfg))\n"
            "h = np.ones((3, 4, 8), dtype=complex)\n"
            "h[0, 0, 0] = math.inf\n"
            "try:\n"
            "    nrsim.select_csi(h, 1.0, space, nrsim.CqiTable.default())\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = str(Path(nrsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=30).stdout
    assert out == "h must be finite, got a nan or inf entry\n"


def test_all_cqi_zero_reports_rank1_first_entry():
    """When every candidate maps to CQI 0 all rates tie at 0, and both families
    report rank 1; Type I reports entry 0."""
    cfg = AntennaConfig(4, 1)
    ov = oversampling_factors(cfg)
    type1 = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
    type2 = build_type2_structure(cfg, Type2Config(4, 8), ov)
    rng = np.random.default_rng(16)
    h = np.stack([_rand_h(rng, 4, 8) for _ in range(3)])
    reports = [select_csi(h, 1e6, selector, CqiTable.default()) for selector in (type1, type2)]
    for report in reports:
        assert (report.ri, report.cqi, report.predicted_throughput) == (1, 0, 0.0)
    assert type1[1].index_of_pmi(reports[0].pmi) == 0


class TestSelectCsiType2:
    def _space(self, num_beams=4, n_psk=8):
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        return cfg, build_type2_structure(cfg, Type2Config(num_beams, n_psk), ov)

    def test_report_is_self_consistent(self):
        """Re-realizing the reported PMI reproduces the predicted throughput."""
        cfg, space = self._space()
        table = CqiTable.default()
        rng = np.random.default_rng(11)
        for _ in range(5):
            num_sb = int(rng.integers(1, 5))
            nv = float(rng.uniform(0.05, 5.0))
            h = np.stack([_rand_h(rng, 4, 8) for _ in range(num_sb)])
            report = select_csi(h, nv, space, table)
            assert 1 <= report.ri <= 2
            assert report.pmi.num_subbands == num_sb
            w = realize_type2_precoder(space, report.pmi)
            sinrs = np.stack([layer_sinr_mmse(h[k], w[k], nv) for k in range(num_sb)])
            eff = effective_sinr(sinrs)
            cqi = map_cqi(eff, table)
            assert cqi == report.cqi
            want = report.ri * table.efficiency(cqi)
            assert report.predicted_throughput == pytest.approx(want, abs=1e-12)

    def test_rank2_only_when_strictly_better(self):
        """A rank-2 report beats the rank-1 PMI made of its own first layer by
        a strictly higher rate, so equal rates (CQI 0 at low SNR) stay rank 1."""
        cfg, space = self._space()
        table = CqiTable.default()
        rng = np.random.default_rng(15)
        rank2 = 0
        for snr_db in np.linspace(-30.0, 30.0, 31):
            nv = 10.0 ** (-snr_db / 10.0)
            h = np.stack([_rand_h(rng, 4, 8) for _ in range(int(rng.integers(1, 4)))])
            report = select_csi(h, nv, space, table)
            if report.ri == 1:
                continue
            rank2 += 1
            pmi = report.pmi
            first = TypeIIPmi(pmi.i11, pmi.i12, pmi.wideband_amplitudes[:1],
                              pmi.subband_cophase[:1], pmi.subband_amplitude[:1])
            w = realize_type2_precoder(space, first)
            sinrs = np.stack([layer_sinr_mmse(h[k], w[k], nv) for k in range(len(h))])
            rank1_rate = table.efficiency(map_cqi(effective_sinr(sinrs), table))
            assert report.predicted_throughput > rank1_rate
        assert rank2 > 0

    def test_rank1_rx_limits_rank(self):
        cfg, space = self._space()
        rng = np.random.default_rng(13)
        report = select_csi(_rand_h(rng, 1, 8), 0.5, space, CqiTable.default())
        assert report.ri == 1

    @pytest.mark.parametrize("q1, subset", [(0, [0, 2]), (1, [0, 1])],
                             ids=["rotation0", "rotation1"])
    def test_beam_selection_prefers_aligned_channel(self, q1, subset):
        """A channel whose rows span beams v_b of one rotation (so H v_b
        carries all its power) is reported with that rotation and those
        beams. At rotation 1 the mirrored beams conj(v_b) are rotation 3's."""
        cfg, space = self._space(num_beams=2)
        beams = space.beams[q1, 0]
        rng = np.random.default_rng(14)
        mix = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        h = mix @ beams[subset].conj()
        h = np.concatenate([h, h], axis=1)  # same beams on both polarizations
        report = select_csi(h, 0.1, space, CqiTable.default())
        assert report.pmi.i11 == (q1, 0)
        assert space.combos[report.pmi.i12].tolist() == subset

    @pytest.mark.parametrize("n1, n2, num_beams", [(4, 1, 2), (2, 2, 3), (4, 2, 4)])
    def test_stage1_brute_force_oracle(self, n1, n2, num_beams):
        """Stage 1 reports the (q1, q2, i12) that maximizes the beam power
        sum_k sum_p sum_b ||H_p[k] v_b||^2 over every rotation and B-subset,
        v_b = dft_beam(q1 + o1*x1, q2 + o2*x2) with b = x1*n2 + x2 and H_p
        the columns of polarization p."""
        cfg = AntennaConfig(n1, n2)
        ov = oversampling_factors(cfg)
        space = build_type2_structure(cfg, Type2Config(num_beams, 8), ov)
        p_pol = n1 * n2
        rng = np.random.default_rng(30 + num_beams)
        for _ in range(8):
            num_sb = int(rng.integers(1, 4))
            h = np.stack([_rand_h(rng, 2, 2 * p_pol) for _ in range(num_sb)])
            scores = {}
            for q1, q2 in itertools.product(range(ov.o1), range(ov.o2)):
                v = [dft_beam(q1 + ov.o1 * x1, q2 + ov.o2 * x2, cfg, ov)
                     for x1 in range(n1) for x2 in range(n2)]
                gain = [sum(np.linalg.norm(h[k][:, p * p_pol:(p + 1) * p_pol] @ v_b) ** 2
                            for k in range(num_sb) for p in range(2)) for v_b in v]
                for i12, subset in enumerate(itertools.combinations(range(p_pol), num_beams)):
                    scores[(q1, q2), i12] = sum(gain[b] for b in subset)
            best = max(scores.values())
            assert sorted(scores.values())[-2] < best * (1 - 1e-9)  # a unique best pick
            pmi = select_csi(h, 0.5, space, CqiTable.default()).pmi
            assert scores[pmi.i11, pmi.i12] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("num_sb", [1, 2, 3])
    def test_cophase_oracle_2x1_panel(self, num_sb):
        """On a 2x1 panel with B = 2 and QPSK, each subband's realized layer-1
        column has the largest |w^H v1| over all 4^4 co-phase vectors with the
        reported amplitudes, v1 being that subband's dominant right-singular
        vector."""
        cfg = AntennaConfig(2, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=2, n_psk=4),
                                      oversampling_factors(cfg))
        rng = np.random.default_rng(20 + num_sb)
        for _ in range(10):
            h = np.stack([_rand_h(rng, 2, 4) for _ in range(num_sb)])
            pmi = select_csi(h, float(rng.uniform(0.1, 2.0)), space, CqiTable.default()).pmi
            w = realize_type2_precoder(space, pmi)
            v1 = np.linalg.svd(h)[2][:, 0, :].conj()  # (subbands, ports)
            candidates = np.asarray(list(itertools.product(range(4), repeat=4)))
            for k in range(num_sb):
                amp = (TYPE2_WB_AMPLITUDES[list(pmi.wideband_amplitudes[0])]
                       * TYPE2_SB_AMPLITUDES[list(pmi.subband_amplitude[0][k])])
                beams = space.beams[pmi.i11[0], pmi.i11[1], space.combos[pmi.i12]]
                coeff = (amp * np.exp(2j * np.pi * candidates / 4)).reshape(-1, 2, 2)
                cols = (coeff @ beams).reshape(-1, 4)
                cols /= np.linalg.norm(cols, axis=1, keepdims=True)
                best = np.max(np.abs(cols.conj() @ v1[k]))
                got = abs(np.vdot(w[k, :, 0], v1[k])) * math.sqrt(pmi.rank)
                assert got == pytest.approx(best, abs=1e-12)


def _quantize_type2_layer_reference(c, n_psk):
    """One layer's stage-2 quantization, c (subbands, 2B), written per layer:
    the reference that _quantize_type2's all-layers pass must equal."""
    wb_mag = np.abs(c).mean(axis=0)
    peak = float(wb_mag.max())
    if peak > 0.0:
        ref = int(np.argmax(wb_mag))
        c = c * np.exp(-1j * np.angle(c[:, ref]))[:, None]
        wb_idx = np.argmin(np.abs((wb_mag / peak)[:, None] - TYPE2_WB_AMPLITUDES[None, :]), axis=1)
    else:
        wb_idx = np.zeros(c.shape[1], dtype=int)
        wb_idx[0] = len(TYPE2_WB_AMPLITUDES) - 1
    sb_bits = (np.abs(c) >= wb_mag[None, :]).astype(int)
    amp = TYPE2_WB_AMPLITUDES[wb_idx][None, :] * TYPE2_SB_AMPLITUDES[sb_bits]
    return wb_idx, sb_bits, quantize_phases(c, amp, n_psk)


def _select_type2_stage2_reference(h, noise_var, space, table, i11, i12):
    """Type II stage 2 one layer and one candidate at a time, for the beams
    (i11, i12) that stage 1 picked (stage 1 has its own brute-force oracle):
    quantize each layer alone, build the PMI of every rank up to the Type II
    limit, and rate each through realize_type2_precoder."""
    num_sb, num_rx, num_tx = h.shape
    p_pol = num_tx // 2
    beams = space.beams[i11[0], i11[1], space.combos[i12]]
    vh = np.linalg.svd(h)[2]
    quant = []
    for layer in range(min(TYPE2_MAX_RANK, num_rx, num_tx)):
        target = vh[:, layer, :].conj().reshape(num_sb, 2, p_pol)
        c = np.einsum("kpe,be->kpb", target, beams.conj()).reshape(num_sb, -1) / p_pol
        quant.append(_quantize_type2_layer_reference(c, space.t2.n_psk))
    nested = lambda a: tuple(map(nested, a)) if np.ndim(a) else int(a)
    pmis = [TypeIIPmi(i11, i12, nested([q[0] for q in quant[:n]]),
                      nested([q[2] for q in quant[:n]]), nested([q[1] for q in quant[:n]]))
            for n in range(1, len(quant) + 1)]
    rated = ((pmi.rank, _precoded_sinr(h, realize_type2_precoder(space, pmi), noise_var))
             for pmi in pmis)
    tp, rank, _, cqi = _choose(rated, table)
    return CsiReport(ri=rank, pmi=pmis[rank - 1], cqi=cqi, predicted_throughput=tp)


_STAGE2_GRID = [(n1, n2, num_beams, n_psk)
                for n1, n2 in ((2, 1), (4, 1), (2, 2), (4, 2))
                for num_beams in (2, 3, 4) if num_beams <= n1 * n2
                for n_psk in (4, 8)]


@pytest.mark.parametrize("n1, n2, num_beams, n_psk", _STAGE2_GRID,
                         ids=[f"{n1}x{n2}-B{b}-psk{p}" for n1, n2, b, p in _STAGE2_GRID])
def test_type2_stage2_oracle(n1, n2, num_beams, n_psk):
    """select_csi's Type II report equals the per-layer, per-candidate
    reference exactly (RI, CQI, predicted throughput and every PMI tuple) on
    random slots with 1, 2 or 4 rx, 1-13 subbands and SNRs from -10 to 30 dB."""
    cfg = AntennaConfig(n1, n2)
    space = build_type2_structure(cfg, Type2Config(num_beams, n_psk), oversampling_factors(cfg))
    table = CqiTable.default()
    rng = np.random.default_rng(1000 * n1 + 100 * n2 + 10 * num_beams + n_psk)
    ranks = set()
    for _ in range(12):
        num_rx, num_sb = int(rng.choice([1, 2, 4])), int(rng.integers(1, 14))
        h = np.stack([_rand_h(rng, num_rx, cfg.num_ports) for _ in range(num_sb)])
        noise_var = 10.0 ** (-rng.uniform(-10.0, 30.0) / 10.0)
        report = select_csi(h, noise_var, space, table)
        want = _select_type2_stage2_reference(h, noise_var, space, table,
                                              report.pmi.i11, report.pmi.i12)
        assert report == want
        ranks.add(report.ri)
    assert ranks == {1, 2}


def test_quantize_type2_zero_layer_beside_live_layer():
    """An all-zero layer gets wideband indices [7, 0, ...], every subband
    bit set and zero phases, and leaves the live layer's indices as the
    per-layer reference gives them, in either layer order."""
    rng = np.random.default_rng(40)
    live = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    zero = np.zeros_like(live)
    want = _quantize_type2_layer_reference(live, 8)
    for order in ((live, zero), (zero, live)):
        wb_idx, sb_bits, phases = _quantize_type2(np.stack(order), 8)
        z = 1 if order[1] is zero else 0
        assert wb_idx[z].tolist() == [7] + [0] * 7
        assert np.all(sb_bits[z] == 1) and np.all(phases[z] == 0)
        for got, ref in zip((wb_idx[1 - z], sb_bits[1 - z], phases[1 - z]), want):
            assert np.array_equal(got, ref)
