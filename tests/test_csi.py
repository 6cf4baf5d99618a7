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
    oversampling_factors,
    quantize_phases,
    realize_type2_precoder,
    select_csi,
)
import nrsim.csi as csi
from nrsim.codebook import (_OVERSAMPLING, TYPE2_MAX_RANK, TYPE2_SB_AMPLITUDES,
                            TYPE2_WB_AMPLITUDES, Codebook, TypeIPmi)
from nrsim.csi import (CsiReport, _choose, _cqi, _effective_sinr, _logdet_capacity, _mmse_error,
                       _precoded_sinr, _quantize_type2, _select_type1, _select_type2, _sweep)
from oracles import (brute_force_type1, cqi_scan, effective_sinr_explicit, mimo_capacity,
                     mmse_sinr_explicit)


def _rand_h(rng, num_rx, num_tx):
    return (rng.standard_normal((num_rx, num_tx))
            + 1j * rng.standard_normal((num_rx, num_tx))) / math.sqrt(2.0)


class TestSvd:
    """The np.linalg.svd properties the code relies on: Type II stage 2 takes
    the leading rows of vh as the dominant directions, and the capacity
    oracle takes the singular values."""

    def test_identity(self):
        assert np.allclose(np.linalg.svd(np.eye(2), compute_uv=False), [1.0, 1.0])

    def test_diagonal_sorted(self):
        assert np.allclose(np.linalg.svd(np.diag([3.0, 4.0]), compute_uv=False), [4.0, 3.0])

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = _rand_h(rng, 4, 8)
            u, sigma, vh = np.linalg.svd(h)
            full = u @ np.diag(sigma) @ vh[:4]
            assert np.linalg.norm(full - h) <= 1e-9 * np.linalg.norm(h)
            assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
            assert np.allclose(vh @ vh.conj().T, np.eye(8), atol=1e-12)
            assert np.all(np.diff(sigma) <= 0)


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
            cap = mimo_capacity(np.linalg.svd(h, compute_uv=False), nv)
            gram = np.eye(4) + h @ h.conj().T / nv
            direct = float(np.log2(np.linalg.det(gram).real))
            assert cap == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("snr_db", [-60.0, -175.0])
    def test_low_snr_keeps_relative_precision(self, snr_db):
        """Far below 0 dB, where 1 + x rounds away most or all of x =
        sigma^2/nv, the capacity matches its series x/ln2 * (1 - x/2 + x^2/3)
        to 1e-14 relative and stays positive."""
        nv = 10.0 ** (-snr_db / 10.0)
        for sigma in (0.3, 1.0, 2.5):
            x = sigma * sigma / nv
            want = x / math.log(2.0) * (1.0 - x / 2.0 + x * x / 3.0)
            got = mimo_capacity((sigma,), nv)
            assert got > 0.0
            assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("snr_db", [-1000.0, -300.0, -40.0, 0.0, 40.0, 300.0, 1000.0])
    def test_logdet_matches_svd_oracle(self, snr_db):
        """The elimination-based capacity equals mimo_capacity of the singular
        values for every rx 1-4 x tx 1-16 shape, rx > tx included, per matrix
        of a (3, 5) batch, to 1e-12 relative (1e-15 absolute near 0)."""
        nv = 10.0 ** (-snr_db / 10.0)
        rng = np.random.default_rng(14)
        for num_rx, num_tx in itertools.product(range(1, 5), range(1, 17)):
            h = (rng.standard_normal((3, 5, num_rx, num_tx))
                 + 1j * rng.standard_normal((3, 5, num_rx, num_tx))) / math.sqrt(2.0)
            want = mimo_capacity(np.linalg.svd(h, compute_uv=False), nv)
            got = _logdet_capacity(h, nv)
            assert got.shape == (3, 5)
            assert np.all(got >= 0.0)
            assert np.all(np.abs(got - want) <= np.maximum(1e-12 * want, 1e-15)), (num_rx, num_tx)
            if snr_db == -1000.0:
                assert np.all(got == 0.0)


def _layer_sinr_inv(g, noise_var):
    """Per-layer MMSE SINR of effective channels g (..., rx, layers) through
    np.linalg.inv: the formula the sweep helper replaced."""
    r = g.shape[-1]
    gram = np.einsum("...ir,...is->...rs", g.conj(), g)
    diag = np.einsum("...ii->...i", np.linalg.inv(np.eye(r) + gram / noise_var)).real
    return np.maximum(1.0 / diag - 1.0, 0.0)


def _first_best(candidates, table):
    """(throughput, rank, index, cqi) of one slot's best candidate, for
    candidates (rank, effective SINRs of that rank's candidates) in
    ascending rank: the selection rule without _choose's rank bound. Every
    candidate is rated as rank x efficiency(cqi_scan), and a later one
    replaces the best only where strictly better, so the first best stays."""
    best = None
    for rank, eff in candidates:
        for index, e in enumerate(np.ravel(eff).tolist()):
            cqi = cqi_scan(e, table)
            tp = rank * table.efficiency(cqi)
            if best is None or tp > best[0]:
                best = (tp, rank, index, cqi)
    return best


def _select_type1_einsum_inv(h, noise_var, codebooks, table):
    """Type I selection as it was before the beam-Gram search: every entry's
    effective channel H @ W formed explicitly, its SINRs through
    np.linalg.inv, their capacity-domain mean over (subbands, layers) rated
    by the unpruned first-best rule."""
    num_sb, num_rx, num_tx = h.shape
    ranks = [rank for rank in sorted(codebooks) if rank <= min(num_rx, num_tx)]
    stacks = ((rank, codebooks[rank].precoders(np.arange(len(codebooks[rank])))) for rank in ranks)
    sinrs = ((rank, _layer_sinr_inv(np.einsum("kij,ejr->ekir", h, w), noise_var))
             for rank, w in stacks)
    candidates = ((rank, np.exp2(np.mean(np.log2(1.0 + sinr), axis=(-2, -1))) - 1.0)
                  for rank, sinr in sinrs)
    tp, rank, e, cqi = _first_best(candidates, table)
    pmi = codebooks[rank].pmi_of(e)
    report_pmi = TypeIPmi(pmi.i11, pmi.i12, pmi.i13, pmi.i2_per_subband * num_sb)
    return CsiReport(ri=rank, pmi=report_pmi, cqi=cqi, predicted_throughput=tp)


def _mmse_sinr(g, noise_var):
    """Per-layer SINRs 1/e - 1, shape (..., layers), of the sweep's MMSE
    errors e of effective channels g (..., rx, layers)."""
    return np.maximum(1.0 / np.stack(_mmse_error(g, noise_var), axis=-1) - 1.0, 0.0)


class TestLayerSinr:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_helper_matches_inverse(self, rank):
        """The sweep's MMSE errors e give SINRs 1/e - 1 that match
        np.linalg.inv on random effective channels from -10 to 40 dB."""
        rng = np.random.default_rng(20 + rank)
        for snr_db in range(-10, 45, 5):
            nv = 10.0 ** (-snr_db / 10.0)
            g = _rand_h(rng, 500 * (rank + 2), rank).reshape(500, rank + 2, rank)
            got = _mmse_sinr(g, nv)
            assert got.shape == (500, rank)
            np.testing.assert_allclose(got, _layer_sinr_inv(g, nv), rtol=1e-12, atol=0.0)

    def test_scalar_channel(self):
        g = np.array([[0.5 - 1.0j]])
        got = _mmse_sinr(g, 0.25)
        assert got == pytest.approx([abs(g[0, 0]) ** 2 / 0.25], abs=1e-12)

    def test_orthogonal_columns_decouple(self):
        g = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]], dtype=complex)
        got = _mmse_sinr(g, 0.5)
        assert got == pytest.approx([8.0, 8.0], abs=1e-9)

    def test_matches_explicit_filters(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = _rand_h(rng, 4, 6)
            w = _rand_h(rng, 6, 2)
            nv = float(rng.uniform(0.05, 5.0))
            got = _mmse_sinr(h @ w, nv)
            want = mmse_sinr_explicit(h @ w, nv)
            assert got == pytest.approx(want, abs=1e-9)


def _eff_of_sinrs(sinrs):
    """_effective_sinr of SINRs (layers, subbands), given as the MMSE errors
    1 / (1 + SINR) it takes."""
    return float(_effective_sinr(list(1.0 / (1.0 + np.asarray(sinrs, dtype=float)))))


class TestEffectiveSinr:
    def test_fixed_point(self):
        assert _eff_of_sinrs([[2.5, 2.5], [2.5, 2.5]]) == pytest.approx(2.5, abs=1e-12)

    def test_single_entry_identity(self):
        assert _eff_of_sinrs([[0.7]]) == pytest.approx(0.7, abs=1e-15)

    def test_zero_and_s_below_half(self):
        s = 3.0
        eff = _eff_of_sinrs([[0.0, s]])
        assert eff == pytest.approx(2.0 ** (0.5 * math.log2(1 + s)) - 1.0, abs=1e-12)
        assert eff < s / 2

    def test_inf_sinr_gives_inf_quietly(self):
        """An error of 0 (an infinite SINR) gives an infinite effective SINR:
        past the division 1/0 that makes it, no step overflows or makes a nan."""
        with np.errstate(all="raise", divide="ignore"):
            assert _effective_sinr([np.array([0.0, 0.5])]) == math.inf


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


def _map_cqi(eff, table):
    """_cqi of one effective SINR."""
    return int(_cqi(np.array([eff], dtype=float), table)[0])


class TestMapCqi:
    def test_below_range(self):
        tbl = CqiTable.default()
        assert _map_cqi(0.0, tbl) == 0
        assert _map_cqi(10 ** (-20.0 / 10.0), tbl) == 0

    def test_exact_threshold_inclusive(self):
        tbl = CqiTable.default()
        for k in (1, 7, 15):
            thr = 10.0 ** (tbl.sinr_threshold_db[k - 1] / 10.0)
            assert _map_cqi(thr, tbl) == k

    def test_gap_rule_inversion(self):
        tbl = CqiTable.default()
        gap = 10.0 ** (2.0 / 10.0)
        for k, se in enumerate(tbl.spectral_efficiency, start=1):
            assert _map_cqi(gap * (2.0 ** se - 1.0), tbl) == k

    def test_inf_maps_to_top_cqi(self):
        for tbl in (CqiTable.default(), _TWO_ROW):
            assert _map_cqi(math.inf, tbl) == len(tbl.spectral_efficiency)

    @pytest.mark.parametrize("two_row", [False, True])
    def test_matches_threshold_scan(self, two_row):
        """_cqi of an array equals the threshold scan of each value, for
        effective SINRs from -40 to 60 dB and for 0, negative, nan and inf
        values, which map to 0, 0, 0 and the top CQI."""
        tbl = _TWO_ROW if two_row else CqiTable.default()
        rng = np.random.default_rng(40 + two_row)
        special = np.array([0.0, -1.0, -1e-300, -math.inf, math.nan, math.inf])
        eff = np.concatenate([10.0 ** (rng.uniform(-40.0, 60.0, 2000) / 10.0), special])
        got = _cqi(eff, tbl)
        assert got.tolist() == [cqi_scan(e, tbl) for e in eff.tolist()]
        assert got[-len(special):].tolist() == [0] * 5 + [len(tbl.spectral_efficiency)]

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_monotone(self, a, b):
        tbl = CqiTable.default()
        lo, hi = sorted((a, b))
        assert _map_cqi(lo, tbl) <= _map_cqi(hi, tbl)


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

    @pytest.mark.parametrize("n_psk", [2.5, 4.0, True, None])
    def test_non_integer_n_psk_rejected(self, n_psk):
        with pytest.raises(ValueError, match="n_psk must be an integer"):
            quantize_phases([1 + 1j, 1 - 1j], [1.0, 1.0], n_psk)

    def test_numpy_integer_n_psk_accepted(self):
        got = quantize_phases([1 + 1j, 1 - 1j], [1.0, 1.0], np.int64(4))
        assert np.array_equal(got, quantize_phases([1 + 1j, 1 - 1j], [1.0, 1.0], 4))


class TestSelectCsi:
    def test_constructed_channel_picks_entry_zero(self):
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2)}
        rng = np.random.default_rng(5)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = np.outer(y, cbs[1].precoders([0])[0, :, 0].conj())
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
            metric, rank, idx, cqi = brute_force_type1(h, nv, cbs, table)
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
            metric, rank, idx, cqi = brute_force_type1(h, nv, cbs, table)
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
            sigma = np.linalg.svd(h, compute_uv=False)
            for rank in (1, 2):
                cb = build_type1_codebook(cfg, rank, ov)
                sinrs = _mmse_sinr(h @ cb.precoders(np.arange(len(cb))), nv)
                cap = mimo_capacity(sigma[:rank], nv)
                rates = np.log2(1.0 + sinrs).sum(axis=1)
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

    @pytest.mark.parametrize("num_tx", [4, 6, 16])
    def test_port_mismatch_rejected(self, num_tx):
        """A channel whose tx count is not the codebooks' port count is
        refused naming both counts, as Type II refuses it."""
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
        h = _rand_h(np.random.default_rng(11), 4, num_tx)
        with pytest.raises(ValueError, match=f"^channel has {num_tx} tx ports but the panel has 8"):
            select_csi(h, 1.0, cbs, CqiTable.default())

    @pytest.mark.parametrize("key, rank", [(2, 3), (1, 4), (4, 1), (3, 2)])
    def test_key_differing_from_codebook_rank_rejected(self, key, rank):
        """A codebook filed under another rank would be rated and charged as
        that rank (or fail inside the search); it is refused naming both."""
        cfg = AntennaConfig(4, 1)
        cbs = {key: build_type1_codebook(cfg, rank, oversampling_factors(cfg))}
        h = _rand_h(np.random.default_rng(12), 4, 8)
        with pytest.raises(ValueError, match=rf"^codebooks\[{key}\] is a rank-{rank} codebook$"):
            select_csi(h, 0.01, cbs, CqiTable.default())


def _ratings(monkeypatch, selector, h, noise_var):
    """The candidate ratings [(rank, effective SINRs (slots, candidates))],
    in ascending rank, that _choose's rate callback returns when selecting
    the block h, Type I or Type II, each scattered into zeros at the slots
    it was asked for. A rank is rated only in the slots where it can still
    win or tie and reads 0 in the others. The width is the rank's Type I
    codebook size, or 1 for Type II, also for a rank rated in no slot."""
    ratings = {}

    def choose(ranks, rate, num_slots, table):
        ratings.clear()
        for rank in ranks:
            width = len(selector[rank]) if isinstance(selector, dict) else 1
            ratings[rank] = np.zeros((num_slots, width))

        def spy(rank, slots):
            eff = rate(rank, slots)
            ratings[rank][slots] = eff
            return eff

        return _choose(ranks, spy, num_slots, table)

    monkeypatch.setattr(csi, "_choose", choose)
    select = _select_type1 if isinstance(selector, dict) else _select_type2
    select(h, noise_var, selector, CqiTable.default())
    monkeypatch.undo()
    return sorted(ratings.items())


def _rank4_eff(monkeypatch, h, noise_var, cb):
    """Rank-4 effective SINRs (slots, entries) as _select_type1 rates them."""
    ((rank, eff),) = _ratings(monkeypatch, {4: cb}, h, noise_var)
    assert rank == 4
    return eff


class TestRank4PairRating:
    """Rank 4 rates every entry of a beam pair from one inverse of the 4 x 4
    polarization Gram of its two beams (csi._pair_plan)."""

    @pytest.mark.parametrize("layout", [(2, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
    def test_matches_layer_sinr_oracle(self, layout, monkeypatch):
        """Every entry's effective SINR equals the capacity-domain mean of the
        explicit-filter SINRs of its materialized precoder, to 1e-12
        relative, from -10 to 40 dB; (4, 2) takes the fallback rank-3/4
        offsets."""
        cfg = AntennaConfig(*layout)
        cb = build_type1_codebook(cfg, 4, oversampling_factors(cfg))
        rng = np.random.default_rng(30 + layout[0] * layout[1])
        for snr_db in range(-10, 45, 10):
            nv = 10.0 ** (-snr_db / 10.0)
            h = np.stack([_rand_h(rng, 4, cfg.num_ports) for _ in range(2)])
            got = _rank4_eff(monkeypatch, h[None], nv, cb)[0]
            want = [effective_sinr_explicit(h, w, nv) for w in cb.precoders(np.arange(len(cb)))]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_scaled_channel_keeps_its_rating(self, monkeypatch):
        """A channel scaled by 1e150 at 1e300 times the noise rates like the
        unscaled one, without overflow: the inverse takes no determinant."""
        cfg = AntennaConfig(4, 2)
        cb = build_type1_codebook(cfg, 4, oversampling_factors(cfg))
        h = np.stack([_rand_h(np.random.default_rng(31), 4, 16) for _ in range(3)])[None]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _rank4_eff(monkeypatch, h * 1e150, 0.01 * 1e300, cb)
        np.testing.assert_allclose(got, _rank4_eff(monkeypatch, h, 0.01, cb), rtol=1e-12)

    def test_sweep_keeps_the_named_inverse_entries(self):
        """_sweep leaves -A^-1 on the diagonal and at each kept entry."""
        rng = np.random.default_rng(32)
        g = _rand_h(rng, 50 * 6, 4).reshape(50, 6, 4)
        gram = g.conj().swapaxes(-1, -2) @ g
        iu, ju = np.triu_indices(4)
        a = _sweep(np.moveaxis(gram[:, iu, ju], -1, 0), 0.1, keep=((0, 1), (2, 3), (0, 3)))
        inv = np.linalg.inv(gram + 0.1 * np.eye(4))
        for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3), (0, 3)]:
            np.testing.assert_allclose(-a[i][j], inv[:, i, j], rtol=1e-12, atol=1e-15)

    def test_broken_cophase_table_rejected(self):
        """The shared inverse holds only when each beam carries a +c/-c
        column pair; a table without that shape is refused."""
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cb = build_type1_codebook(cfg, 4, ov)
        cophase = np.array(cb.cophase)
        cophase[0, 0, 2] = cophase[0, 0, 0]  # first beam's columns now +c and +c
        broken = Codebook(cfg, np.array(cb.grid), np.array(cb.col_offsets), cophase)
        h = np.stack([_rand_h(np.random.default_rng(33), 4, 8)])
        with pytest.raises(ValueError, match="column pairs"):
            select_csi(h, 0.1, {1: build_type1_codebook(cfg, 1, ov), 4: broken},
                       CqiTable.default())

    def test_rank1_channel_at_100_db_reports_rank_1(self):
        """Rank 4 of a rank-1 channel has no second stream to report."""
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
        rng = np.random.default_rng(3)
        h = np.outer(_rand_h(rng, 4, 1), _rand_h(rng, 1, 8))[None] / math.sqrt(8)
        assert select_csi(h, 1e-10, cbs, CqiTable.default()).ri == 1

    @pytest.mark.xfail(strict=True, reason="the MMSE sweep loses nv against O(1) Gram entries "
                                           "from about 200 dB, and ranks 2-4 rate as CQI 15")
    def test_rank1_channel_at_200_db_reports_rank_1(self):
        cfg = AntennaConfig(4, 1)
        ov = oversampling_factors(cfg)
        cbs = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
        rng = np.random.default_rng(3)
        h = np.outer(_rand_h(rng, 4, 1), _rand_h(rng, 1, 8))[None] / math.sqrt(8)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert select_csi(h, 1e-20, cbs, CqiTable.default()).ri == 1


class TestRankBound:
    """_choose rates Type I's highest rank first and a lower rank r only in
    the slots where the best throughput so far is at most r times the top
    spectral efficiency; elsewhere r can neither win nor tie. The ratings
    are read through the _ratings spy on _choose's rate callback, where a
    skipped slot reads 0."""

    @pytest.mark.parametrize("n1, n2", [(4, 1), (2, 2), (4, 2)])
    def test_matches_merge_of_single_rank_selections(self, n1, n2, monkeypatch):
        """The pruned selection equals, exactly, the merge of one selection
        per rank that keeps a higher rank only where its throughput (rank x
        efficiency(CQI)) is strictly greater: throughput, the winner's SINR,
        rank, CQI, every PMI index array and the precoder w (a single rank's
        w zero-padded to the top rank), on 2 and
        4 rx from -10 to 40 dB. Slots of one block are scaled apart by up to
        30 dB, so some blocks rate a rank in some slots and skip it in
        others."""
        cfg = AntennaConfig(n1, n2)
        cbs = _selector(cfg, "type1")
        table = CqiTable.default()
        rng = np.random.default_rng(70 + 10 * n1 + n2)
        mixed = set()

        def select(h, nv, ranks, top):  # (tp, sinr, rank, cqi, w, i11, i12, i13, i2)
            sinr, rank, cqi, w, indices = _select_type1(h, nv, {r: cbs[r] for r in ranks}, table)
            w = np.concatenate([w, np.zeros((*w.shape[:-1], top - w.shape[-1]))], axis=-1)
            return (rank * table.efficiency(cqi), sinr, rank, cqi, w, *indices)

        for num_rx, snr_db in itertools.product((2, 4), range(-10, 45, 10)):
            ranks = [r for r in sorted(cbs) if r <= num_rx]
            gain = 10.0 ** (rng.uniform(-15.0, 15.0, size=(8, 1, 1, 1)) / 20.0)
            h = gain * _rand_h(rng, 8 * 3 * num_rx, cfg.num_ports).reshape(
                8, 3, num_rx, cfg.num_ports)
            nv = 10.0 ** (-snr_db / 10.0)
            want = select(h, nv, ranks[:1], ranks[-1])
            for r in ranks[1:]:
                found = select(h, nv, [r], ranks[-1])
                better = found[0] > want[0]
                want = tuple(np.where(better.reshape(-1, *[1] * (new.ndim - 1)), new, old)
                             for new, old in zip(found, want))
            got = select(h, nv, ranks, ranks[-1])
            for name, g, w in zip(("tp", "sinr", "rank", "cqi", "w", "i11", "i12", "i13", "i2"), got,
                                  want, strict=True):
                assert np.array_equal(g, w), (num_rx, snr_db, name)
            for rank, eff in _ratings(monkeypatch, {r: cbs[r] for r in ranks}, h, nv):
                skipped = np.all(eff == 0.0, axis=-1)
                if 0 < skipped.sum() < len(h):
                    mixed.add(rank)
        assert mixed == {1, 2, 3}  # the live-slot path ran for every lower rank

    def test_tie_at_the_bound_keeps_the_lower_rank(self, monkeypatch):
        """With efficiencies (1, 2), rank 2 at CQI 1 reaches exactly what
        rank 1 reaches at CQI 2. Rank 1 is still rated there, and the tie
        goes to it."""
        cfg = AntennaConfig(2, 1)
        cbs = {r: cb for r, cb in _selector(cfg, "type1").items() if r <= 2}
        h = _rand_h(np.random.default_rng(81), 2, 4)[None, None]
        peak = {r: _ratings(monkeypatch, {r: cbs[r]}, h, 0.1)[0][1].max() for r in cbs}
        assert peak[2] < peak[1]
        table = CqiTable((1.0, 2.0), (-100.0, 5.0 * math.log10(peak[1] * peak[2])))
        _, rank, cqi, w, indices = _select_type1(h, 0.1, cbs, table)
        assert (rank[0] * table.efficiency(cqi[0]), rank[0], cqi[0]) == (2.0, 1, 2)
        pmi = TypeIPmi(*(int(a[0]) for a in indices[:3]), (int(indices[3][0]),))
        assert np.array_equal(w[0, 0, :, :1], cbs[1].precoders([cbs[1].index_of_pmi(pmi)])[0])
        assert np.all(w[0, 0, :, 1:] == 0)

    def test_ranks_1_to_3_rate_no_slot_at_30_db_4x2(self, monkeypatch):
        """On the 16-port panel at 30 dB rank 4 beats anything ranks 1-3
        can reach in every slot: only rank 4 is swept, and ranks 1-3 read 0."""
        cfg = AntennaConfig(4, 2)
        cbs = _selector(cfg, "type1")
        h = _rand_h(np.random.default_rng(80), 10 * 4 * 4, 16).reshape(10, 4, 4, 16)
        ratings = _ratings(monkeypatch, cbs, h, 10.0 ** -3.0)
        assert [rank for rank, _ in ratings] == [1, 2, 3, 4]
        for rank, eff in ratings[:3]:
            assert np.all(eff == 0.0), rank
        assert np.all(ratings[3][1] > 0.0)
        sweeps = []

        def sweep(upper, *args, **kwargs):
            sweeps.append(len(upper))
            return _sweep(upper, *args, **kwargs)

        monkeypatch.setattr(csi, "_sweep", sweep)
        _select_type1(h, 10.0 ** -3.0, cbs, CqiTable.default())
        assert sweeps == [10]  # rank 4's 4 x 4 pair inverses alone


_TWO_ROW = CqiTable((1.0, 2.0), (0.0, 5.0))
_CHOOSE_CASES = [(ranks, two_row) for two_row in (False, True)
                 for ranks in ((1,), (1, 2), (2, 4), (1, 2, 3, 4))]
_CHOOSE_IDS = ["-".join(map(str, ranks)) + ("-two-row" if two_row else "")
               for ranks, two_row in _CHOOSE_CASES]


def _tied_ratings(seed, ranks, table, num_slots):
    """Random effective SINRs {rank: (slots, 1 to 5 candidates)} full of
    exact ties: every value is 0, a CQI threshold, or one of 8 draws from
    10 dB below the table to 10 dB above it, so rows repeat values, and
    half the rows are capped by a value drawn for them, so ranks meet at
    every level. The first 20 slots rate every candidate 0, so every rank
    ties there."""
    rng = np.random.default_rng(seed)
    thr_db = np.asarray(table.sinr_threshold_db)
    pool = np.concatenate([[0.0], 10.0 ** (thr_db / 10.0),
                           10.0 ** (rng.uniform(thr_db[0] - 10.0, thr_db[-1] + 10.0, 8) / 10.0)])
    ratings = {}
    for rank in ranks:
        cap = np.where(rng.random((num_slots, 1)) < 0.5, rng.choice(pool, (num_slots, 1)), np.inf)
        ratings[rank] = np.minimum(rng.choice(pool, (num_slots, int(rng.integers(1, 6)))), cap)
        ratings[rank][:20] = 0.0
    return ratings


def _peak(rank, eff, table):
    """The best rating rank x efficiency(cqi_scan) of each row of eff."""
    return np.array([max(rank * table.efficiency(cqi_scan(e, table)) for e in row)
                     for row in eff.tolist()])


class TestChoose:
    """_choose against the selection rule written plainly (_first_best): every
    candidate rated, ranks ascending, a later candidate kept only where
    strictly better. The two-row table (efficiencies 1 and 2) makes rank r
    at CQI 2 tie rank 2r at CQI 1, so rank 1 at its bound ties rank 2."""

    @pytest.mark.parametrize("ranks, two_row", _CHOOSE_CASES, ids=_CHOOSE_IDS)
    def test_matches_unpruned_first_best(self, ranks, two_row):
        """Throughput (rank x efficiency(CQI)), rank, index and CQI are
        equal, exactly, on random ratings seeded with exact ties within and
        across ranks, and the SINR is the rating of the chosen index."""
        table = _TWO_ROW if two_row else CqiTable.default()
        ratings = _tied_ratings(sum(ranks) + 10 * two_row, ranks, table, 400)
        sinr, rank, index, cqi = _choose(ranks, lambda rank, slots: ratings[rank][slots], 400, table)
        want = [_first_best([(r, ratings[r][s]) for r in sorted(ranks)], table)
                for s in range(400)]
        got = (rank * table.efficiency(cqi), rank, index, cqi)
        for name, g, w in zip(("tp", "rank", "index", "cqi"), got, zip(*want), strict=True):
            assert np.array_equal(g, w), name
        assert np.array_equal(sinr, [ratings[r][s, i] for s, (_, r, i, _) in enumerate(want)])
        peak = {r: _peak(r, ratings[r], table) for r in ranks}
        tied = [s for s, (tp, rank, _, _) in enumerate(want)
                if any(peak[r][s] == tp for r in ranks if r > rank)]
        assert len(tied) >= 20 * (len(ranks) > 1)  # a higher rank tied the winner
        if two_row and len(ranks) > 1:  # a rank at its bound was rated, tied and won
            assert any(want[s][0] == want[s][1] * 2.0 for s in tied)

    @pytest.mark.parametrize("ranks, two_row", _CHOOSE_CASES, ids=_CHOOSE_IDS)
    def test_rates_a_slot_exactly_when_it_can_reach_the_best(self, ranks, two_row):
        """rate(rank, slots) is called highest rank first, for exactly the
        slots where the best rating of the ranks above is at most rank x the
        top efficiency: slice(None) when that is every slot, an index array
        when it is some, and no call when it is none."""
        table = _TWO_ROW if two_row else CqiTable.default()
        ratings = _tied_ratings(sum(ranks) + 10 * two_row, ranks, table, 400)
        calls = []

        def rate(rank, slots):
            calls.append((rank, slots))
            return ratings[rank][slots]

        _choose(ranks, rate, 400, table)
        above, want = np.zeros(400), []
        for rank in sorted(ranks, reverse=True):
            live = above <= rank * table.spectral_efficiency[-1]
            if live.any():
                want.append((rank, slice(None) if live.all() else np.flatnonzero(live)))
            above = np.maximum(above, _peak(rank, ratings[rank], table))
        assert [r for r, _ in calls] == [r for r, _ in want]
        for (rank, got), (_, slots) in zip(calls, want):
            if isinstance(slots, slice):
                assert got == slice(None), rank
            else:
                assert isinstance(got, np.ndarray) and np.array_equal(got, slots), rank
        if len(ranks) > 1:  # the bound skipped a rank in some slots but not all
            assert any(isinstance(slots, np.ndarray) for _, slots in calls)


def test_type2_rank_bound_4x1(monkeypatch):
    """Type II ranks go through the same bound: on the 4x1 panel with 4 rx
    and 13 subbands, rank 1 is rated in none of 39 slots at 10 dB, where
    rank 2 beats all that rank 1 can reach, and in every slot at -10 dB.
    Each slot's report still equals the stage-2 oracle."""
    space = _selector(AntennaConfig(4, 1), "type2")
    table = CqiTable.default()
    rng = np.random.default_rng(90)
    for snr_db, want in ((10.0, [2]), (-10.0, [2, 1])):
        h = _rand_h(rng, 39 * 13 * 4, 8).reshape(39, 13, 4, 8)
        nv = 10.0 ** (-snr_db / 10.0)
        calls = []

        def choose(ranks, rate, num_slots, table):
            def spy(rank, slots):
                calls.append((rank, slots))
                return rate(rank, slots)
            return _choose(ranks, spy, num_slots, table)

        monkeypatch.setattr(csi, "_choose", choose)
        _select_type2(h, nv, space, table)
        monkeypatch.undo()
        assert [(rank, isinstance(slots, slice)) for rank, slots in calls] == [
            (rank, True) for rank in want], snr_db
        for h_k in h:
            report = select_csi(h_k, nv, space, table)
            assert report == _select_type2_stage2_reference(h_k, nv, space, table,
                                                            report.pmi.i11, report.pmi.i12)


@pytest.mark.parametrize("layout", sorted(_OVERSAMPLING))
def test_gram_plan_shift_rows_are_distinct(layout):
    """Every beam-product plane is formed once: no two shift rows of
    _gram_plan move the beams alike. Offset differences equal modulo the
    grid share a row, so 2x1, 4x1, 2x2 and 4x2 need 2, 4, 4 and 5."""
    cfg = AntennaConfig(*layout)
    cbs = _selector(cfg, "type1")
    shifts, _ = csi._gram_plan(tuple(cbs[r] for r in sorted(cbs)))
    assert len(np.unique(shifts, axis=0)) == len(shifts)
    counts = {(2, 1): 2, (4, 1): 4, (2, 2): 4, (4, 2): 5}
    if layout in counts:
        assert len(shifts) == counts[layout]


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
            assert len(report.pmi.subband_cophase[0]) == num_sb
            w = realize_type2_precoder(space, report.pmi)
            cqi = _map_cqi(_precoded_sinr(h, w, nv), table)
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
            rank1_rate = table.efficiency(_map_cqi(_precoded_sinr(h, w, nv), table))
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


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("n1, n2", [(2, 1), (4, 1), (4, 2)])
def test_block_selection_matches_select_csi(n1, n2, family):
    """Selecting a block of slots at once gives each slot select_csi's
    report for that slot alone, exactly: RI, PMI, CQI and predicted
    throughput, on 1-4 rx and 1-13 subbands from -10 to 30 dB. The block's
    index arrays are the reported PMI's fields, each slot's SINR is the
    one a block of that slot alone reports, and its precoder w, cut to
    the reported rank, is the PMI's precoder (Type I's precoders of the
    reported entry on the one wideband subband, bit for bit; Type II's
    realize_type2_precoder) and 0 past it."""
    cfg = AntennaConfig(n1, n2)
    ov = oversampling_factors(cfg)
    if family == "type1":
        selector = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
    else:
        selector = build_type2_structure(cfg, Type2Config(min(4, n1 * n2), 8), ov)
    table = CqiTable.default()
    rng = np.random.default_rng(100 * n1 + 10 * n2 + (family == "type2"))
    ranks = set()
    for num_rx in (1, 2, 3, 4):
        for snr_db in (-10.0, 0.0, 15.0, 30.0):
            num_sb = int(rng.integers(1, 14))
            h = np.stack([[_rand_h(rng, num_rx, cfg.num_ports) for _ in range(num_sb)]
                          for _ in range(5)])
            nv = 10.0 ** (-snr_db / 10.0)
            select = _select_type1 if family == "type1" else _select_type2
            sinr, ri, cqi, w, indices = select(h, nv, selector, table)
            for s in range(len(h)):
                report = select_csi(h[s], nv, selector, table)
                pmi = report.pmi
                tp = ri[s] * table.efficiency(cqi[s])
                assert (ri[s], cqi[s], tp) == (report.ri, report.cqi, report.predicted_throughput)
                assert sinr[s] == select(h[s:s + 1], nv, selector, table)[0][0]
                if family == "type1":
                    i11, i12, i13, i2 = (a[s] for a in indices)
                    assert (i11, i12, i13, (i2,) * num_sb) == (pmi.i11, pmi.i12, pmi.i13,
                                                              pmi.i2_per_subband)
                    cb = selector[report.ri]
                    want = cb.precoders([cb.index_of_pmi(pmi)])
                    assert w[s, ..., :ri[s]].tobytes() == want.tobytes()
                else:
                    i11, i12, *layers = (a[s] for a in indices)
                    assert (tuple(i11), i12) == (pmi.i11, pmi.i12)
                    for got, field in zip(layers, ("wideband_amplitudes", "subband_cophase",
                                                   "subband_amplitude")):
                        assert np.array_equal(got[:ri[s]], getattr(pmi, field))
                    want = realize_type2_precoder(selector, pmi)
                assert np.array_equal(w[s, ..., :ri[s]], want)
                assert np.all(w[s, ..., ri[s]:] == 0)
                ranks.add(report.ri)
    assert ranks == ({1, 2, 3, 4} if family == "type1" else {1, 2})


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("n1, n2", [(4, 1), (4, 2), (2, 2)])
def test_block_sinr_is_the_winners_precoded_sinr(n1, n2, family, monkeypatch):
    """Each slot's SINR in the report block is the effective SINR of the
    reported precoder w[..., :ri] on the channel it was selected on, as
    _precoded_sinr computes it, on 2 and 4 rx from -10 to 40 dB: exactly for
    Type II, which rates through _precoded_sinr, and within 1e-12 relative
    for Type I, whose beam-Gram rating rounds differently. It is the chosen
    candidate's SINR, the first index of the best CQI, and not the largest of
    the winning rank: in some Type I slots those differ."""
    cfg = AntennaConfig(n1, n2)
    selector = _selector(cfg, family)
    select = _select_type1 if family == "type1" else _select_type2
    table = CqiTable.default()
    rng = np.random.default_rng(200 + 10 * n1 + n2 + (family == "type2"))
    below_rank_max = 0
    for num_rx, snr_db in itertools.product((2, 4), range(-10, 45, 10)):
        h = _rand_h(rng, 6 * 3 * num_rx, cfg.num_ports).reshape(6, 3, num_rx, cfg.num_ports)
        nv = 10.0 ** (-snr_db / 10.0)
        sinr, ri, cqi, w, _ = select(h, nv, selector, table)
        want = np.array([_precoded_sinr(h[s], w[s, ..., :ri[s]], nv) for s in range(len(h))])
        if family == "type2":
            assert np.array_equal(sinr, want), (num_rx, snr_db)
        else:
            assert np.allclose(sinr, want, rtol=1e-12, atol=0.0), (num_rx, snr_db)
            ratings = dict(_ratings(monkeypatch, selector, h, nv))
            below_rank_max += sum(sinr[s] < ratings[ri[s]][s].max() for s in range(len(h)))
    assert below_rank_max > 0 or family == "type2"


def _selector(cfg, family):
    """The Type I codebooks of ranks 1-4, or the 4-beam, 8-PSK Type II
    structure, of panel cfg."""
    ov = oversampling_factors(cfg)
    if family == "type1":
        return {r: build_type1_codebook(cfg, r, ov) for r in (1, 2, 3, 4)}
    return build_type2_structure(cfg, Type2Config(4, 8), ov)


class TestBatchIndependence:
    """A slot's effective SINR has the same bits whichever batch it is rated
    in: every layer is summed over its contiguous subband axis, then the
    layers are added in index order."""

    @pytest.mark.parametrize("num_sb", [1, 3, 13, 52])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_precoded_sinr_matches_slots_alone(self, rank, num_sb):
        """_precoded_sinr of a 40-slot batch equals each slot rated alone,
        exactly, for per-subband and wideband precoders at 0 and 20 dB."""
        rng = np.random.default_rng(40 + 10 * rank + num_sb)
        h = _rand_h(rng, 40 * num_sb * 4, 8).reshape(40, num_sb, 4, 8)
        for w_sb in (num_sb, 1):
            w = _rand_h(rng, 40 * w_sb * 8, rank).reshape(40, w_sb, 8, rank) / math.sqrt(8 * rank)
            for nv in (1.0, 0.01):
                batch = _precoded_sinr(h, w, nv)
                alone = [_precoded_sinr(h[k:k + 1], w[k:k + 1], nv)[0] for k in range(len(h))]
                assert np.array_equal(batch, alone), (w_sb, nv)

    @pytest.mark.parametrize("family", ["type1", "type2"])
    @pytest.mark.parametrize("n1, n2", [(4, 1), (2, 2), (4, 2)])
    def test_selection_ratings_match_slots_alone(self, n1, n2, family, monkeypatch):
        """Every Type I entry's and every Type II rank's rating of a 6-slot
        block equals that slot's rating alone, exactly, on 2 and 4 rx, 3
        and 13 subbands, at 0 and 20 dB."""
        cfg = AntennaConfig(n1, n2)
        selector = _selector(cfg, family)
        rng = np.random.default_rng(50 + 10 * n1 + n2)
        for num_rx, num_sb, snr_db in itertools.product((2, 4), (3, 13), (0.0, 20.0)):
            h = _rand_h(rng, 6 * num_sb * num_rx, cfg.num_ports).reshape(
                6, num_sb, num_rx, cfg.num_ports)
            nv = 10.0 ** (-snr_db / 10.0)
            block = _ratings(monkeypatch, selector, h, nv)
            for k in range(len(h)):
                alone = _ratings(monkeypatch, selector, h[k:k + 1], nv)
                assert [r for r, _ in block] == [r for r, _ in alone]
                for (rank, got), (_, want) in zip(block, alone):
                    assert np.array_equal(got[k], want[0]), (num_rx, num_sb, snr_db, rank, k)


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("n1, n2", [(4, 1), (4, 2)])
def test_large_scale_channel_keeps_its_report(n1, n2, family):
    """A channel scaled by 1e100 at 1e200 times the noise variance reports
    the unscaled channel's (RI, CQI), with no floating-point exception: the
    MMSE errors come from a sweep that takes no determinant."""
    cfg = AntennaConfig(n1, n2)
    selector = _selector(cfg, family)
    table = CqiTable.default()
    rng = np.random.default_rng(60 + n2)
    ranks = set()
    for nv in (10.0, 0.1):
        for _ in range(10):
            h = np.stack([_rand_h(rng, 4, cfg.num_ports) for _ in range(3)])
            want = select_csi(h, nv, selector, table)
            with np.errstate(all="raise"):
                got = select_csi(h * 1e100, nv * 1e200, selector, table)
            assert (got.ri, got.cqi) == (want.ri, want.cqi)
            ranks.add(want.ri)
    assert 2 in ranks


@pytest.mark.xfail(strict=True, reason="Type II ties: with B = n1*n2 every stage-1 rotation scores "
                                       "the whole channel power, and quantize_phases' rotations "
                                       "near 0 and 2*pi/N_PSK give equal correlation one PSK step "
                                       "apart, so rounding picks the reported winner")
def test_type2_report_survives_one_ulp():
    """Moving every real part of h up one ulp leaves the Type II (RI, PMI,
    CQI) unchanged: on the 4x1 panel with B = n1*n2 = 4, where both ties
    show, and on the 4x2 panel, where the co-phase tie shows."""
    table = CqiTable.default()
    rng = np.random.default_rng(70)
    changed = {}
    for n1, n2 in ((4, 1), (4, 2)):
        cfg = AntennaConfig(n1, n2)
        space = build_type2_structure(cfg, Type2Config(4, 8), oversampling_factors(cfg))
        changed[n1, n2] = 0
        for _ in range(10):
            h = np.stack([_rand_h(rng, 4, cfg.num_ports) for _ in range(3)])
            want = select_csi(h, 1.0, space, table)
            got = select_csi(np.nextafter(h.real, np.inf) + 1j * h.imag, 1.0, space, table)
            changed[n1, n2] += (got.ri, got.pmi, got.cqi) != (want.ri, want.pmi, want.cqi)
    assert changed == {(4, 1): 0, (4, 2): 0}


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
    tp, rank, _, cqi = _first_best(rated, table)
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
