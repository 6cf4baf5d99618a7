"""End-to-end acceptance checks.

Each test prints one PASS line (visible with -rA) and enforces its stated
tolerance and runtime budget. The throughput-region test runs the full
8-port/4-rx comparison once per session at 1000 slots with paired seeds; it
asserts the qualitative SNR regions: near-coincident curves at low SNR, a
contiguous mid-SNR band where the linear-combination codebook wins, and a
high-SNR band where the beam-selection codebook wins on rank.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nrsim import (
    AntennaConfig,
    ChannelConfig,
    CodebookMode,
    CqiTable,
    Scenario,
    SweepConfig,
    Type2Config,
    build_type1_codebook,
    build_type2_structure,
    compare_modes,
    dft_beam,
    expected_overhead,
    oversampling_factors,
    quantize_phases,
    run_sweep,
    select_csi,
    type1_overhead_bits,
    type2_overhead_bits,
    write_sweep_csv,
)
from oracles import brute_force_type1, mimo_capacity

SNR_GRID = tuple(float(s) for s in range(-10, 45, 5))
NUM_SLOTS = 1000
SEED = 2026


def _tradeoff_configs():
    antenna = AntennaConfig(4, 1)
    channel = ChannelConfig(num_tx_ports=8, num_rx_ports=4)  # CDL-A, 5 Hz, 100 ns defaults
    scenario = Scenario(antenna=antenna, channel=channel, type2=Type2Config(num_beams=4, n_psk=8))
    base = dict(scenario=scenario, snr_points_db=SNR_GRID, num_slots=NUM_SLOTS,
                feedback_delay_slots=1, seed=SEED)
    return [
        SweepConfig(codebook_mode=CodebookMode.TYPE1, **base),
        SweepConfig(codebook_mode=CodebookMode.TYPE2, **base),
        SweepConfig(codebook_mode=CodebookMode.SVD_IDEAL, **base),
    ]


@pytest.fixture(scope="module")
def tradeoff_run():
    start = time.perf_counter()
    comparison = compare_modes(_tradeoff_configs())
    elapsed = time.perf_counter() - start
    return comparison, elapsed


def test_overhead_worked_examples():
    start = time.perf_counter()
    cfg8 = AntennaConfig(4, 1)
    ov8 = oversampling_factors(cfg8)
    assert type1_overhead_bits(build_type1_codebook(cfg8, 1, ov8), 1).total_bits == 6
    assert type1_overhead_bits(build_type1_codebook(cfg8, 2, ov8), 1).total_bits == 7
    space8 = build_type2_structure(cfg8, Type2Config(4, 8), ov8)
    assert type2_overhead_bits(space8, 1, 1).total_bits == 60
    cfg4 = AntennaConfig(2, 1)
    space4 = build_type2_structure(cfg4, Type2Config(2, 4), oversampling_factors(cfg4))
    assert type2_overhead_bits(space4, 1, 1).total_bits == 27
    assert abs(expected_overhead([0.5, 0.5], [6, 8]) - 7.0) <= 1e-12
    assert abs(expected_overhead([0.25, 0.75], [4, 8]) - 7.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS overhead worked examples exact, expectations within 1e-12 ({elapsed:.3f}s)")


def test_codebook_invariants():
    start = time.perf_counter()
    cfg = AntennaConfig(4, 1)
    ov = oversampling_factors(cfg)
    grid = cfg.n1 * ov.o1 * cfg.n2 * ov.o2
    for rank in (1, 2, 3, 4):
        cb = build_type1_codebook(cfg, rank, ov)
        want = grid * 4 if rank == 1 else grid * 4 * 2
        assert len(cb) == want
        w = cb.precoders(np.arange(len(cb)))
        gram = np.einsum("epr,eps->ers", w.conj(), w)
        assert np.max(np.abs(gram - np.eye(rank) / rank)) <= 1e-9
    for x1, x2 in itertools.product(range(cfg.n1), range(cfg.n2)):
        if (x1, x2) == (0, 0):
            continue
        inner = np.vdot(dft_beam(1, 0, cfg, ov), dft_beam(1 + ov.o1 * x1, ov.o2 * x2, cfg, ov))
        assert abs(inner) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS codebook norms/orthogonality 1e-9, cardinalities, subgrid ({elapsed:.3f}s)")


def test_svd_capacity_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        num_rx = int(rng.integers(1, 5))
        num_tx = int(rng.integers(1, 9))
        h = (rng.standard_normal((num_rx, num_tx))
             + 1j * rng.standard_normal((num_rx, num_tx))) / math.sqrt(2.0)
        u, sigma, vh = np.linalg.svd(h)
        k = min(num_rx, num_tx)
        recon = u[:, :k] @ np.diag(sigma) @ vh[:k]
        assert np.linalg.norm(recon - h) <= 1e-9 * max(np.linalg.norm(h), 1e-30)
        nv = float(rng.uniform(0.05, 20.0))
        cap = mimo_capacity(sigma, nv)
        direct = float(np.log2(np.linalg.det(np.eye(num_rx) + h @ h.conj().T / nv).real))
        assert abs(cap - direct) <= 1e-9
        assert len(sigma) == k
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS SVD reconstruction and log-det identity on 1000 channels ({elapsed:.3f}s)")


def test_selection_matches_brute_force():
    cfg = AntennaConfig(2, 1)
    ov = oversampling_factors(cfg)
    codebooks = {r: build_type1_codebook(cfg, r, ov) for r in (1, 2)}
    table = CqiTable.default()
    rng = np.random.default_rng(7)
    mismatches = 0
    instances = 100
    for _ in range(instances):
        num_rx = int(rng.integers(1, 5))
        num_sb = int(rng.integers(1, 5))
        nv = float(rng.uniform(0.02, 50.0))
        h = (rng.standard_normal((num_sb, num_rx, 4))
             + 1j * rng.standard_normal((num_sb, num_rx, 4))) / math.sqrt(2.0)
        report = select_csi(h, nv, codebooks, table)
        metric, rank, idx, cqi = brute_force_type1(h, nv, codebooks, table)
        same = (report.ri == rank
                and codebooks[rank].index_of_pmi(report.pmi) == idx
                and report.cqi == cqi
                and abs(report.predicted_throughput - metric) <= 1e-12)
        mismatches += 0 if same else 1
    assert mismatches == 0
    print(f"PASS selection equals brute-force argmax on {instances} instances, 0 mismatches")


def test_phase_refinement_never_degrades():
    rng = np.random.default_rng(11)
    violations = 0
    targets = 1000
    for _ in range(targets):
        m = int(rng.integers(1, 9))
        target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        amps = rng.uniform(0.0, 1.0, m)
        c4 = quantize_phases(target, amps, 4)
        c8 = quantize_phases(target, amps, 8)
        v4 = abs(np.vdot(target, amps * np.exp(2j * np.pi * c4 / 4)))
        v8 = abs(np.vdot(target, amps * np.exp(2j * np.pi * c8 / 8)))
        if v8 < v4 - 1e-12:
            violations += 1
    assert violations == 0
    print(f"PASS phase-grid refinement 4->8 non-decreasing on {targets} targets, 0 violations")


def test_throughput_regions_8x4(tradeoff_run):
    comparison, elapsed = tradeoff_run
    t1, t2 = comparison.results[0], comparison.results[1]
    tp1 = np.asarray([pt.mean_throughput for pt in t1.points])
    tp2 = np.asarray([pt.mean_throughput for pt in t2.points])
    full_scale = max(tp1.max(), tp2.max())
    lines = []

    # (a) Low SNR: the curves coincide within 5% of full scale at every
    # point <= 0 dB.
    low = [i for i, s in enumerate(SNR_GRID) if s <= 0.0]
    low_gaps = {SNR_GRID[i]: abs(tp2[i] - tp1[i]) for i in low}
    a_ok = all(gap <= 0.05 * full_scale for gap in low_gaps.values())
    gaps_txt = ", ".join(f"{s:g} dB: {g / full_scale:.1%}" for s, g in low_gaps.items())
    lines.append(f"  (a) low-SNR gaps vs 5.0% of full scale -> {gaps_txt}: "
                 f"{'PASS' if a_ok else 'FAIL'}")

    # (b) A contiguous band of >= 6 dB where the linear-combination codebook
    # is at least as good (>= 3 consecutive points on the 5 dB grid).
    wins = tp2 >= tp1
    best_run = 0
    run = 0
    for w in wins:
        run = run + 1 if w else 0
        best_run = max(best_run, run)
    b_ok = (best_run - 1) * 5.0 >= 6.0
    lines.append(f"  (b) longest win band {(best_run - 1) * 5.0:g} dB (need >= 6): "
                 f"{'PASS' if b_ok else 'FAIL'}")

    # (c) High SNR (>= 30 dB): beam selection wins; its rank mass is >= 50%
    # on ranks 3-4 while the rank-capped codebook sits entirely on ranks 1-2.
    c_ok = True
    for i, snr in enumerate(SNR_GRID):
        if snr < 30.0:
            continue
        hi_mass = sum(f for r, f in t1.points[i].ri_histogram.items() if r >= 3)
        lo_mass = sum(f for r, f in t2.points[i].ri_histogram.items() if r <= 2)
        c_ok &= tp1[i] > tp2[i] and hi_mass >= 0.5 and abs(lo_mass - 1.0) <= 1e-12
    lines.append(f"  (c) high-SNR ordering and rank masses: {'PASS' if c_ok else 'FAIL'}")

    runtime_ok = elapsed < 600.0
    lines.append(f"  runtime {elapsed:.1f}s (budget 600s): {'PASS' if runtime_ok else 'FAIL'}")
    report = "\n".join(lines)
    print(report)
    assert b_ok and c_ok and runtime_ok, "\n" + report
    assert a_ok, "\n" + report
    print("PASS throughput regions reproduced at 1000 slots, paired seeds")


def test_monotone_and_deterministic(tradeoff_run, tmp_path):
    comparison, _ = tradeoff_run
    for res in comparison.results:
        tp = [pt.mean_throughput for pt in res.points]
        se = [pt.se_mean_throughput for pt in res.points]
        for i in range(len(tp) - 1):
            slack = 2.0 * math.sqrt(se[i] ** 2 + se[i + 1] ** 2)
            assert tp[i + 1] >= tp[i] - slack, (
                f"{res.mode.value}: throughput drops {tp[i]:.4f} -> {tp[i + 1]:.4f} "
                f"beyond 2 SE at {res.points[i + 1].snr_db} dB"
            )
    rerun = run_sweep(_tradeoff_configs()[0])
    assert rerun.points == comparison.results[0].points
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv([comparison.results[0]], first)
    write_sweep_csv([rerun], second)
    assert first.read_bytes() == second.read_bytes()
    print("PASS monotone within 2 SE; repeated seeded run byte-identical")


def test_overhead_internal_consistency(tradeoff_run):
    comparison, _ = tradeoff_run
    antenna = AntennaConfig(4, 1)
    ov = oversampling_factors(antenna)
    num_sb = 13
    for res in comparison.results[:2]:
        for pt in res.points:
            ranks = sorted(pt.ri_histogram)
            probs = [pt.ri_histogram[r] for r in ranks]
            if res.mode is CodebookMode.TYPE1:
                bits = [type1_overhead_bits(build_type1_codebook(antenna, r, ov), num_sb).total_bits
                        for r in ranks]
            else:
                space = build_type2_structure(antenna, Type2Config(4, 8), ov)
                bits = [type2_overhead_bits(space, r, num_sb).total_bits for r in ranks]
            assert pt.mean_overhead_bits == expected_overhead(probs, bits)
    print("PASS reported mean overhead equals the expectation over the rank histogram")
