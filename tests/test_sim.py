"""Sweep engine: scoring, aggregation, pairing, determinism, CSV output."""

import csv
import math
import multiprocessing
import tracemalloc
import types
import warnings
from collections import Counter
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import nrsim.channel as nrsim_channel
import nrsim.csi as csi
import nrsim.sim as sim
from nrsim import (
    AntennaConfig,
    ChannelConfig,
    Codebook,
    CodebookMode,
    CqiTable,
    Scenario,
    SweepConfig,
    Type2Config,
    build_type1_codebook,
    build_type2_structure,
    compare_modes,
    expected_overhead,
    generate_channel,
    load_pdp_file,
    oversampling_factors,
    realize_type2_precoder,
    run_sweep,
    select_csi,
    type1_overhead_bits,
    type2_overhead_bits,
    write_cqi_hist_csv,
    write_ri_hist_csv,
    write_sweep_csv,
)
from nrsim.csi import _logdet_capacity, _precoded_sinr
from nrsim.sim import _run_point
from oracles import mimo_capacity


def _failing_point(cfg, point_idx):
    """sim._run_point, except that the Type I sweep's second point raises;
    module-level, so that it pickles to pool workers."""
    if cfg.codebook_mode is CodebookMode.TYPE1 and point_idx == 1:
        raise RuntimeError("type1 point 1 failed")
    return _run_point(cfg, point_idx)


def _mini_scenario(num_rx=2, doppler=5.0, subbands=3, panel=(2, 1)):
    antenna = AntennaConfig(*panel)
    channel = ChannelConfig(
        num_tx_ports=antenna.num_ports, num_rx_ports=num_rx,
        doppler_hz=doppler, num_subbands=subbands,
    )
    return Scenario(antenna=antenna, channel=channel, type2=Type2Config(num_beams=2))


def _mini_config(mode=CodebookMode.TYPE1, snr=(0.0, 10.0), slots=40, delay=1, seed=3, **kw):
    return SweepConfig(
        scenario=_mini_scenario(**kw), snr_points_db=snr, num_slots=slots,
        feedback_delay_slots=delay, codebook_mode=mode, seed=seed,
    )


_PANEL = AntennaConfig(2, 1)
_type1_codebook = lambda: build_type1_codebook(_PANEL, 1, oversampling_factors(_PANEL))
_type2_space = lambda: build_type2_structure(_PANEL, Type2Config(num_beams=2),
                                             oversampling_factors(_PANEL))

# Each count input, by "owner.field", as a function of its value.
_COUNTS = {
    "AntennaConfig.n1": lambda v: AntennaConfig(v, 1),
    "AntennaConfig.n2": lambda v: AntennaConfig(2, v),
    "ChannelConfig.num_tx_ports": lambda v: ChannelConfig(num_tx_ports=v, num_rx_ports=2),
    "ChannelConfig.num_rx_ports": lambda v: ChannelConfig(num_tx_ports=4, num_rx_ports=v),
    "ChannelConfig.num_subbands": lambda v: ChannelConfig(num_tx_ports=4, num_rx_ports=2,
                                                          num_subbands=v),
    "SweepConfig.num_slots": lambda v: _mini_config(slots=v),
    "SweepConfig.feedback_delay_slots": lambda v: _mini_config(delay=v),
    "SweepConfig.seed": lambda v: _mini_config(seed=v),
    "type1_overhead_bits.num_subbands": lambda v: type1_overhead_bits(_type1_codebook(), v),
    "type2_overhead_bits.layers": lambda v: type2_overhead_bits(_type2_space(), v, 13),
    "type2_overhead_bits.num_subbands": lambda v: type2_overhead_bits(_type2_space(), 1, v),
}


class TestConfigValidation:
    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name", sorted(_COUNTS))
    def test_count_must_be_integer(self, name, value):
        """A bool or a non-integer count is refused by name where it enters,
        not accepted (AntennaConfig(2.0, 1) had 4.0 ports, a 2.5-subband
        Type I report 8.5 bits) or failed late in a sweep's pool worker."""
        field = name.split(".")[1]
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            _COUNTS[name](value)

    @pytest.mark.parametrize("name", sorted(_COUNTS))
    def test_count_accepts_numpy_integer(self, name):
        assert _COUNTS[name](np.int64(2)) == _COUNTS[name](2)

    def test_scenario_port_mismatch(self):
        with pytest.raises(ValueError, match="ports"):
            Scenario(
                antenna=AntennaConfig(2, 1),
                channel=ChannelConfig(num_tx_ports=8, num_rx_ports=2),
            )

    def test_default_cqi_table(self):
        assert _mini_scenario().cqi_table == CqiTable.default()

    def test_empty_snr(self):
        with pytest.raises(ValueError):
            _mini_config(snr=())

    def test_unsorted_snr(self):
        with pytest.raises(ValueError):
            _mini_config(snr=(10.0, 0.0))

    def test_zero_slots(self):
        with pytest.raises(ValueError):
            _mini_config(slots=0)

    def test_delay_consumes_all_slots(self):
        with pytest.raises(ValueError):
            _mini_config(slots=5, delay=5)

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            _mini_config(delay=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "doppler_hz", "delay_spread_ns", "subband_spacing_hz", "slot_duration_s",
        "pdp", "snr_points_db", "power_db",
    ])
    def test_non_finite_rejected(self, field, value, tmp_path):
        """Each non-finite setting raises a ValueError naming its field."""
        def build():
            if field == "pdp":
                ChannelConfig(num_tx_ports=4, num_rx_ports=2, pdp=((0.0, 0.5), (1.0, value)))
            elif field == "snr_points_db":
                _mini_config(snr=(0.0, value))
            elif field == "power_db":
                path = tmp_path / "profile.txt"
                path.write_text(f"0 0\n100 {value}\n")
                load_pdp_file(path)
            else:
                ChannelConfig(num_tx_ports=4, num_rx_ports=2, **{field: value})

        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("doppler_hz, slot_duration_s", [(1e308, 10.0), (1e200, 1e200)])
    def test_jakes_argument_overflow_rejected(self, doppler_hz, slot_duration_s):
        """Finite fields whose Jakes argument 2*pi*f_d*T overflows raise a
        ValueError naming both fields, not a math error in the sweep."""
        with pytest.raises(ValueError, match="doppler_hz.*slot_duration_s.*must be finite"):
            ChannelConfig(num_tx_ports=4, num_rx_ports=2, doppler_hz=doppler_hz,
                          slot_duration_s=slot_duration_s)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            _mini_config(seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_channel(_mini_scenario().channel, 2, -1)

    @pytest.mark.parametrize("snr_db", [-3000.0, 3000.0, -1000.5, 1000.5])
    def test_snr_beyond_limit_rejected(self, snr_db):
        """Points past +/-1000 dB, where the noise power or the MMSE
        determinant overflows, raise a ValueError naming the field."""
        with pytest.raises(ValueError, match="snr_points_db must be finite and within"):
            _mini_config(snr=(0.0, snr_db) if snr_db > 0 else (snr_db, 0.0))

    def test_type2_beams_must_fit_panel(self):
        """In Type II mode the sweep config refuses more beams than the
        panel's n1*n2 orthogonal beams; Type I mode ignores the Type II
        settings."""
        scenario = replace(_mini_scenario(), type2=Type2Config(num_beams=3))  # 2x1 panel
        with pytest.raises(ValueError, match="num_beams=3 exceeds the 2 orthogonal beams"):
            SweepConfig(scenario=scenario, snr_points_db=(0.0,),
                        codebook_mode=CodebookMode.TYPE2)
        SweepConfig(scenario=scenario, snr_points_db=(0.0,), codebook_mode=CodebookMode.TYPE1)

    def test_type2_mode_needs_config(self):
        scenario = Scenario(
            antenna=AntennaConfig(2, 1),
            channel=ChannelConfig(num_tx_ports=4, num_rx_ports=2),
        )
        with pytest.raises(ValueError):
            SweepConfig(scenario=scenario, snr_points_db=(0.0,),
                        codebook_mode=CodebookMode.TYPE2)


class TestRunSweep:
    def test_noise_floor(self):
        res = run_sweep(_mini_config(snr=(-30.0,), slots=60))
        pt = res.points[0]
        assert pt.mean_throughput <= 0.1523 + 1e-12
        assert set(pt.cqi_histogram) <= {0, 1}

    def test_no_aging_means_no_failures(self):
        cfg = _mini_config(snr=(0.0, 10.0), slots=30, delay=0, doppler=0.0)
        res = run_sweep(cfg)
        for pt in res.points:
            assert pt.slots_failed == 0.0

    def test_snr_limits_run_clean(self, monkeypatch):
        """At the +/-1000 dB limits every mode runs without a numpy warning:
        nothing is scheduled at -1000 dB, and every value is finite at
        +1000 dB."""
        monkeypatch.setenv("NRSIM_THREADS", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in CodebookMode:
                cfg = _mini_config(mode=mode, snr=(-1000.0, 1000.0), slots=6)
                low, high = run_sweep(cfg).points
                assert low.mean_throughput == 0.0
                assert high.mean_throughput > 0.0
                assert all(map(math.isfinite, (high.mean_throughput, high.se_mean_throughput,
                                               high.mean_throughput_mbps, high.mean_overhead_bits)))

    def test_histograms_normalized(self):
        for mode in (CodebookMode.TYPE1, CodebookMode.TYPE2, CodebookMode.SVD_IDEAL):
            res = run_sweep(_mini_config(mode=mode, slots=30))
            for pt in res.points:
                assert sum(pt.ri_histogram.values()) == pytest.approx(1.0, abs=1e-9)
                assert sum(pt.cqi_histogram.values()) == pytest.approx(1.0, abs=1e-9)
                assert all(0.0 <= v <= 1.0 for v in pt.ri_histogram.values())

    def test_rank_support_caps(self):
        t1 = run_sweep(_mini_config(snr=(25.0,), slots=30))
        t2 = run_sweep(_mini_config(mode=CodebookMode.TYPE2, snr=(25.0,), slots=30))
        assert all(1 <= r <= 2 for r in t1.points[0].ri_histogram)
        assert all(1 <= r <= 2 for r in t2.points[0].ri_histogram)

    def test_svd_reference_point(self):
        res = run_sweep(_mini_config(mode=CodebookMode.SVD_IDEAL, slots=30))
        for pt in res.points:
            assert pt.ri_histogram == {2: 1.0}
            assert pt.cqi_histogram == {0: 1.0}
            assert pt.mean_overhead_bits == 0.0
            assert pt.slots_failed == 0.0

    # The mini scenario's channel block: 2 rx, 4 tx, the 23 CDL-A taps.
    _B = nrsim_channel._block_slots(len(_mini_scenario().channel.pdp), 2, 4)

    @pytest.mark.parametrize("slots", [3, 17, 18, _B - 1, _B, _B + 1, _B + 2, 2 * _B + 1,
                                       2 * _B + 8, 131])
    def test_svd_blocks_match_one_pass(self, slots):
        """Scoring the SVD bound window by window, across channel-block
        boundaries and at feedback delays 0, 1 and 7, gives the bytes of one
        log-det pass over every delayed slot of the whole trajectory."""
        for delay in (d for d in (0, 1, 7) if slots - d >= 2):
            cfg = _mini_config(mode=CodebookMode.SVD_IDEAL, snr=(5.0,), slots=slots, delay=delay)
            h = generate_channel(cfg.scenario.channel, slots, sim._derive_point_seed(cfg.seed, 0))
            capacity = _logdet_capacity(h[delay:], 10.0 ** -0.5).mean(axis=-1)
            got = sim._run_point(cfg, 0)
            assert got.mean_throughput == float(capacity.mean()), delay
            assert got.se_mean_throughput == float(
                capacity.std(ddof=1) / math.sqrt(slots - delay)), delay

    @pytest.mark.parametrize("slots", [1000, 4000])
    def test_svd_point_working_memory_independent_of_slots(self, slots):
        """An SVD point at 52 subbands and 8x4 ports peaks at the same memory,
        its channel counted, at a tenth of the slots and at all of them:
        within 1 MB, and under 2 MB (about 0.7 MB: a window of channel
        slots, the generator's temporary tap block, and the per-slot
        capacities, 32 kB at 4000 slots; with the generator's retained tap
        and response blocks it was 1.1 MB). The whole channel array took
        26.6 MB at 1000 slots and 106 MB at 4000."""
        antenna = AntennaConfig(4, 1)
        channel = ChannelConfig(num_tx_ports=8, num_rx_ports=4, num_subbands=52)
        peaks = []
        for num_slots in (slots // 10, slots):
            cfg = SweepConfig(scenario=Scenario(antenna=antenna, channel=channel),
                              snr_points_db=(10.0,), num_slots=num_slots,
                              codebook_mode=CodebookMode.SVD_IDEAL)
            tracemalloc.start()
            try:
                sim._run_point(cfg, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6
        assert max(peaks) < 2e6

    def test_svd_upper_bounds_type1(self):
        ideal = run_sweep(_mini_config(mode=CodebookMode.SVD_IDEAL, slots=50))
        quant = run_sweep(_mini_config(mode=CodebookMode.TYPE1, slots=50))
        for a, b in zip(ideal.points, quant.points):
            assert a.mean_throughput >= b.mean_throughput >= 0.0

    def test_mbps_scaling(self):
        res = run_sweep(_mini_config(slots=30, subbands=3))
        for pt in res.points:
            want = pt.mean_throughput * 3 * 720e3 / 1e6
            assert pt.mean_throughput_mbps == pytest.approx(want, rel=1e-12)

    def test_deterministic(self):
        cfg = _mini_config(slots=40)
        assert run_sweep(cfg).points == run_sweep(cfg).points

    def test_overhead_equals_expectation_over_ri(self):
        antenna = AntennaConfig(2, 1)
        ov = oversampling_factors(antenna)
        for mode in (CodebookMode.TYPE1, CodebookMode.TYPE2):
            res = run_sweep(_mini_config(mode=mode, slots=50))
            for pt in res.points:
                ranks = sorted(pt.ri_histogram)
                probs = [pt.ri_histogram[r] for r in ranks]
                if mode is CodebookMode.TYPE1:
                    bits = [type1_overhead_bits(build_type1_codebook(antenna, r, ov), 3).total_bits
                            for r in ranks]
                else:
                    space = build_type2_structure(antenna, Type2Config(num_beams=2), ov)
                    bits = [type2_overhead_bits(space, r, 3).total_bits for r in ranks]
                assert pt.mean_overhead_bits == expected_overhead(probs, bits)

    def test_parallel_matches_sequential(self, monkeypatch):
        """Points depend neither on the worker count nor on which points a
        worker ran before, though each process builds its codebooks once."""
        cfg = _mini_config(slots=25)
        cfgs = [_mini_config(mode=mode, snr=(0.0, 10.0, 20.0), slots=25) for mode in CodebookMode]
        monkeypatch.setenv("NRSIM_THREADS", "1")
        seq = run_sweep(cfg)
        seq_cmp = compare_modes(cfgs)
        monkeypatch.delenv("NRSIM_THREADS")
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        par = run_sweep(cfg)
        par_cmp = compare_modes(cfgs)
        assert seq.points == par.points
        assert [res.mode for res in par_cmp.results] == list(CodebookMode)
        assert [res.points for res in seq_cmp.results] == [res.points for res in par_cmp.results]
        assert run_sweep(cfgs[0]) == par_cmp.results[0]  # a lone sweep is a one-config comparison

    def test_codebooks_built_once_per_process(self, monkeypatch):
        """The builders return one structure per distinct arguments, and
        run_sweep and compare_modes build every config's structures before
        they start a pool, so forked workers inherit them: points, and later
        sweeps of the same panel, build nothing."""
        antenna = AntennaConfig(2, 1)
        ov = oversampling_factors(antenna)
        assert build_type1_codebook(antenna, 2, ov) is build_type1_codebook(AntennaConfig(2, 1), 2, ov)
        assert (build_type2_structure(antenna, Type2Config(num_beams=2), ov)
                is build_type2_structure(antenna, Type2Config(num_beams=2), ov))
        builders = (build_type1_codebook, build_type2_structure)
        misses = lambda: [b.cache_info().misses for b in builders]
        at_pool = []

        class Pool(Executor):  # runs each point as it is submitted, after noting the builds so far
            def __init__(self, max_workers, initializer):
                at_pool.append(misses())

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(sim, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        for mode, built in ((CodebookMode.TYPE1, [2, 0]), (CodebookMode.TYPE2, [0, 1])):
            for b in builders:
                b.cache_clear()
            run_sweep(_mini_config(mode=mode, snr=(0.0, 10.0, 20.0), slots=5))
            assert at_pool.pop() == built == misses()
            run_sweep(_mini_config(mode=mode, snr=(5.0,), slots=5))  # one point: no pool
            assert (at_pool, misses()) == ([], built)
        for b in builders:
            b.cache_clear()
        compare_modes([_mini_config(mode=mode, snr=(0.0, 10.0), slots=5) for mode in CodebookMode])
        assert at_pool == [[2, 1]] and misses() == [2, 1]

    def test_type1_sweep_builds_only_reported_precoders(self, monkeypatch):
        """A one-worker Type I sweep on the 16-port panel builds the
        precoders of the entries each selection block reports and never the
        whole table: every Codebook.precoders call asks for at most as many
        entries as its block has slots, and the calls cover each slot once."""
        blocks, asked = [], []
        select, precoders = sim._select_type1, Codebook.precoders

        def select_spy(h, *args):
            blocks.append(len(h))
            return select(h, *args)

        def precoders_spy(cb, entries):
            assert len(entries) <= blocks[-1]
            asked.append(len(entries))
            return precoders(cb, entries)

        monkeypatch.setattr(sim, "_select_type1", select_spy)
        monkeypatch.setattr(Codebook, "precoders", precoders_spy)
        monkeypatch.setenv("NRSIM_THREADS", "1")
        antenna = AntennaConfig(4, 2)
        channel = ChannelConfig(num_tx_ports=antenna.num_ports, num_rx_ports=4, num_subbands=2)
        cfg = SweepConfig(scenario=Scenario(antenna=antenna, channel=channel),
                          snr_points_db=(0.0, 20.0), num_slots=6, codebook_mode=CodebookMode.TYPE1)
        run_sweep(cfg)
        assert sum(asked) == sum(blocks) > 0

    def test_one_pool_per_comparison(self, monkeypatch):
        """compare_modes runs the points of all its configs on one pool,
        which it shuts down, leaving no child process, before it returns."""
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        monkeypatch.delenv("NRSIM_THREADS", raising=False)
        cmp = compare_modes([_mini_config(mode=mode, slots=5) for mode in CodebookMode])
        assert started == [2]
        assert multiprocessing.active_children() == []
        assert [res.mode for res in cmp.results] == list(CodebookMode)

    @pytest.mark.parametrize("entry", ["compare_modes", "run_sweep"])
    def test_failed_point_reraised_without_leftover_workers(self, monkeypatch, entry):
        """A point that raises in a pool worker fails compare_modes, or a
        standalone run_sweep, with its error, and the pool is still shut
        down, leaving no child process."""
        monkeypatch.setattr(sim, "_run_point", _failing_point)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        monkeypatch.delenv("NRSIM_THREADS", raising=False)
        cfgs = [_mini_config(mode=mode, snr=(0.0, 10.0, 20.0), slots=5) for mode in CodebookMode]
        with pytest.raises(RuntimeError, match="type1 point 1 failed"):
            compare_modes(cfgs) if entry == "compare_modes" else run_sweep(cfgs[0])
        assert multiprocessing.active_children() == []

    def test_queuing_failure_leaves_no_workers(self, monkeypatch):
        """A failure while the points are queued, after the pool has started
        its workers, fails compare_modes with its error and still shuts the
        pool down; the next sweep runs normally."""
        class FailingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables):
                self.submit(fn, *next(zip(*iterables))).result()  # the workers are up
                raise RuntimeError("queuing failed")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", FailingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        monkeypatch.delenv("NRSIM_THREADS", raising=False)
        cfgs = [_mini_config(mode=mode, slots=5) for mode in CodebookMode]
        with pytest.raises(RuntimeError, match="queuing failed"):
            compare_modes(cfgs)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(sim, "ProcessPoolExecutor", ProcessPoolExecutor)
        assert run_sweep(cfgs[0]) == compare_modes(cfgs).results[0]
        assert multiprocessing.active_children() == []

    def test_thread_env_validation(self, monkeypatch):
        monkeypatch.setenv("NRSIM_THREADS", "two")
        with pytest.raises(ValueError, match="NRSIM_THREADS"):
            run_sweep(_mini_config(slots=5))

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_env_below_one_refused(self, monkeypatch, threads):
        monkeypatch.setenv("NRSIM_THREADS", threads)
        with pytest.raises(ValueError, match=f"NRSIM_THREADS must be >= 1, got '{threads}'"):
            sim._worker_count(4)
        with pytest.raises(ValueError, match="NRSIM_THREADS"):
            compare_modes([_mini_config(slots=5)])

    def test_worker_initializer_fixes_heap_thresholds(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(sim.ctypes, "CDLL", lambda name: libc)
        sim._init_worker()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize("missing", ["symbol", "library"])
    def test_worker_initializer_without_mallopt_is_silent(self, monkeypatch, capfd, missing):
        """Where the C library has no mallopt, or does not load, the
        initializer does nothing: pool workers start, compute the same
        points, and print nothing."""
        def cdll(name):
            if missing == "library":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(sim.ctypes, "CDLL", cdll)
        assert sim._init_worker() is None
        cfg = _mini_config(slots=5)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        par = run_sweep(cfg)
        monkeypatch.setenv("NRSIM_THREADS", "1")
        assert par.points == run_sweep(cfg).points
        assert capfd.readouterr() == ("", "")


_TABLE3 = CqiTable((1.0, 2.0, 3.0), (0.0, 5.0, 10.0))
_OUTCOME_CASES = {  # ri, cqi, realized dB -> throughput, failed
    "at-threshold": ((1,), (2,), (5.0,), (2.0,), 0),
    "inside-slack": ((1,), (2,), (5.0 - 0.5e-9,), (2.0,), 0),
    "beyond-slack": ((1,), (2,), (5.0 - 2e-9,), (0.0,), 1),
    "no-signal": ((1,), (1,), (-math.inf,), (0.0,), 1),
    "cqi0": ((2, 1, 3), (0, 0, 0), (math.nan, math.inf, -math.inf), (0.0, 0.0, 0.0), 0),
    "rank-scaling": ((1, 2, 3, 4), (3, 3, 1, 2), (10.0, 12.0, 0.0, 7.0), (3.0, 6.0, 3.0, 8.0), 0),
}


class TestOutcome:
    """sim._outcome on hand-made reports: a scheduled slot (CQI > 0) pays ri
    x efficiency(cqi) when its realized SINR reaches the CQI's threshold
    less 1e-9 dB and fails otherwise; a CQI-0 slot pays 0 and does not fail,
    whatever its realized SINR."""

    @pytest.mark.parametrize("case", _OUTCOME_CASES.values(), ids=_OUTCOME_CASES)
    def test_case(self, case):
        ri, cqi, realized_db, want_tp, want_failed = case
        tp, failed = sim._outcome(np.array(ri), np.array(cqi), np.array(realized_db), _TABLE3)
        assert tp.tolist() == list(want_tp)
        assert failed == want_failed

    def test_matches_per_slot_rule(self):
        """On random reports whose realized SINRs sit on, just inside and
        just beyond the slack around every threshold, one array pass equals
        the rule applied slot by slot, bit for bit."""
        table = CqiTable.default()
        rng = np.random.default_rng(5)
        ri = rng.integers(1, 5, 2000)
        cqi = rng.integers(0, 16, 2000)
        thr = np.asarray(table.sinr_threshold_db)[np.maximum(cqi, 1) - 1]
        realized_db = thr + rng.choice([-2e-9, -1e-9, -0.5e-9, 0.0, 0.5e-9, -3.0, 3.0], 2000)
        want_tp, want_failed = [], 0
        for r, c, x in zip(ri.tolist(), cqi.tolist(), realized_db.tolist()):
            ok = c > 0 and x >= table.sinr_threshold_db[c - 1] - 1e-9
            want_tp.append(r * table.efficiency(c) if ok else 0.0)
            want_failed += c > 0 and not ok
        tp, failed = sim._outcome(ri, cqi, realized_db, table)
        assert tp.tolist() == want_tp and failed == want_failed
        assert 0 < failed < np.count_nonzero(cqi)


class TestScoringOracle:
    """Each point's throughput, failures and histograms equal a per-slot
    recomputation on the point's whole trajectory from generate_channel:
    the slot's select_csi report, applied by its precoder to the channel
    feedback_delay_slots later, pays rank x efficiency when the realized
    effective SINR (_precoded_sinr, which the sweep scores with) reaches the
    reported CQI's threshold (1e-9 dB slack); a CQI-0 slot pays 0 without
    failing. The SVD bound pays each delayed slot's mimo_capacity of its
    singular values, at full rank and CQI 0, without failing.

    The channel arrives in 4-slot blocks, and points are selected in 6-slot
    blocks on the 2x1 panel, 1-slot blocks on the 4x2 panel and channel
    blocks for the SVD bound. They are checked at feedback delays 0 (no slot
    fails: the report meets the channel it was chosen on), 1 and 7, which
    applies a report to a channel past the next selection and channel
    blocks."""

    @pytest.mark.parametrize("mode, ranks", [(CodebookMode.TYPE1, {1, 2, 3, 4}),
                                             (CodebookMode.TYPE2, {1, 2}),
                                             (CodebookMode.SVD_IDEAL, {4})])
    def test_point_matches_per_slot_recomputation(self, mode, ranks, monkeypatch):
        block = 4 if mode is CodebookMode.SVD_IDEAL else 6
        for delay in (0, 1, 7):
            self._check_delay(mode, (2, 1), 3, block, ranks, delay, monkeypatch)

    def test_one_slot_blocks_match_at_a_longer_delay(self, monkeypatch):
        """16-port Type I selects one slot at a time at 13 subbands and 4 rx,
        so at delay 7 every report is applied seven selection blocks later."""
        self._check_delay(CodebookMode.TYPE1, (4, 2), 13, 1, {1, 2, 3, 4}, 7, monkeypatch)

    def _check_delay(self, mode, panel, subbands, block, ranks, delay, monkeypatch):
        monkeypatch.setenv("NRSIM_THREADS", "1")
        cfg = _mini_config(mode=mode, snr=(-30.0, -16.0, 0.0, 15.0, 30.0), slots=20, delay=delay,
                           seed=1, num_rx=4, doppler=100.0, subbands=subbands, panel=panel)
        ch = cfg.scenario.channel
        monkeypatch.setattr(nrsim_channel, "_BLOCK_BYTES",
                            4 * 16 * len(ch.pdp) * ch.num_rx_ports * ch.num_tx_ports)
        if mode is not CodebookMode.SVD_IDEAL:
            monkeypatch.setattr(csi, "_SELECT_BYTES",
                                block * csi._SELECT_BYTES // sim._codebooks(cfg)[1])
        assert sim._codebooks(cfg)[1] == block
        points = run_sweep(cfg).points
        antenna, table = cfg.scenario.antenna, cfg.scenario.cqi_table
        ov = oversampling_factors(antenna)
        if mode is CodebookMode.TYPE1:
            selector = {r: build_type1_codebook(antenna, r, ov) for r in range(1, 5)}
        elif mode is CodebookMode.TYPE2:
            selector = build_type2_structure(antenna, cfg.scenario.type2, ov)
        seen_ranks, seen_failed, seen_cqi0 = set(), 0, 0
        for i, pt in enumerate(points):
            h = generate_channel(ch, cfg.num_slots, sim._derive_point_seed(cfg.seed, i))
            noise_var = 10.0 ** (-pt.snr_db / 10.0)
            tps, ris, cqis, failed = [], Counter(), Counter(), 0
            for s in range(cfg.num_slots - cfg.feedback_delay_slots):
                applied = h[s + cfg.feedback_delay_slots]
                if mode is CodebookMode.SVD_IDEAL:
                    sigma = np.linalg.svd(applied, compute_uv=False)
                    tps.append(float(np.mean(mimo_capacity(sigma, noise_var))))
                    ris[min(ch.num_rx_ports, ch.num_tx_ports)] += 1
                    cqis[0] += 1
                    continue
                report = select_csi(h[s], noise_var, selector, table)
                ris[report.ri] += 1
                cqis[report.cqi] += 1
                tp = 0.0
                if report.cqi > 0:
                    if mode is CodebookMode.TYPE1:
                        cb = selector[report.ri]
                        w = cb.precoders([cb.index_of_pmi(report.pmi)])
                    else:
                        w = realize_type2_precoder(selector, report.pmi)
                    eff = _precoded_sinr(applied, w, noise_var)
                    threshold = table.sinr_threshold_db[report.cqi - 1]
                    if eff > 0 and 10.0 * math.log10(eff) >= threshold - 1e-9:
                        tp = report.ri * table.efficiency(report.cqi)
                    else:
                        failed += 1
                tps.append(tp)
            scored = len(tps)
            if mode is CodebookMode.SVD_IDEAL:  # log-det pivots against singular values
                assert pt.mean_throughput == pytest.approx(float(np.mean(tps)), rel=1e-12)
            else:
                assert pt.mean_throughput == float(np.mean(tps))
            assert pt.slots_failed == failed / scored
            assert pt.ri_histogram == {r: n / scored for r, n in ris.items()}
            assert pt.cqi_histogram == {c: n / scored for c, n in cqis.items()}
            seen_ranks |= set(ris)
            seen_failed += failed
            seen_cqi0 += cqis[0]
        assert seen_ranks == ranks, delay
        assert (seen_failed > 0) == (delay > 0 and mode is not CodebookMode.SVD_IDEAL), delay
        assert seen_cqi0 > 0, delay


def _panel_config(n1, n2, mode, slots, snr=(10.0,), num_rx=4, subbands=13):
    antenna = AntennaConfig(n1, n2)
    channel = ChannelConfig(num_tx_ports=antenna.num_ports, num_rx_ports=num_rx,
                            doppler_hz=50.0, num_subbands=subbands)
    scenario = Scenario(antenna=antenna, channel=channel,
                        type2=Type2Config(num_beams=min(4, n1 * n2)))
    return SweepConfig(scenario=scenario, snr_points_db=snr, num_slots=slots,
                       codebook_mode=mode, seed=5)


class TestSelectionBlocks:
    """A point selects its scored slots one block at a time, as many as keep
    the largest selection intermediate within csi._SELECT_BYTES."""

    # Block lengths at 13 subbands and 1, 2 and 4 rx. At 1 rx Type I rates
    # rank 1 alone, so rank 1's beam-product gather sizes its blocks.
    @pytest.mark.parametrize("mode, n1, n2, blocks", [
        (CodebookMode.TYPE1, 4, 1, (157, 13, 6)),
        (CodebookMode.TYPE1, 4, 2, (19, 1, 1)),
        (CodebookMode.TYPE1, 2, 1, (315, 26, 13)),
        (CodebookMode.TYPE1, 2, 2, (39, 3, 1)),
        (CodebookMode.TYPE2, 4, 1, (39, 39, 39)),
        (CodebookMode.TYPE2, 4, 2, (39, 19, 9)),
        (CodebookMode.TYPE2, 2, 1, (157, 157, 157)),
        (CodebookMode.TYPE2, 2, 2, (39, 39, 19)),
    ])
    def test_block_lengths(self, mode, n1, n2, blocks):
        for num_rx, block in zip((1, 2, 4), blocks):
            cfg = _panel_config(n1, n2, mode, slots=2, num_rx=num_rx, subbands=13)
            assert sim._codebooks(cfg)[1] == block, num_rx

    @pytest.mark.parametrize("mode, name", [(CodebookMode.TYPE1, "_select_type1"),
                                            (CodebookMode.TYPE2, "_select_type2")])
    def test_sweep_calls_the_selector_in_sim(self, mode, name, monkeypatch):
        """A sweep selects through the selector sim holds when it runs, so
        that wrapping sim's name reaches every block."""
        monkeypatch.setenv("NRSIM_THREADS", "1")
        cfg = _mini_config(mode=mode, slots=12)
        want = run_sweep(cfg)
        blocks, select = [], getattr(sim, name)

        def spy(h, *args):
            blocks.append(len(h))
            return select(h, *args)

        monkeypatch.setattr(sim, name, spy)
        assert run_sweep(cfg) == want
        assert sum(blocks) == len(cfg.snr_points_db) * (cfg.num_slots - cfg.feedback_delay_slots)

    @pytest.mark.parametrize("mode", [CodebookMode.TYPE1, CodebookMode.TYPE2])
    @pytest.mark.parametrize("n1, n2", [(2, 1), (4, 1), (4, 2)])
    def test_block_size_leaves_points_unchanged(self, n1, n2, mode, monkeypatch):
        """One-slot blocks and whole-point blocks give identical points."""
        cfg = _panel_config(n1, n2, mode, slots=25, snr=(-5.0, 10.0, 30.0), subbands=5)
        points = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(csi, "_SELECT_BYTES", budget)
            points.append([sim._run_point(cfg, i) for i in range(len(cfg.snr_points_db))])
        assert points[0] == points[1]
        assert sum(pt.slots_failed for pt in points[0]) > 0

    @pytest.mark.parametrize("stream_block", [1, 3, 7, 50])
    @pytest.mark.parametrize("block, delay", [(1, 0), (1, 7), (6, 1), (6, 7), (50, 3)])
    def test_windows_cut_the_channel_stream(self, stream_block, block, delay, monkeypatch):
        """_run_point fills one window of block + delay slots from a channel
        that draws its taps stream_block slots at a time: the windows it
        checks are the trajectory's slots from start to start + block +
        delay, starting every block slots until one reaches the last slot,
        and selection sees each window's scored slots. Channel blocks are
        shorter and longer than a window, and delays longer than a block."""
        cfg = _mini_config(snr=(10.0,), slots=23, delay=delay)
        ch = cfg.scenario.channel
        monkeypatch.setattr(nrsim_channel, "_BLOCK_BYTES",
                            stream_block * 16 * len(ch.pdp) * ch.num_rx_ports * ch.num_tx_ports)
        windows, selected = [], []

        def select(h, noise_var, table):
            selected.append(h.copy())
            unscheduled = np.zeros(len(h), dtype=int)
            return None, unscheduled + 1, unscheduled, None, None

        monkeypatch.setattr(sim, "_codebooks", lambda cfg: (select, block, lambda r: 0))
        monkeypatch.setattr(sim, "_check_finite", lambda h: windows.append(h.copy()))
        sim._run_point(cfg, 0)
        h = generate_channel(ch, cfg.num_slots, sim._derive_point_seed(cfg.seed, 0))
        starts = range(0, cfg.num_slots - delay, block)
        assert len(windows) == len(selected) == len(starts)
        for start, window, scored in zip(starts, windows, selected):
            assert np.array_equal(window, h[start:start + block + delay]), start
            assert np.array_equal(scored, window[:len(window) - delay]), start

    @pytest.mark.parametrize("n1, n2, mode, subbands", [(4, 2, CodebookMode.TYPE1, 4),
                                                        (4, 1, CodebookMode.TYPE2, 13)])
    def test_working_memory_independent_of_slots(self, n1, n2, mode, subbands):
        """A 16-port Type I point and an 8-port Type II point (4 rx) peak at
        the same memory at 40 and 400 slots, their channel counted: within
        0.5 MB, the selection arrays of one block, which stay alive while the
        next block is selected. Each peak is under 5 x _SELECT_BYTES: a
        block's largest intermediate is within the budget, and its other
        temporaries and the channel window add the rest. (Per-slot selection
        kept every slot's report: 8-port Type II peaked about 7.5 MB higher
        at 400 slots than at 40; the whole channel array added 2.4 MB more.)"""
        sim._run_point(_panel_config(n1, n2, mode, 2, subbands=subbands), 0)  # builds the codebooks
        peaks = []
        for slots in (40, 400):
            cfg = _panel_config(n1, n2, mode, slots, subbands=subbands)
            tracemalloc.start()
            try:
                sim._run_point(cfg, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 0.5e6
        assert max(peaks) < 5 * csi._SELECT_BYTES


class TestCompareModes:
    def test_self_comparison_ties(self):
        cfg = _mini_config(slots=30)
        cmp = compare_modes([cfg, cfg])
        for row in cmp.rows:
            assert row.mean_throughput[0] == row.mean_throughput[1]
            assert row.winner == "tie"

    def test_winner_labels(self):
        cmp = compare_modes([
            _mini_config(mode=CodebookMode.TYPE1, slots=30),
            _mini_config(mode=CodebookMode.SVD_IDEAL, slots=30),
        ])
        for row in cmp.rows:
            assert row.winner == "svd"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_modes([])

    def test_mismatched_grid_rejected(self):
        with pytest.raises(ValueError, match="snr"):
            compare_modes([_mini_config(), _mini_config(snr=(0.0, 5.0))])

    def test_mismatched_seed_rejected(self):
        with pytest.raises(ValueError):
            compare_modes([_mini_config(seed=1), _mini_config(seed=2)])

    def test_mismatched_channel_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            compare_modes([_mini_config(), _mini_config(doppler=50.0)])

    def test_planar_panel_pinned(self):
        """A 2x2 panel (n2 > 1, so both grid axes are oversampled) gives the
        recorded RI/CQI histograms, overheads and mean SE for every mode."""
        antenna = AntennaConfig(2, 2)
        channel = ChannelConfig(num_tx_ports=antenna.num_ports, num_rx_ports=2,
                                doppler_hz=100.0, num_subbands=3)
        scenario = Scenario(antenna=antenna, channel=channel, type2=Type2Config(num_beams=3))
        cmp = compare_modes([
            SweepConfig(scenario=scenario, snr_points_db=(-5.0, 5.0, 15.0), num_slots=6,
                        codebook_mode=mode, seed=2)
            for mode in (CodebookMode.TYPE1, CodebookMode.TYPE2, CodebookMode.SVD_IDEAL)
        ])
        # (mean_se, ri_histogram, cqi_histogram, mean_overhead_bits) per SNR point.
        expected = {
            "type1": [
                (0.58596, {1: 1.0}, {5: 0.4, 6: 0.6}, 12.0),
                (0.6644599999999999, {1: 0.6, 2: 0.4}, {8: 0.4, 11: 0.4, 12: 0.2}, 11.6),
                (3.6187199999999997, {2: 1.0}, {13: 1.0}, 11.0),
            ],
            "type2": [
                (0.53596, {1: 0.6, 2: 0.4}, {4: 0.4, 7: 0.6}, 134.8),
                (0.9625199999999999, {2: 1.0}, {9: 0.2, 10: 0.8}, 190.0),
                (0.0, {2: 1.0}, {15: 1.0}, 190.0),
            ],
            "svd": [
                (3.8104006385414615, {2: 1.0}, {0: 1.0}, 0.0),
                (9.207841133250678, {2: 1.0}, {0: 1.0}, 0.0),
                (15.445631206334744, {2: 1.0}, {0: 1.0}, 0.0),
            ],
        }
        for res in cmp.results:
            for pt, (se, ri, cqi, bits) in zip(res.points, expected[res.mode.value], strict=True):
                assert pt.mean_throughput == pytest.approx(se, rel=0, abs=1e-12)
                assert pt.ri_histogram == ri
                assert pt.cqi_histogram == cqi
                assert pt.mean_overhead_bits == bits


class TestCsvOutput:
    @pytest.fixture()
    def results(self):
        return [
            run_sweep(_mini_config(mode=CodebookMode.TYPE1, slots=25)),
            run_sweep(_mini_config(mode=CodebookMode.SVD_IDEAL, slots=25)),
        ]

    def test_sweep_csv(self, results, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "mode", "mean_se", "mean_mbps",
                           "mean_overhead_bits", "fail_frac"]
        assert len(rows) == 1 + 2 * 2
        for row in rows[1:]:
            assert row[1] in ("type1", "svd")
            # Floats are written with repr so the CSV round-trips exactly.
            assert float(row[2]) in [pt.mean_throughput for res in results for pt in res.points]

    def test_ri_hist_csv(self, results, tmp_path):
        path = tmp_path / "ri.csv"
        write_ri_hist_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "mode", "rank", "fraction"]
        want = sum(len(pt.ri_histogram) for res in results for pt in res.points)
        assert len(rows) == 1 + want

    def test_cqi_hist_csv(self, results, tmp_path):
        path = tmp_path / "cqi.csv"
        write_cqi_hist_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "mode", "cqi", "fraction"]
        fractions = [float(r[3]) for r in rows[1:]]
        assert all(0.0 <= f <= 1.0 for f in fractions)
