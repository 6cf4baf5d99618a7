"""Power-delay profiles and the correlated channel generator."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j0
from scipy.stats import gamma

from nrsim import ChannelConfig, cdl_a_pdp, generate_channel, load_pdp_file
from nrsim.channel import _block_slots, _j0, _trajectory
from nrsim.cli import _J0_FIRST_ZERO


def _bessel_j0_series(x: float) -> float:
    """Power-series J0 used as an independent check on the Jakes correlation."""
    q = x * x / 4.0
    term, total = 1.0, 1.0
    for m in range(1, 40):
        term *= -q / (m * m)
        total += term
    return total


def _per_slot_taps(cfg: ChannelConfig, num_slots: int, seed: int):
    """Reference recursion: one complex draw (real parts, then imaginary
    parts) and one AR(1) step per slot into the whole (slots, taps, rx, tx)
    tap trajectory. Returns the (subbands, taps) phase matrix and the taps."""
    rng = np.random.default_rng(seed)
    delays_s = np.asarray([d for d, _ in cfg.pdp]) * cfg.delay_spread_ns * 1e-9
    powers = np.asarray([p for _, p in cfg.pdp])
    powers = powers / powers.sum()
    rho = _j0(2.0 * np.pi * cfg.doppler_hz * cfg.slot_duration_s)
    k = np.arange(cfg.num_subbands)
    freqs = (k - (cfg.num_subbands - 1) / 2.0) * cfg.subband_spacing_hz
    phase = np.exp(-2j * np.pi * np.outer(freqs, delays_s))
    shape = (len(powers), cfg.num_rx_ports, cfg.num_tx_ports)

    def normal():
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    scale = np.sqrt(powers)[:, None, None]
    innov = np.sqrt(max(0.0, 1.0 - rho * rho))
    taps = np.empty((num_slots, *shape), dtype=complex)
    taps[0] = scale * normal()
    for s in range(1, num_slots):
        taps[s] = rho * taps[s - 1] + innov * scale * normal()
    return phase, taps


def _per_slot_channel(cfg: ChannelConfig, num_slots: int, seed: int) -> np.ndarray:
    """Reference generator: the per-slot recursion's taps, then one
    frequency-response matmul per slot over the whole trajectory."""
    phase, taps = _per_slot_taps(cfg, num_slots, seed)
    n, t, r, e = taps.shape
    return np.matmul(phase, taps.reshape(n, t, r * e)).reshape(n, len(phase), r, e)


_BLOCK_BOUNDARY_CONFIGS = [
    {"num_tx_ports": 8, "num_rx_ports": 4},
    {"num_tx_ports": 1, "num_rx_ports": 1, "pdp": ((0.0, 1.0),), "num_subbands": 1},
    {"num_tx_ports": 16, "num_rx_ports": 2, "num_subbands": 52},
    {"num_tx_ports": 8, "num_rx_ports": 4, "doppler_hz": 0.0},
    {"num_tx_ports": 8, "num_rx_ports": 4, "doppler_hz": 383.0,
     "pdp": ((0.0, 0.6), (1.5, 0.4))},
]


def _boundary_slot_counts(cfg: ChannelConfig) -> list[int]:
    """Trajectory lengths that end just before, on and just after block
    boundaries."""
    b = _block_slots(len(cfg.pdp), cfg.num_rx_ports, cfg.num_tx_ports)
    return sorted({1, 2, 63, 64, 65, 131, 1000, b - 1, b, b + 1, 2 * b + 1} - {0})


class TestCdlAPdp:
    def test_shape_and_normalization(self):
        pdp = cdl_a_pdp()
        assert len(pdp) == 23
        delays = [d for d, _ in pdp]
        powers = [p for _, p in pdp]
        assert delays[0] == 0.0
        assert min(delays) == 0.0
        assert max(delays) == pytest.approx(9.6586, abs=1e-12)
        assert sum(powers) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in powers)

    def test_strongest_cluster(self):
        pdp = cdl_a_pdp()
        powers = [p for _, p in pdp]
        # The 0 dB cluster is the second entry; 9.5 dB above the first (-13.4 vs -4 dB gap).
        assert powers.index(max(powers)) == 1
        assert powers[1] / powers[0] == pytest.approx(10.0 ** 1.34, rel=1e-12)


class TestLoadPdpFile:
    def test_round_trip_normalization(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text(
            "# delay_ns power_db\n"
            "100.0  0.0\n"
            "\n"
            "300.0, -3.0   # comma form\n"
            "500.0  -6.0\n"
        )
        pdp = load_pdp_file(path)
        delays = np.asarray([d for d, _ in pdp])
        powers = np.asarray([p for _, p in pdp])
        assert delays[0] == 0.0
        assert powers.sum() == pytest.approx(1.0, abs=1e-12)
        assert powers[0] / powers[1] == pytest.approx(10.0 ** 0.3, rel=1e-12)
        # Unit RMS spread after scaling.
        mean = powers @ delays
        assert math.sqrt(powers @ (delays - mean) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_tap_keeps_zero_delay(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("250.0 0.0\n")
        assert load_pdp_file(path) == [(0.0, 1.0)]

    def test_bad_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0\n100.0 -3.0 junk\n")
        with pytest.raises(ValueError, match=":2:"):
            load_pdp_file(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0\nabc -3.0\n")
        with pytest.raises(ValueError, match=":2:"):
            load_pdp_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no profile entries"):
            load_pdp_file(path)


class TestChannelConfig:
    def test_defaults(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4)
        assert cfg.doppler_hz == 5.0
        assert cfg.delay_spread_ns == 100.0
        assert cfg.num_subbands == 13
        assert len(cfg.pdp) == 23

    @pytest.mark.parametrize("kwargs", [
        {"num_tx_ports": 0, "num_rx_ports": 4},
        {"num_tx_ports": 8, "num_rx_ports": 0},
        {"num_tx_ports": 8, "num_rx_ports": 4, "doppler_hz": -1.0},
        {"num_tx_ports": 8, "num_rx_ports": 4, "delay_spread_ns": 0.0},
        {"num_tx_ports": 8, "num_rx_ports": 4, "num_subbands": 0},
        {"num_tx_ports": 8, "num_rx_ports": 4, "subband_spacing_hz": 0.0},
        {"num_tx_ports": 8, "num_rx_ports": 4, "slot_duration_s": 0.0},
        {"num_tx_ports": 8, "num_rx_ports": 4, "pdp": ()},
        {"num_tx_ports": 8, "num_rx_ports": 4, "pdp": ((0.0, 0.5), (1.0, 0.4))},
        {"num_tx_ports": 8, "num_rx_ports": 4, "pdp": ((-1.0, 0.5), (1.0, 0.5))},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)


class TestGenerateChannel:
    def test_shape(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4)
        assert generate_channel(cfg, 5, 3).shape == (5, 13, 4, 8)

    def test_zero_slots_rejected(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4)
        with pytest.raises(ValueError):
            generate_channel(cfg, 0, 0)

    @pytest.mark.parametrize("num_slots, seed, name", [
        (2.5, 1, "num_slots"), (True, 1, "num_slots"), (2, 1.5, "seed"), (2, True, "seed")])
    def test_non_integer_count_or_seed_rejected(self, num_slots, seed, name):
        """A float or a bool (which numpy would read as 1) is refused by name,
        before any draw: _trajectory refuses the seed at the call."""
        cfg = ChannelConfig(num_tx_ports=4, num_rx_ports=2)
        value = num_slots if name == "num_slots" else seed
        match = rf"^{name} must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=match):
            generate_channel(cfg, num_slots, seed)
        if name == "seed":
            with pytest.raises(ValueError, match=match):
                _trajectory(cfg, seed)

    def test_numpy_integer_count_and_seed_accepted(self):
        cfg = ChannelConfig(num_tx_ports=4, num_rx_ports=2)
        want = generate_channel(cfg, 3, 5)
        assert np.array_equal(generate_channel(cfg, np.int64(3), np.uint32(5)), want)

    def test_deterministic_per_seed(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4)
        a = generate_channel(cfg, 4, 7)
        b = generate_channel(cfg, 4, 7)
        assert np.array_equal(a, b)
        other = generate_channel(cfg, 4, 8)
        assert not np.array_equal(a, other)

    def test_longer_run_extends_shorter(self):
        cfg = ChannelConfig(num_tx_ports=4, num_rx_ports=2)
        short = generate_channel(cfg, 3, 11)
        long = generate_channel(cfg, 6, 11)
        assert np.array_equal(long[:3], short)

    def test_zero_doppler_freezes_fading(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, doppler_hz=0.0)
        h = generate_channel(cfg, 6, 5)
        for s in range(1, 6):
            assert np.array_equal(h[s], h[0])

    def test_single_tap_is_frequency_flat(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, pdp=((0.0, 1.0),))
        h = generate_channel(cfg, 3, 2)
        spread = h - h[:, :1]
        assert np.max(np.abs(spread)) <= 1e-12

    def test_single_delayed_tap_phase_ramp(self):
        """One tap at delay tau makes adjacent subbands differ by a fixed
        rotation exp(-j*2*pi*spacing*tau)."""
        cfg = ChannelConfig(
            num_tx_ports=2, num_rx_ports=2, pdp=((1.0, 1.0),),
            delay_spread_ns=100.0, subband_spacing_hz=720e3,
        )
        h = generate_channel(cfg, 2, 2)
        expect = np.exp(-2j * np.pi * 720e3 * 100e-9)
        ratios = h[:, 1:] / h[:, :-1]
        assert np.max(np.abs(ratios - expect)) < 1e-12

    def test_unit_average_power(self):
        """E|H_k(r,e)|^2 = 1: the profile is normalized, taps are independent."""
        samples = []
        cfg = ChannelConfig(num_tx_ports=50, num_rx_ports=40, num_subbands=8)
        for seed in range(4):
            samples.append(np.abs(generate_channel(cfg, 1, seed)) ** 2)
        assert np.mean(samples) == pytest.approx(1.0, abs=0.03)

    def test_per_tap_power_follows_profile(self):
        """Each tap has its profile power, read from the response: with taps
        at delays 0 and tau and 2 subbands spacing 1/(2 tau) apart, the
        phases are 1 and +-j, so A0 = (H0 + H1)/2 and A1 = (H0 - H1)/(2j)."""
        cfg = ChannelConfig(num_tx_ports=100, num_rx_ports=100, num_subbands=2,
                            subband_spacing_hz=5e6, delay_spread_ns=100.0,
                            pdp=((0.0, 0.7), (1.0, 0.3)))
        h = generate_channel(cfg, 1, 123)[0]
        taps = np.stack([(h[0] + h[1]) / 2.0, (h[0] - h[1]) / 2j])
        measured = np.mean(np.abs(taps) ** 2, axis=(1, 2))
        assert measured == pytest.approx([0.7, 0.3], rel=0.05)

    @pytest.mark.parametrize("kwargs", _BLOCK_BOUNDARY_CONFIGS)
    def test_tap_blocks_match_per_slot_recursion(self, kwargs):
        """fill draws the taps _block_slots slots at a time and keeps only
        the last slot's taps between calls, so how a trajectory is split into
        fill calls cannot change a bit: calls of 0 and 1 slots, calls that
        end and start on either side of a tap block's boundary, and one whole
        call (generate_channel) all give the per-slot recursion's channel."""
        cfg = ChannelConfig(**kwargs)
        b = _block_slots(len(cfg.pdp), cfg.num_rx_ports, cfg.num_tx_ports)
        for num_slots in _boundary_slot_counts(cfg):
            for seed in (0, 17):
                want = _per_slot_channel(cfg, num_slots, seed)
                assert np.array_equal(generate_channel(cfg, num_slots, seed), want)
                fill, h, start = _trajectory(cfg, seed), np.empty_like(want), 0
                for length in itertools.cycle((0, 1, b - 1, 2, b + 1, 0, 3 * b)):
                    if start == num_slots:
                        break
                    fill(h[start:start + length])
                    start = min(num_slots, start + length)
                assert np.array_equal(h, want), (num_slots, seed)

    @pytest.mark.parametrize("kwargs", _BLOCK_BOUNDARY_CONFIGS)
    def test_blocks_match_per_slot_recursion(self, kwargs):
        """Block generation equals the per-slot recursion, with one matmul
        per slot, bit for bit, for trajectories that end just before, on and
        just after block boundaries."""
        cfg = ChannelConfig(**kwargs)
        for num_slots in _boundary_slot_counts(cfg):
            for seed in (0, 17):
                h = generate_channel(cfg, num_slots, seed)
                assert h.flags.c_contiguous
                assert np.array_equal(h, _per_slot_channel(cfg, num_slots, seed)), (num_slots, seed)

    @pytest.mark.parametrize("kwargs", _BLOCK_BOUNDARY_CONFIGS)
    def test_response_blocks_make_up_the_trajectory(self, kwargs):
        """fill writes the next slots into out and reads nothing from it:
        blocks of _block_slots slots (the last one shorter), filled one after
        another into one reused buffer that starts as nan, make up
        generate_channel's h bit for bit."""
        cfg = ChannelConfig(**kwargs)
        b = _block_slots(len(cfg.pdp), cfg.num_rx_ports, cfg.num_tx_ports)
        for num_slots in _boundary_slot_counts(cfg):
            fill, blocks = _trajectory(cfg, 17), []
            buf = np.full((b, cfg.num_subbands, cfg.num_rx_ports, cfg.num_tx_ports), np.nan,
                          dtype=complex)
            for start in range(0, num_slots, b):
                n = min(b, num_slots - start)
                fill(buf[:n])
                blocks.append(buf[:n].copy())
            h = np.concatenate(blocks)
            assert np.array_equal(h, generate_channel(cfg, num_slots, 17)), num_slots

    @pytest.mark.parametrize("kwargs", _BLOCK_BOUNDARY_CONFIGS)
    def test_response_matches_textbook_sum(self, kwargs):
        """h equals the textbook sum H(k) = sum_t phase[k, t] A_t, evaluated
        by einsum, within the rounding of two length-T complex sums.

        The real (imaginary) part of each entry is a real sum of 2T products,
        so any evaluation order, with or without FMA, is within
        gamma_2T * sum_t |phase[k, t]| |A_t| of the exact value per part
        (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), with
        gamma_n = n u / (1 - n u), u = 2^-53 and |phase| = 1. The modulus is
        then within sqrt(2) times that, and the two evaluations differ by at
        most twice it: about 1.4e-14 sum_t |A_t| at T = 23.
        """
        cfg = ChannelConfig(**kwargs)
        phase, taps = _per_slot_taps(cfg, 131, 5)
        textbook = np.einsum("kt,stre->skre", phase, taps)
        n = 2 * len(cfg.pdp)
        gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
        bound = 2.0 * math.sqrt(2.0) * gamma * np.sum(np.abs(taps), axis=1)[:, None]
        h = generate_channel(cfg, 131, 5)
        assert np.all(np.abs(h - textbook) <= bound)

    @pytest.mark.parametrize("num_slots", [1000, 4000])
    def test_working_memory_independent_of_slots(self, num_slots):
        """Beyond the returned h, generation needs about a tap block's worth
        of memory (0.3 MB here: the tap block and its normals; the response
        goes straight into h), where the whole tap trajectory took 11.8 MB at
        1000 slots and 47 MB at 4000."""
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, num_subbands=52)
        tracemalloc.start()
        try:
            h = generate_channel(cfg, num_slots, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - h.nbytes < 1e6

    def test_trajectory_keeps_one_slot_of_taps_between_calls(self):
        """Between fill calls the trajectory holds the last slot's taps, its
        phase matrix and under 4 kB more (the power columns, the generator's
        state), not a block: after a fill of three tap blocks and a slot, and
        after one more slot. Keeping the whole tap block buffer as well (12
        slots here) held 141 kB more, and a response block 293 kB."""
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, num_subbands=52)
        b = _block_slots(len(cfg.pdp), 4, 8)
        h = np.empty((3 * b + 2, 52, 4, 8), dtype=complex)
        bound = 16 * len(cfg.pdp) * (4 * 8 + 52) + 4096  # one slot of taps, the phases
        tracemalloc.start()
        try:
            fill = _trajectory(cfg, 3)
            for part in (h[:3 * b + 1], h[3 * b + 1:]):
                fill(part)
                assert tracemalloc.get_traced_memory()[0] <= bound
        finally:
            tracemalloc.stop()

    def test_slot_correlation_matches_jakes(self):
        cfg = ChannelConfig(
            num_tx_ports=1, num_rx_ports=1, doppler_hz=100.0, slot_duration_s=1e-3,
            pdp=((0.0, 1.0),), num_subbands=1,
        )
        h = generate_channel(cfg, 100_000, 17)[:, 0, 0, 0]
        measured = np.mean(h[1:] * h[:-1].conj()).real / np.mean(np.abs(h) ** 2)
        expect = _bessel_j0_series(2.0 * np.pi * 100.0 * 1e-3)
        assert measured == pytest.approx(expect, abs=0.02)

    def test_jakes_coefficient_value(self):
        x = 2.0 * np.pi * 5.0 * 1e-3
        assert _bessel_j0_series(x) == pytest.approx(0.999753275109726, abs=1e-12)
        assert float(j0(x)) == pytest.approx(_bessel_j0_series(x), abs=1e-12)


def test_j0_port_matches_scipy_bit_for_bit():
    """The in-repo J0 equals scipy.special.j0 exactly: across the small-x
    form (< 1e-5), the rational form (<= 5) and the Hankel form (> 5), at
    both branch points and their neighbours, for negative x, and at every
    Jakes argument 2*pi*f_d*T that the tests, the probe and the bench use."""
    edges = [v for e in (1e-5, 5.0) for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 10.0))]
    slots = (1e-3, 1e-2)
    jakes = [2.0 * np.pi * f_d * t for f_d in (0.0, 5.0, 50.0, 100.0, 200.0, 383.0, 500.0)
             for t in slots]
    jakes += [2.0 * math.pi * (_J0_FIRST_ZERO / (2.0 * math.pi * t)) * t for t in slots]
    x = np.concatenate([np.linspace(-40.0, 200.0, 120_001), np.geomspace(1e-300, 1e-3, 3001),
                        [0.0, -0.0, 1e300], edges, np.negative(edges), jakes])
    assert np.array_equal(np.array([_j0(float(v)) for v in x]), j0(x))


@settings(deadline=None, max_examples=25)
@given(
    doppler=st.floats(min_value=0.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_power_never_depends_on_doppler_marginally(doppler, seed):
    """The AR(1) innovation scaling keeps every slot marginally unit power,
    whatever the slot-to-slot correlation.

    With one subband, a slot's n = rx*tx entries are i.i.d. CN(0, 1), so its
    mean power is exactly Gamma(n, 1/n) distributed; slots are correlated,
    but each has that law. The bounds are its quantiles for a false-alarm
    rate of 1e-9 per example, split over both tails of every slot.
    """
    num_slots, n = 8, 32 * 32
    cfg = ChannelConfig(num_tx_ports=32, num_rx_ports=32, doppler_hz=doppler, num_subbands=1)
    power = np.mean(np.abs(generate_channel(cfg, num_slots, seed)) ** 2, axis=(1, 2, 3))
    tail = 1e-9 / (2 * num_slots)
    lo, hi = gamma.ppf(tail, n, scale=1.0 / n), gamma.isf(tail, n, scale=1.0 / n)
    assert np.all((power >= lo) & (power <= hi)), (power, lo, hi)
