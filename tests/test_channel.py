"""Power-delay profiles and the correlated channel generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j0
from scipy.stats import gamma

from nrsim import ChannelConfig, ChannelRealization, cdl_a_pdp, generate_channel, load_pdp_file
from nrsim.channel import _tap_sequences


def _bessel_j0_series(x: float) -> float:
    """Power-series J0 used as an independent check on the Jakes correlation."""
    q = x * x / 4.0
    term, total = 1.0, 1.0
    for m in range(1, 40):
        term *= -q / (m * m)
        total += term
    return total


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

    def test_realization_validation(self):
        with pytest.raises(ValueError):
            ChannelRealization(h=np.zeros((2, 4, 4), dtype=complex))

    def test_realization_views(self):
        h = np.arange(2 * 3 * 4 * 8, dtype=float).reshape(2, 3, 4, 8).astype(complex)
        real = ChannelRealization(h=h)
        assert real.num_slots == 2
        assert real.num_subbands == 3


class TestGenerateChannel:
    def test_shape(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, seed=3)
        assert generate_channel(cfg, 5).h.shape == (5, 13, 4, 8)

    def test_zero_slots_rejected(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4)
        with pytest.raises(ValueError):
            generate_channel(cfg, 0)

    def test_deterministic_per_seed(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, seed=7)
        a = generate_channel(cfg, 4)
        b = generate_channel(cfg, 4)
        assert np.array_equal(a.h, b.h)
        other = generate_channel(ChannelConfig(num_tx_ports=8, num_rx_ports=4, seed=8), 4)
        assert not np.array_equal(a.h, other.h)

    def test_longer_run_extends_shorter(self):
        cfg = ChannelConfig(num_tx_ports=4, num_rx_ports=2, seed=11)
        short = generate_channel(cfg, 3)
        long = generate_channel(cfg, 6)
        assert np.array_equal(long.h[:3], short.h)

    def test_zero_doppler_freezes_fading(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, doppler_hz=0.0, seed=5)
        real = generate_channel(cfg, 6)
        for s in range(1, 6):
            assert np.array_equal(real.h[s], real.h[0])

    def test_single_tap_is_frequency_flat(self):
        cfg = ChannelConfig(num_tx_ports=8, num_rx_ports=4, pdp=((0.0, 1.0),), seed=2)
        real = generate_channel(cfg, 3)
        spread = real.h - real.h[:, :1]
        assert np.max(np.abs(spread)) <= 1e-12

    def test_single_delayed_tap_phase_ramp(self):
        """One tap at delay tau makes adjacent subbands differ by a fixed
        rotation exp(-j*2*pi*spacing*tau)."""
        cfg = ChannelConfig(
            num_tx_ports=2, num_rx_ports=2, pdp=((1.0, 1.0),),
            delay_spread_ns=100.0, subband_spacing_hz=720e3, seed=2,
        )
        real = generate_channel(cfg, 2)
        expect = np.exp(-2j * np.pi * 720e3 * 100e-9)
        ratios = real.h[:, 1:] / real.h[:, :-1]
        assert np.max(np.abs(ratios - expect)) < 1e-12

    def test_unit_average_power(self):
        """E|H_k(r,e)|^2 = 1: the profile is normalized, taps are independent."""
        samples = []
        for seed in range(4):
            cfg = ChannelConfig(num_tx_ports=50, num_rx_ports=40, num_subbands=8, seed=seed)
            samples.append(np.abs(generate_channel(cfg, 1).h) ** 2)
        assert np.mean(samples) == pytest.approx(1.0, abs=0.03)

    def test_per_tap_power_follows_profile(self):
        rng = np.random.default_rng(123)
        powers = np.asarray([0.7, 0.3])
        taps = _tap_sequences(rng, powers, rho=0.9, num_slots=1, num_rx=100, num_tx=100)
        measured = np.mean(np.abs(taps[0]) ** 2, axis=(1, 2))
        assert measured == pytest.approx(powers, rel=0.05)

    def test_slot_correlation_matches_jakes(self):
        cfg = ChannelConfig(
            num_tx_ports=1, num_rx_ports=1, doppler_hz=100.0, slot_duration_s=1e-3,
            pdp=((0.0, 1.0),), num_subbands=1, seed=17,
        )
        h = generate_channel(cfg, 100_000).h[:, 0, 0, 0]
        measured = np.mean(h[1:] * h[:-1].conj()).real / np.mean(np.abs(h) ** 2)
        expect = _bessel_j0_series(2.0 * np.pi * 100.0 * 1e-3)
        assert measured == pytest.approx(expect, abs=0.02)

    def test_jakes_coefficient_value(self):
        x = 2.0 * np.pi * 5.0 * 1e-3
        assert _bessel_j0_series(x) == pytest.approx(0.999753275109726, abs=1e-12)
        assert float(j0(x)) == pytest.approx(_bessel_j0_series(x), abs=1e-12)


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
    cfg = ChannelConfig(num_tx_ports=32, num_rx_ports=32, doppler_hz=doppler,
                        num_subbands=1, seed=seed)
    power = np.mean(np.abs(generate_channel(cfg, num_slots).h) ** 2, axis=(1, 2, 3))
    tail = 1e-9 / (2 * num_slots)
    lo, hi = gamma.ppf(tail, n, scale=1.0 / n), gamma.isf(tail, n, scale=1.0 / n)
    assert np.all((power >= lo) & (power <= hi)), (power, lo, hi)
