"""Tapped-delay-line MIMO channel with first-order Gauss-Markov time evolution.

Each tap is an i.i.d. Rayleigh-faded matrix whose slot-to-slot correlation is
the Jakes value rho = J0(2*pi*f_d*T_slot); the per-subband frequency response
is the DFT of the tap matrices at the tap delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "cdl_a_pdp",
    "load_pdp_file",
    "generate_channel",
]

# Cluster delays (normalized to unit RMS delay spread) and powers (dB) of the
# CDL-A reference profile, 23 clusters.
_CDL_A_DELAYS = (
    0.0000, 0.3819, 0.4025, 0.5868, 0.4610, 0.5375, 0.6708, 0.5750,
    0.7618, 1.5375, 1.8978, 2.2242, 2.1718, 2.4942, 2.5119, 3.0582,
    4.0810, 4.4579, 4.5695, 4.7966, 5.0066, 5.3043, 9.6586,
)
_CDL_A_POWERS_DB = (
    -13.4, 0.0, -2.2, -4.0, -6.0, -8.2, -9.9, -10.5,
    -7.5, -15.9, -6.6, -16.7, -12.4, -15.2, -10.8, -11.3,
    -12.7, -16.2, -18.3, -18.9, -16.6, -19.9, -29.7,
)


def cdl_a_pdp() -> list[tuple[float, float]]:
    """CDL-A power-delay profile as (normalized_delay, linear_power) pairs,
    delays shifted so the first cluster sits at 0 and powers summing to 1."""
    lin = np.asarray([10.0 ** (p / 10.0) for p in _CDL_A_POWERS_DB])
    lin = lin / lin.sum()
    shift = min(_CDL_A_DELAYS)
    return [(d - shift, float(p)) for d, p in zip(_CDL_A_DELAYS, lin)]


def load_pdp_file(path) -> list[tuple[float, float]]:
    """Read a two-column profile (delay_ns, power_db) from a text file.

    Blank lines and '#' comments are skipped. Powers are converted to linear
    and normalized to unit sum; delays are shifted to start at 0 and scaled
    to unit RMS delay spread so delay_spread_ns in ChannelConfig sets the
    physical spread.
    """
    delays, powers_db = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'delay_ns power_db', got {raw!r}")
            try:
                delay, power_db = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry in {raw!r}") from None
            if not (math.isfinite(delay) and math.isfinite(power_db)):
                raise ValueError(f"{path}:{lineno}: delay_ns and power_db must be finite, got {raw!r}")
            delays.append(delay)
            powers_db.append(power_db)
    if not delays:
        raise ValueError(f"{path}: no profile entries found")
    d = np.asarray(delays) - min(delays)
    p = np.asarray([10.0 ** (x / 10.0) for x in powers_db])
    p = p / p.sum()
    mean = float(p @ d)
    rms = float(np.sqrt(p @ (d - mean) ** 2))
    if rms > 0.0:
        d = d / rms
    return [(float(di), float(pi)) for di, pi in zip(d, p)]


@dataclass(frozen=True)
class ChannelConfig:
    """Scenario geometry, fading dynamics, and frequency grid.

    pdp entries are (normalized_delay, linear_power); physical tap delay is
    normalized_delay * delay_spread_ns. Defaults give a 10 MHz-class carrier:
    13 subbands of 720 kHz, 1 ms slots.
    """

    num_tx_ports: int
    num_rx_ports: int
    doppler_hz: float = 5.0
    delay_spread_ns: float = 100.0
    num_subbands: int = 13
    subband_spacing_hz: float = 720e3
    slot_duration_s: float = 1e-3
    pdp: tuple[tuple[float, float], ...] = field(default_factory=lambda: tuple(cdl_a_pdp()))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tx_ports < 1 or self.num_rx_ports < 1:
            raise ValueError("port counts must be positive")
        for name in ("doppler_hz", "delay_spread_ns", "subband_spacing_hz", "slot_duration_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.doppler_hz < 0:
            raise ValueError(f"doppler_hz must be >= 0, got {self.doppler_hz}")
        if self.delay_spread_ns <= 0:
            raise ValueError(f"delay_spread_ns must be positive, got {self.delay_spread_ns}")
        if self.num_subbands < 1:
            raise ValueError(f"num_subbands must be >= 1, got {self.num_subbands}")
        if self.subband_spacing_hz <= 0 or self.slot_duration_s <= 0:
            raise ValueError("subband_spacing_hz and slot_duration_s must be positive")
        if len(self.pdp) == 0:
            raise ValueError("pdp must contain at least one tap")
        object.__setattr__(self, "pdp", tuple((float(d), float(p)) for d, p in self.pdp))
        if not np.all(np.isfinite(self.pdp)):
            raise ValueError(f"pdp delays and powers must be finite, got {self.pdp}")
        powers = np.asarray([p for _, p in self.pdp])
        if np.any(powers < 0) or np.any(np.asarray([d for d, _ in self.pdp]) < 0):
            raise ValueError("pdp delays and powers must be nonnegative")
        if abs(float(powers.sum()) - 1.0) > 1e-9:
            raise ValueError(f"pdp powers must sum to 1, got {float(powers.sum())!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """h has shape (num_slots, num_subbands, num_rx, num_tx)."""

    h: np.ndarray

    def __post_init__(self) -> None:
        if self.h.ndim != 4:
            raise ValueError(f"h must be 4-D (slot, subband, rx, tx), got shape {self.h.shape}")

    @property
    def num_slots(self) -> int:
        return self.h.shape[0]

    @property
    def num_subbands(self) -> int:
        return self.h.shape[1]


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _tap_sequences(rng: np.random.Generator, powers: np.ndarray, rho: float,
                   num_slots: int, num_rx: int, num_tx: int) -> np.ndarray:
    """AR(1)-evolved tap matrices, shape (num_slots, taps, rx, tx); every
    slot is marginally CN(0, p_t) per entry."""
    taps = len(powers)
    scale = np.sqrt(powers)[:, None, None]
    out = np.empty((num_slots, taps, num_rx, num_tx), dtype=complex)
    current = scale * _complex_normal(rng, (taps, num_rx, num_tx))
    out[0] = current
    innov = np.sqrt(max(0.0, 1.0 - rho * rho))
    for s in range(1, num_slots):
        current = rho * current + innov * scale * _complex_normal(rng, (taps, num_rx, num_tx))
        out[s] = current
    return out


def generate_channel(cfg: ChannelConfig, num_slots: int) -> ChannelRealization:
    """Draw a correlated channel trajectory from cfg.seed.

    H(k) = sum_t A_t * exp(-j*2*pi*f_k*tau_t) with subband centers f_k placed
    symmetrically around the carrier and tau_t = normalized_delay * spread.
    """
    if num_slots < 1:
        raise ValueError(f"num_slots must be >= 1, got {num_slots}")
    rng = np.random.default_rng(cfg.seed)
    delays_s = np.asarray([d for d, _ in cfg.pdp]) * cfg.delay_spread_ns * 1e-9
    powers = np.asarray([p for _, p in cfg.pdp])
    powers = powers / powers.sum()
    rho = float(j0(2.0 * np.pi * cfg.doppler_hz * cfg.slot_duration_s))
    k = np.arange(cfg.num_subbands)
    freqs = (k - (cfg.num_subbands - 1) / 2.0) * cfg.subband_spacing_hz
    phase = np.exp(-2j * np.pi * np.outer(freqs, delays_s))  # (subbands, taps)
    taps = _tap_sequences(rng, powers, rho, num_slots, cfg.num_rx_ports, cfg.num_tx_ports)
    h = np.einsum("kt,stre->skre", phase, taps)
    return ChannelRealization(h=np.ascontiguousarray(h))
