"""Tapped-delay-line MIMO channel with first-order Gauss-Markov time evolution.

Each tap is an i.i.d. Rayleigh-faded matrix whose slot-to-slot correlation is
the Jakes value rho = J0(2*pi*f_d*T_slot); the per-subband frequency response
is the DFT of the tap matrices at the tap delays. The taps are stored in the
order the generator draws them, (slot, tap, rx, tx), and each slot's response
is one BLAS product: the (subbands, taps) phase matrix times that slot's
(taps, rx*tx) taps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .codebook import _check_ints, _is_int

__all__ = [
    "ChannelConfig",
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


# Cephes j0, the routine scipy.special.j0 runs: a rational approximation in
# z = x^2 up to x = 5, the Hankel asymptotic form above it. Coefficients are
# highest power first; RQ and QQ carry their implicit leading 1.
_J0_DR1, _J0_DR2 = 5.78318596294678452118e0, 3.04712623436620863991e1
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
          9.70862251047306323952e15)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
          1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
          5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
          5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
          -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
          7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    return functools.reduce(lambda acc, c: acc * x + c, coef)


def _j0(x: float) -> float:
    """Bessel J0 of a finite float, equal bit for bit to scipy.special.j0."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        return (z - _J0_DR1) * (z - _J0_DR2) * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ)
    w, q = 5.0 / x, 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
    xn = x - math.pi / 4.0
    return (p * math.cos(xn) - w * q * math.sin(xn)) * math.sqrt(2.0 / math.pi) / math.sqrt(x)


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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    delays, powers_db = [], []
    for lineno, raw in enumerate(lines, start=1):
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
    try:
        p = np.asarray([10.0 ** (x / 10.0) for x in powers_db])
    except OverflowError:
        p = np.full(len(powers_db), math.inf)
    with np.errstate(all="ignore"):  # a profile that overflows or underflows is rejected below
        total = float(p.sum())
        p = p / total
        d = np.asarray(delays) - min(delays)
        mean = float(p @ d)
        rms = float(np.sqrt(p @ (d - mean) ** 2))
        if rms > 0.0:
            d = d / rms
    if not (0.0 < total < math.inf and math.isfinite(rms)):
        raise ValueError(f"{path}: linear powers must have a positive, finite sum and delays "
                         f"a finite spread")
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

    def __post_init__(self) -> None:
        _check_ints(self, "num_tx_ports", "num_rx_ports", "num_subbands")
        if self.num_tx_ports < 1 or self.num_rx_ports < 1:
            raise ValueError(f"num_tx_ports and num_rx_ports must be positive, "
                             f"got ({self.num_tx_ports}, {self.num_rx_ports})")
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
        if not math.isfinite(2.0 * math.pi * self.doppler_hz * self.slot_duration_s):
            raise ValueError(
                f"the Jakes argument 2*pi*doppler_hz*slot_duration_s must be finite, got "
                f"doppler_hz={self.doppler_hz!r}, slot_duration_s={self.slot_duration_s!r}"
            )
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


# Bytes of tap matrices per block of the trajectory. A block and its normals
# take about twice this (or one slot each, where one slot is larger), so
# they stay in L2 at any port and tap count. No array of the generator grows
# with the slot count.
_BLOCK_BYTES = 1 << 17


def _block_slots(taps: int, num_rx: int, num_tx: int) -> int:
    """Slots per block: as many as fit in _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (16 * taps * num_rx * num_tx))


def _complex_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out, shape (n, taps, rx, tx), with CN(0, 1) draws taken in one
    call, in the stream order of one complex draw per slot: the slot's real
    parts (taps, rx, tx), then its imaginary parts. Multiplying by 1/sqrt(2)
    gives the bits of numpy's complex-by-real division by sqrt(2)."""
    g = rng.standard_normal((out.shape[0], 2, *out.shape[1:]))
    out.real, out.imag = g[:, 0], g[:, 1]
    out *= 1.0 / np.sqrt(2.0)


def _check_count(name: str, value, low: int) -> None:
    if not _is_int(value):  # a bool or a float would pass the range test
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _trajectory(cfg: ChannelConfig, seed: int):
    """Draw a correlated channel trajectory from seed, in slot order: returns
    fill, and fill(out) writes the trajectory's next len(out) slots into the
    C-contiguous (slots, subbands, rx, tx) array out. The seed is checked at
    the call, before the first draw.

    H(k) = sum_t A_t * exp(-j*2*pi*f_k*tau_t) with subband centers f_k placed
    symmetrically around the carrier and tau_t = normalized_delay * spread.
    The AR(1)-evolved taps A_t, every slot marginally CN(0, p_t) per entry,
    are drawn _block_slots slots at a time into a temporary block; between
    calls only the last slot's taps are kept. Each slot's H is one BLAS
    product of the (subbands, taps) phase matrix and the slot's (taps,
    rx*tx) taps, so how the caller splits the trajectory cannot change a bit.
    """
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    delays_s = np.asarray([d for d, _ in cfg.pdp]) * cfg.delay_spread_ns * 1e-9
    powers = np.asarray([p for _, p in cfg.pdp])
    powers = powers / powers.sum()
    rho = _j0(2.0 * np.pi * cfg.doppler_hz * cfg.slot_duration_s)
    k = np.arange(cfg.num_subbands)
    freqs = (k - (cfg.num_subbands - 1) / 2.0) * cfg.subband_spacing_hz
    phase = np.exp(-2j * np.pi * np.outer(freqs, delays_s))  # (subbands, taps)
    num_taps, num_rx, num_tx = len(powers), cfg.num_rx_ports, cfg.num_tx_ports
    step = _block_slots(num_taps, num_rx, num_tx)
    scale = np.sqrt(powers)[:, None, None]
    innov = np.sqrt(max(0.0, 1.0 - rho * rho)) * scale
    # The taps of the slot before the next one drawn. Before the first slot
    # they are zero, so the first slot's AR(1) step adds an exact zero, and
    # gain draws that slot from the stationary law.
    last, gain = np.zeros((num_taps, num_rx, num_tx), dtype=complex), scale

    def fill(out: np.ndarray) -> None:
        nonlocal gain
        for start in range(0, len(out), step):
            n = min(step, len(out) - start)
            taps = np.empty((n, num_taps, num_rx, num_tx), dtype=complex)
            _complex_normal(rng, taps)
            taps[0] *= gain
            taps[1:] *= innov
            gain = innov
            for s in range(n):
                taps[s] += rho * (taps[s - 1] if s else last)
            last[...] = taps[-1]
            np.matmul(phase, taps.reshape(n, num_taps, num_rx * num_tx),
                      out=out[start:start + n].reshape(n, len(phase), num_rx * num_tx))

    return fill


def generate_channel(cfg: ChannelConfig, num_slots: int, seed: int) -> np.ndarray:
    """The correlated channel trajectory drawn from seed, shape (num_slots,
    subbands, rx, tx): _trajectory's fill of one whole array, so no other
    array grows with num_slots."""
    _check_count("num_slots", num_slots, 1)
    fill = _trajectory(cfg, seed)
    h = np.empty((num_slots, cfg.num_subbands, cfg.num_rx_ports, cfg.num_tx_ports), dtype=complex)
    fill(h)
    return h
