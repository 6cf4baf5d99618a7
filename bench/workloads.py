"""The benchmark's workloads, as plain data plus one builder of nrsim configs.

Slots per point are fixed per workload so that a (workload, seed) pair always
simulates the same thing; a run's length is set by how many times it repeats
the workload, never by changing the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

SNR_GRID_11 = tuple(float(s) for s in range(-10, 45, 5))  # -10:5:40 dB
REFERENCE_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    n1: int
    n2: int
    subbands: int
    snr_db: tuple[float, ...]
    modes: tuple[str, ...]  # CodebookMode values, in compare_modes order
    slots: int
    rx: int = 4
    feedback_delay: int = 1
    subband_spacing_hz: float = 720e3

    @property
    def tx(self) -> int:
        return 2 * self.n1 * self.n2

    def scored_per_mode(self, slots: int) -> int:
        """Scored (point, slot) evaluations of one mode's sweep."""
        return len(self.snr_db) * (slots - self.feedback_delay)


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance comparison: all three modes on paired channels.
        Workload("compare_8x4", n1=4, n2=1, subbands=13, snr_db=SNR_GRID_11,
                 modes=("type1", "type2", "svd"), slots=12),
        # 16 ports: 512/1024-entry Type I codebooks, exhaustive search dominates.
        Workload("type1_16port", n1=4, n2=2, subbands=13, snr_db=(0.0, 10.0, 20.0, 30.0),
                 modes=("type1",), slots=12),
        # No codebook or CSI work: channel generation and SVD scoring only,
        # with a long trajectory so the per-point channel array is large.
        Workload("svd_52sb", n1=4, n2=1, subbands=52, snr_db=SNR_GRID_11,
                 modes=("svd",), slots=1000),
    )
}


def build_configs(nrsim, wl: Workload, seed: int, slots: int):
    """One SweepConfig per mode, sharing scenario, grid and seed."""
    antenna = nrsim.AntennaConfig(wl.n1, wl.n2)
    channel = nrsim.ChannelConfig(
        num_tx_ports=antenna.num_ports, num_rx_ports=wl.rx, doppler_hz=5.0,
        delay_spread_ns=100.0, num_subbands=wl.subbands,
        subband_spacing_hz=wl.subband_spacing_hz,
    )
    type2 = nrsim.Type2Config(num_beams=4, n_psk=8) if "type2" in wl.modes else None
    scenario = nrsim.Scenario(antenna=antenna, channel=channel, type2=type2)
    return [
        nrsim.SweepConfig(scenario=scenario, snr_points_db=wl.snr_db, num_slots=slots,
                          feedback_delay_slots=wl.feedback_delay,
                          codebook_mode=nrsim.CodebookMode(mode), seed=seed)
        for mode in wl.modes
    ]


def build_codebooks(nrsim, wl: Workload) -> None:
    """Build every codebook structure the workload's modes need, once."""
    antenna = nrsim.AntennaConfig(wl.n1, wl.n2)
    ov = nrsim.oversampling_factors(antenna)
    if "type1" in wl.modes:
        for rank in range(1, min(4, wl.rx, wl.tx) + 1):
            nrsim.build_type1_codebook(antenna, rank, ov)
    if "type2" in wl.modes:
        nrsim.build_type2_structure(antenna, nrsim.Type2Config(num_beams=4, n_psk=8), ov)
