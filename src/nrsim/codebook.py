"""DFT beam grid and the Type I / Type II downlink precoding codebooks.

Type I enumerates single-beam (rank 1) and beam-pair (ranks 2-4) precoders
with per-polarization co-phasing; Type II is a linear combination of B
orthogonal beams with quantized per-coefficient amplitudes and phases.
Both families share the oversampled 2-D DFT grid built here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AntennaConfig",
    "Oversampling",
    "TypeIPmi",
    "TypeIIPmi",
    "Codebook",
    "Type2Config",
    "Type2CodebookSpace",
    "oversampling_factors",
    "dft_beam",
    "build_type1_codebook",
    "build_type2_structure",
    "realize_type2_precoder",
    "TYPE2_WB_AMPLITUDES",
    "TYPE2_SB_AMPLITUDES",
    "TYPE2_MAX_RANK",
]

# Supported (n1, n2) port layouts -> (o1, o2) grid oversampling.
_OVERSAMPLING: dict[tuple[int, int], tuple[int, int]] = {
    (2, 1): (4, 1),
    (2, 2): (4, 4),
    (4, 1): (4, 1),
    (3, 2): (4, 4),
    (6, 1): (4, 1),
    (4, 2): (4, 4),
    (8, 1): (4, 1),
    (4, 3): (4, 4),
    (6, 2): (4, 4),
    (12, 1): (4, 1),
    (4, 4): (4, 4),
    (8, 2): (4, 4),
    (16, 1): (4, 1),
}

# Rank-1 co-phase alphabet (2 bits) and the rank>=2 alphabet (1 bit).
# Tabulated rather than computed so the values are exact complex literals.
_PHI4 = (1 + 0j, 1j, -1 + 0j, -1j)
_PHI2 = (1 + 0j, 1j)

# Wideband amplitude alphabet (3 bits per coefficient) and the 1-bit
# subband amplitude alphabet for Type II coefficients.
TYPE2_WB_AMPLITUDES = np.array(
    [0.0] + [math.sqrt(1.0 / (2 ** k)) for k in (6, 5, 4, 3, 2, 1)] + [1.0]
)
TYPE2_SB_AMPLITUDES = np.array([math.sqrt(0.5), 1.0])


@dataclass(frozen=True)
class AntennaConfig:
    """Cross-polarized panel geometry: n1 x n2 dual-polarized elements."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        _check_ints(self, "n1", "n2")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"n1/n2 must be positive, got ({self.n1}, {self.n2})")

    @property
    def num_ports(self) -> int:
        return 2 * self.n1 * self.n2


@dataclass(frozen=True)
class Oversampling:
    o1: int
    o2: int

    def __post_init__(self) -> None:
        if self.o1 < 1 or self.o2 < 1:
            raise ValueError(f"oversampling factors must be positive, got ({self.o1}, {self.o2})")


def oversampling_factors(cfg: AntennaConfig) -> Oversampling:
    """Look up (o1, o2) for a supported (n1, n2) port layout."""
    key = (cfg.n1, cfg.n2)
    if key not in _OVERSAMPLING:
        raise ValueError(f"unsupported (n1, n2) pair {key}; supported: {sorted(_OVERSAMPLING)}")
    return Oversampling(*_OVERSAMPLING[key])


def dft_beam(l: int, m: int, cfg: AntennaConfig, ov: Oversampling) -> np.ndarray:
    """Oversampled 2-D DFT beam v_{l,m} = kron(u_l, u_m), entries unit modulus.

    Beams whose indices differ by a nonzero multiple of (o1, o2) are mutually
    orthogonal (the "orthogonal subgrid").
    """
    if not 0 <= l < cfg.n1 * ov.o1:
        raise ValueError(f"beam index l={l} out of range [0, {cfg.n1 * ov.o1})")
    if not 0 <= m < cfg.n2 * ov.o2:
        raise ValueError(f"beam index m={m} out of range [0, {cfg.n2 * ov.o2})")
    u1 = np.exp(2j * np.pi * np.arange(cfg.n1) * l / (cfg.n1 * ov.o1))
    u2 = np.exp(2j * np.pi * np.arange(cfg.n2) * m / (cfg.n2 * ov.o2))
    return np.kron(u1, u2)


def _dft_grid(cfg: AntennaConfig, ov: Oversampling) -> np.ndarray:
    """Every oversampled DFT beam at once, shape (n1*o1, n2*o2, n1*n2):
    grid[l, m] equals dft_beam(l, m) bit for bit (same operations, same order)."""
    n_l, n_m = cfg.n1 * ov.o1, cfg.n2 * ov.o2
    u1 = np.exp(2j * np.pi * np.arange(cfg.n1) * np.arange(n_l)[:, None] / n_l)
    u2 = np.exp(2j * np.pi * np.arange(cfg.n2) * np.arange(n_m)[:, None] / n_m)
    return (u1[:, None, :, None] * u2[None, :, None, :]).reshape(n_l, n_m, -1)


def _is_int(value) -> bool:
    """An integer index: a Python or numpy integer, not a bool (which numpy
    would read as 1) and not a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(obj, *names: str) -> None:
    """Refuse, by field name, a field of the frozen dataclass obj that is a
    bool or not an integer; store a numpy integer as int."""
    for name in names:  # 4.0 == 4 holds, so test the type before any range
        value = getattr(obj, name)
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class TypeIPmi:
    """Type I PMI tuple. i2_per_subband holds the co-phase index per subband
    (codebook entries are wideband and carry a single value)."""

    i11: int
    i12: int
    i13: int
    i2_per_subband: tuple[int, ...]


@dataclass(frozen=True)
class TypeIIPmi:
    """Type II PMI: rotation, beam combination, and per-layer coefficient
    indices. Coefficient position j = p*B + b (polarization-major)."""

    i11: tuple[int, int]
    i12: int
    wideband_amplitudes: tuple[tuple[int, ...], ...]
    subband_cophase: tuple[tuple[tuple[int, ...], ...], ...]
    subband_amplitude: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.wideband_amplitudes)


class Codebook:
    """Type I codebook for one rank, defined by read-only tables: entry (i11,
    i12, i13, i2) has columns c = [v; cophase[i13, i2, c] * v] / sqrt(ports *
    rank), v the beam of grid (n1*o1, n2*o2, n1*n2) at (i11, i12) +
    col_offsets[i13, c], wrapping around the grid.

    The tables are the codebook. index_shape (n1*o1, n2*o2, i13 values, i2
    values) is its PMI index space: entry e enumerates the PMIs
    lexicographically in (i11, i12, i13, i2) and converts to and from them
    through that shape (index_of_pmi and its inverse pmi_of). precoders(e)
    builds the (entries, ports, rank) matrices of any entries, each divided
    by its own np.linalg.norm; precoders(np.arange(len(cb))) is every entry.
    """

    def __init__(self, cfg: AntennaConfig, grid: np.ndarray, col_offsets: np.ndarray,
                 cophase: np.ndarray):
        self.cfg = cfg
        self.grid, self.col_offsets, self.cophase = grid, col_offsets, cophase
        self.index_shape = grid.shape[:2] + cophase.shape[:2]
        for table in (grid, col_offsets, cophase):
            table.flags.writeable = False

    def __len__(self) -> int:
        return math.prod(self.index_shape)

    def precoders(self, entries) -> np.ndarray:
        """The (len(entries), ports, rank) precoders of a 1-D array of entry
        indices, in its order."""
        entries = np.asarray(entries)
        if entries.ndim != 1:
            raise ValueError(f"entries must be a 1-D array, got shape {entries.shape}")
        if entries.size and entries.dtype.kind not in "iu":  # numpy would read True as 1
            raise ValueError(f"entries must be integers, got {entries.tolist()}")
        try:
            i11, i12, i13, i2 = np.unravel_index(entries.astype(np.intp, copy=False),
                                                 self.index_shape)
        except ValueError:
            outside = entries[(entries < 0) | (entries >= len(self))].tolist()
            raise ValueError(f"entries out of range [0, {len(self)}): {outside}") from None
        n_l, n_m = self.index_shape[:2]
        offsets = self.col_offsets[i13]  # (entries, column, 2)
        beams = self.grid[(i11[:, None] + offsets[..., 0]) % n_l,
                          (i12[:, None] + offsets[..., 1]) % n_m]  # (entries, column, n1*n2)
        cols = np.concatenate([beams, self.cophase[i13, i2][..., None] * beams], axis=-1)
        # Each entry is divided by its own np.linalg.norm: a batched norm rounds
        # some entries differently in the last bit.
        stack = np.ascontiguousarray(np.swapaxes(cols, -1, -2))
        return stack / np.array([np.linalg.norm(w) for w in stack])[:, None, None]

    def index_of_pmi(self, pmi: TypeIPmi) -> int:
        """Entry index for a reported PMI; entries are wideband, so every
        subband must carry the same co-phase index i2."""
        for field, values in (("i11", (pmi.i11,)), ("i12", (pmi.i12,)), ("i13", (pmi.i13,)),
                              ("i2_per_subband", pmi.i2_per_subband)):
            if not all(map(_is_int, values)):
                raise ValueError(f"{field} must be integer, got {getattr(pmi, field)!r}")
        if len(set(pmi.i2_per_subband)) != 1:
            raise ValueError(f"PMI {pmi} must carry one wideband i2 value")
        coords = (pmi.i11, pmi.i12, pmi.i13, pmi.i2_per_subband[0])
        try:
            return int(np.ravel_multi_index(coords, self.index_shape))
        except ValueError:
            raise ValueError(f"PMI {pmi} is outside this codebook's index ranges") from None

    def pmi_of(self, e: int) -> TypeIPmi:
        """Wideband PMI of entry e; the inverse of index_of_pmi."""
        if not _is_int(e):
            raise ValueError(f"entry must be integer, got {e!r}")
        if not 0 <= e < len(self):
            raise ValueError(f"entry {e} out of range [0, {len(self)})")
        i11, i12, i13, i2 = (int(i) for i in np.unravel_index(e, self.index_shape))
        return TypeIPmi(i11, i12, i13, (i2,))


def _rank2_offsets(cfg: AntennaConfig, ov: Oversampling) -> list[tuple[int, int]]:
    n1, n2, o1, o2 = cfg.n1, cfg.n2, ov.o1, ov.o2
    if n2 == 1:
        if n1 == 2:
            return [(0, 0), (o1, 0)]
        return [(0, 0), (o1, 0), (2 * o1, 0), (3 * o1, 0)]
    if n1 == n2:
        return [(0, 0), (o1, 0), (0, o2), (o1, o2)]
    return [(0, 0), (o1, 0), (0, o2), (2 * o1, 0)]


def _rank34_offsets(cfg: AntennaConfig, ov: Oversampling) -> list[tuple[int, int]]:
    n1, n2, o1, o2 = cfg.n1, cfg.n2, ov.o1, ov.o2
    table = {
        (2, 1): [(o1, 0)],
        (4, 1): [(o1, 0), (2 * o1, 0), (3 * o1, 0)],
        (6, 1): [(o1, 0), (2 * o1, 0), (3 * o1, 0), (4 * o1, 0)],
        (2, 2): [(o1, 0), (0, o2), (o1, o2)],
        (3, 2): [(o1, 0), (0, o2), (o1, o2), (2 * o1, 0)],
    }
    if (n1, n2) in table:
        return table[(n1, n2)]
    # Fallback for layouts without a tabulated entry: the first nonzero
    # orthogonal-subgrid offsets ("adjacent orthogonal beams"), row-major.
    offs = [(x * o1, y * o2) for y in range(n2) for x in range(n1)]
    return offs[1:5]


# Column structure per rank: which of the two beams (v, v') each column uses
# and the sign multiplying phi on the second polarization block.
_BEAM_PATTERNS = {
    (2, "A"): ((0, 1), (1, -1)),
    (3, "A"): ((0, 1, 0), (1, 1, -1)),
    (3, "B"): ((0, 1, 1), (1, 1, -1)),
    (4, "A"): ((0, 1, 0, 1), (1, 1, -1, -1)),
    (4, "B"): ((0, 1, 1, 0), (1, 1, -1, -1)),
}


def _i13_variants(rank: int, cfg: AntennaConfig, ov: Oversampling):
    """Four (offset, pattern, negate) variants indexed by i13.

    The i13 index always spans four values so the index space is uniform
    across layouts. Layouts whose orthogonal subgrid offers fewer distinct
    offsets reuse the offset list with an alternate column pattern and/or a
    negated co-phase; every variant keeps columns mutually orthogonal and
    all four materialize to distinct matrices.
    """
    if rank == 2:
        base = _rank2_offsets(cfg, ov)
        variants = [(k, "A", False) for k in base] + [(k, "A", True) for k in base]
    else:
        base = _rank34_offsets(cfg, ov)
        variants = (
            [(k, "A", False) for k in base]
            + [(k, "B", False) for k in base]
            + [(k, "A", True) for k in base]
            + [(k, "B", True) for k in base]
        )
    return variants[:4]


@functools.cache
def build_type1_codebook(cfg: AntennaConfig, rank: int, ov: Oversampling) -> Codebook:
    """Enumerate the Type I codebook for one rank.

    Rank 1: W = [v; phi*v]/sqrt(P) over the full oversampled grid and four
    co-phases. Ranks 2-4: beam pairs (v, v') on the orthogonal subgrid chosen
    by i13, columns carrying +/-phi polarization co-phasing, two co-phases.
    Built once per process: equal arguments return the same codebook, whose
    tables are read-only.
    """
    if rank not in (1, 2, 3, 4):
        raise ValueError(f"rank must be in 1..4, got {rank}")
    if rank > cfg.num_ports:
        raise ValueError(f"rank {rank} exceeds {cfg.num_ports} ports")

    # Per (i13, column): the grid offset of the column's beam from (i11, i12);
    # per (i13, i2, column): the coefficient of the second polarization block.
    if rank == 1:
        col_offsets = np.zeros((1, 1, 2), dtype=int)
        cophase = np.array(_PHI4).reshape(1, 4, 1)
    else:
        variants = [(offset, *_BEAM_PATTERNS[(rank, pattern)], negate)
                    for offset, pattern, negate in _i13_variants(rank, cfg, ov)]
        col_offsets = np.array([[offset if b else (0, 0) for b in beam_sel]
                                for offset, beam_sel, _, _ in variants])
        cophase = np.array([[[s * (-phi if negate else phi) for s in signs] for phi in _PHI2]
                            for _, _, signs, negate in variants])

    return Codebook(cfg, _dft_grid(cfg, ov), col_offsets, cophase)


# Type II reports carry at most two layers (TS 38.214 Sec. 5.2.2.2.3).
TYPE2_MAX_RANK = 2


@dataclass(frozen=True)
class Type2Config:
    """Type II structure parameters: B combined beams, N_PSK co-phase grid."""

    num_beams: int = 4
    n_psk: int = 8

    def __post_init__(self) -> None:
        _check_ints(self, "num_beams", "n_psk")
        if self.num_beams not in (2, 3, 4):
            raise ValueError(f"num_beams must be in {{2,3,4}}, got {self.num_beams}")
        if self.n_psk not in (4, 8):
            raise ValueError(f"n_psk must be 4 or 8, got {self.n_psk}")

    def check_panel(self, cfg: AntennaConfig) -> None:
        """Reject a beam count above the panel's n1*n2 orthogonal beams."""
        if self.num_beams > cfg.n1 * cfg.n2:
            raise ValueError(
                f"num_beams={self.num_beams} exceeds the {cfg.n1 * cfg.n2} orthogonal beams"
            )


class Type2CodebookSpace:
    """Type II structure, built once; precoders are realized on demand from a
    TypeIIPmi by realize_type2_precoder.

    beams[q1, q2, b] is orthogonal beam b = x1*n2 + x2 at rotation (q1, q2),
    the DFT beam at grid point (q1 + o1*x1, q2 + o2*x2); shape (o1, o2,
    n1*n2, n1*n2). combos[i12] is the i12-th B-subset of the n1*n2 beams in
    lexicographic order; shape (C(n1*n2, B), B). Both are read-only.
    """

    def __init__(self, cfg: AntennaConfig, t2: Type2Config, ov: Oversampling):
        t2.check_panel(cfg)
        self.cfg = cfg
        self.t2 = t2
        n1, n2, o1, o2 = cfg.n1, cfg.n2, ov.o1, ov.o2
        grid = _dft_grid(cfg, ov).reshape(n1, o1, n2, o2, n1 * n2)
        self.beams = np.ascontiguousarray(
            grid.transpose(1, 3, 0, 2, 4).reshape(o1, o2, n1 * n2, n1 * n2))
        self.combos = np.array(list(itertools.combinations(range(cfg.n1 * cfg.n2), t2.num_beams)))
        self.beams.flags.writeable = self.combos.flags.writeable = False


@functools.cache
def build_type2_structure(cfg: AntennaConfig, t2: Type2Config, ov: Oversampling) -> Type2CodebookSpace:
    """The Type II structure, built once per process: equal arguments return
    the same read-only structure."""
    return Type2CodebookSpace(cfg, t2, ov)


def _type2_columns(space: Type2CodebookSpace, beams, wb_idx, sb_idx, ph_idx) -> np.ndarray:
    """Unit-norm columns (..., subbands, ports, layers) of in-range Type II
    indices over leading batch axes: the selected beams (..., B, n1*n2),
    wideband amplitudes (..., layers, 2B), subband bits and co-phases (...,
    layers, subbands, 2B). Per polarization a column is sum_b a_wb * a_sb *
    exp(j*2*pi*c/N_PSK) * v_b (position j = p*B + b), scaled to unit norm."""
    coeff = (TYPE2_WB_AMPLITUDES[wb_idx][..., None, :] * TYPE2_SB_AMPLITUDES[sb_idx]
             * np.exp(2j * np.pi * ph_idx / space.t2.n_psk))
    cols = (coeff.reshape(*coeff.shape[:-1], 2, -1) @ beams[..., None, None, :, :]).reshape(
        *coeff.shape[:-1], -1)
    norm = np.linalg.norm(cols, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        *_, layer, subband, _ = np.argwhere(norm == 0.0)[0]
        raise ValueError(f"layer {layer} has all-zero coefficients on subband {subband}")
    return np.moveaxis(cols / norm, -3, -1)


def realize_type2_precoder(space: Type2CodebookSpace, pmi: TypeIIPmi) -> np.ndarray:
    """Build the (subbands, ports, rank) precoders from a Type II PMI: its
    unit columns, each subband's matrix scaled to unit Frobenius norm.

    wideband_amplitudes must be (rank, 2B), and subband_cophase and
    subband_amplitude (rank, subbands, 2B), with every index an integer in
    range.
    """
    rank = pmi.rank
    if not 1 <= rank <= TYPE2_MAX_RANK:
        raise ValueError(f"rank {rank} is outside the Type II range [1, {TYPE2_MAX_RANK}]")
    for field, values in (("i11", pmi.i11), ("i12", (pmi.i12,))):
        if not all(map(_is_int, values)):
            raise ValueError(f"{field} must be integer, got {getattr(pmi, field)!r}")
    o1, o2 = space.beams.shape[:2]
    q1, q2 = pmi.i11
    if not (0 <= q1 < o1 and 0 <= q2 < o2):
        raise ValueError(f"rotation i11={pmi.i11} out of range [0, {o1}) x [0, {o2})")
    if not 0 <= pmi.i12 < len(space.combos):
        raise ValueError(f"i12={pmi.i12} out of range [0, {len(space.combos)})")
    indices = []
    for field in ("wideband_amplitudes", "subband_cophase", "subband_amplitude"):
        try:
            indices.append(np.asarray(getattr(pmi, field)))
        except ValueError:  # numpy refuses ragged nesting
            raise ValueError(f"{field} is ragged: its tuples differ in length") from None
    wb_idx, ph_idx, sb_idx = indices
    two_b = 2 * space.t2.num_beams
    num_sb = ph_idx.shape[1] if ph_idx.ndim == 3 and ph_idx.shape[1] else "subbands"
    for field, idx, dims, shape, size in (
            ("wideband_amplitudes", wb_idx, "(rank, 2B)", (rank, two_b), len(TYPE2_WB_AMPLITUDES)),
            ("subband_cophase", ph_idx, "(rank, subbands, 2B)", (rank, num_sb, two_b),
             space.t2.n_psk),
            ("subband_amplitude", sb_idx, "(rank, subbands, 2B)", (rank, num_sb, two_b),
             len(TYPE2_SB_AMPLITUDES))):
        if idx.shape != shape:
            raise ValueError(f"{field} must be {dims} = {shape}, got shape {idx.shape}")
        if idx.dtype.kind not in "iu":  # numpy would read bools as a mask and refuse floats
            raise ValueError(f"{field} indices must be integers, got {idx.tolist()}")
        if np.any((idx < 0) | (idx >= size)):
            raise ValueError(f"{field} indices must be in [0, {size}), got {idx.tolist()}")
    beams = space.beams[q1, q2, space.combos[pmi.i12]]
    return _type2_columns(space, beams, wb_idx, sb_idx, ph_idx) / math.sqrt(rank)
