"""Beam grid, Type I enumeration, and Type II structure invariants."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrsim import (
    AntennaConfig,
    Oversampling,
    Type2Config,
    TypeIIPmi,
    TypeIPmi,
    build_type1_codebook,
    build_type2_structure,
    dft_beam,
    oversampling_factors,
    realize_type2_precoder,
)
from nrsim.codebook import TYPE2_SB_AMPLITUDES, TYPE2_WB_AMPLITUDES
from oracles import per_entry_precoder

LAYOUTS = [(2, 1), (2, 2), (4, 1), (3, 2), (6, 1), (4, 2), (8, 1),
           (4, 3), (6, 2), (12, 1), (4, 4), (8, 2), (16, 1)]


def _panel(n1, n2):
    cfg = AntennaConfig(n1, n2)
    return cfg, oversampling_factors(cfg)


class TestAntennaConfig:
    def test_port_count(self):
        assert AntennaConfig(4, 1).num_ports == 8
        assert AntennaConfig(2, 2).num_ports == 8
        assert AntennaConfig(16, 1).num_ports == 32

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            AntennaConfig(0, 1)


class TestOversampling:
    def test_single_row_layouts(self):
        for n1 in (2, 4, 6, 8, 12, 16):
            assert oversampling_factors(AntennaConfig(n1, 1)) == Oversampling(4, 1)

    def test_planar_layouts(self):
        for n1, n2 in ((2, 2), (3, 2), (4, 2), (4, 3), (6, 2), (4, 4), (8, 2)):
            assert oversampling_factors(AntennaConfig(n1, n2)) == Oversampling(4, 4)

    def test_unsupported_layout_names_pair(self):
        with pytest.raises(ValueError, match=r"\(5, 1\)"):
            oversampling_factors(AntennaConfig(5, 1))


class TestDftBeam:
    def test_index_zero_is_all_ones(self):
        cfg, ov = _panel(4, 2)
        assert np.array_equal(dft_beam(0, 0, cfg, ov), np.ones(8, dtype=complex))

    def test_known_entry(self):
        cfg, ov = _panel(2, 1)
        beam = dft_beam(1, 0, cfg, ov)
        assert beam[0] == 1.0 + 0.0j
        assert beam[1] == 0.7071067811865476 + 0.7071067811865475j

    def test_unit_modulus(self):
        cfg, ov = _panel(4, 4)
        for l in range(cfg.n1 * ov.o1):
            beam = dft_beam(l, 5, cfg, ov)
            assert np.allclose(np.abs(beam), 1.0, atol=1e-12)

    def test_orthogonal_subgrid(self):
        cfg, ov = _panel(4, 2)
        ref = dft_beam(1, 2, cfg, ov)
        for x1 in range(cfg.n1):
            for x2 in range(cfg.n2):
                other = dft_beam(1 + ov.o1 * x1, 2 + ov.o2 * x2, cfg, ov)
                inner = np.vdot(ref, other)
                if (x1, x2) == (0, 0):
                    assert inner == pytest.approx(cfg.n1 * cfg.n2)
                else:
                    assert abs(inner) < 1e-9

    def test_adjacent_beams_not_orthogonal(self):
        cfg, ov = _panel(4, 1)
        assert abs(np.vdot(dft_beam(0, 0, cfg, ov), dft_beam(1, 0, cfg, ov))) > 1e-3

    def test_index_range(self):
        cfg, ov = _panel(4, 1)
        with pytest.raises(ValueError):
            dft_beam(16, 0, cfg, ov)
        with pytest.raises(ValueError):
            dft_beam(0, 1, cfg, ov)
        with pytest.raises(ValueError):
            dft_beam(-1, 0, cfg, ov)


class TestType1Codebook:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_cardinality(self, layout):
        cfg, ov = _panel(*layout)
        grid = cfg.n1 * ov.o1 * cfg.n2 * ov.o2
        assert len(build_type1_codebook(cfg, 1, ov)) == grid * 4
        for rank in (2, 3, 4):
            assert len(build_type1_codebook(cfg, rank, ov)) == grid * 4 * 2

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_entries_unit_norm_orthogonal_columns(self, rank):
        cfg, ov = _panel(4, 1)
        cb = build_type1_codebook(cfg, rank, ov)
        w = cb.precoders(np.arange(len(cb)))
        assert w.shape == (len(cb), cfg.num_ports, rank)
        gram = np.einsum("epr,eps->ers", w.conj(), w)
        expect = np.eye(rank) / rank
        assert np.max(np.abs(gram - expect)) < 1e-9

    @pytest.mark.parametrize("layout", [(2, 1), (2, 2), (3, 2), (4, 4), (16, 1)])
    def test_entries_distinct_all_layouts(self, layout):
        cfg, ov = _panel(*layout)
        for rank in (1, 2, 3, 4):
            cb = build_type1_codebook(cfg, rank, ov)
            w = cb.precoders(np.arange(len(cb)))
            assert len({entry.tobytes() for entry in w}) == len(cb)
            gram = np.einsum("epr,eps->ers", w.conj(), w)
            assert np.max(np.abs(gram - np.eye(rank) / rank)) < 1e-9

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_index_round_trips(self, rank):
        cfg, ov = _panel(4, 1)
        cb = build_type1_codebook(cfg, rank, ov)
        assert cb.index_shape == (16, 1, 1 if rank == 1 else 4, 4 if rank == 1 else 2)
        for e in range(len(cb)):
            pmi = cb.pmi_of(e)
            assert all(type(i) is int for i in (pmi.i11, pmi.i12, pmi.i13, *pmi.i2_per_subband))
            assert type(cb.index_of_pmi(pmi)) is int
            assert cb.index_of_pmi(pmi) == e

    def test_tables_read_only(self):
        """Codebooks are shared between sweep points, so nothing may write
        into them."""
        cfg, ov = _panel(2, 2)
        cb = build_type1_codebook(cfg, 2, ov)
        space = build_type2_structure(cfg, Type2Config(), ov)
        for table in (cb.grid, cb.col_offsets, cb.cophase, space.beams, space.combos):
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0

    def test_lexicographic_enumeration(self):
        cfg, ov = _panel(4, 2)
        cb = build_type1_codebook(cfg, 2, ov)
        pmis = [cb.pmi_of(e) for e in range(len(cb))]
        keys = [(p.i11, p.i12, p.i13, p.i2_per_subband[0]) for p in pmis]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_pmi_rebuilds_first_column(self, layout):
        """Every column of entry e is bit-identical to the per-entry formula
        (per_entry_precoder) applied to the PMI that pmi_of(e) names."""
        cfg, ov = _panel(*layout)
        for rank in (1, 2, 3, 4):
            cb = build_type1_codebook(cfg, rank, ov)
            for e, w in enumerate(cb.precoders(np.arange(len(cb)))):
                pmi = cb.pmi_of(e)
                assert cb.index_of_pmi(pmi) == e
                assert np.array_equal(w, per_entry_precoder(cfg, ov, rank, pmi))

    def test_rank1_uses_four_cophases(self):
        cfg, ov = _panel(2, 1)
        cb = build_type1_codebook(cfg, 1, ov)
        ports = cfg.num_ports
        half = ports // 2
        # First four entries share beam (0, 0); second-polarization block
        # steps through the QPSK alphabet.
        for n, phi in enumerate((1, 1j, -1, -1j)):
            w = cb.precoders([n])[0, :, 0] * math.sqrt(ports)
            assert np.allclose(w[:half], np.ones(half), atol=1e-12)
            assert np.allclose(w[half:], phi * np.ones(half), atol=1e-12)

    def test_pmi_out_of_range(self):
        cfg, ov = _panel(2, 1)
        cb = build_type1_codebook(cfg, 1, ov)
        with pytest.raises(ValueError):
            cb.index_of_pmi(TypeIPmi(8, 0, 0, (0,)))
        with pytest.raises(ValueError):
            cb.index_of_pmi(TypeIPmi(0, 0, 1, (0,)))
        with pytest.raises(ValueError):
            cb.index_of_pmi(TypeIPmi(0, 0, 0, (4,)))
        with pytest.raises(ValueError):
            cb.index_of_pmi(TypeIPmi(-1, 0, 0, (0,)))
        # Entries are wideband: every subband must report the same i2.
        for i2 in [(0, 3, 1), ()]:
            with pytest.raises(ValueError, match="wideband"):
                cb.index_of_pmi(TypeIPmi(0, 0, 0, i2))
        assert cb.index_of_pmi(TypeIPmi(0, 0, 0, (3, 3, 3))) == 3
        with pytest.raises(ValueError):
            cb.pmi_of(len(cb))
        with pytest.raises(ValueError):
            cb.pmi_of(-1)

    def test_pmi_indices_must_be_integers(self):
        """Bools (numpy would read True as 1) and floats are refused by field
        name; numpy integers are accepted and give Python ints back."""
        cfg, ov = _panel(2, 1)
        cb = build_type1_codebook(cfg, 1, ov)
        for field, pmi in (("i11", TypeIPmi(True, 0, 0, (0,))),
                           ("i11", TypeIPmi(1.0, 0, 0, (0,))),
                           ("i12", TypeIPmi(0, False, 0, (0,))),
                           ("i13", TypeIPmi(0, 0, 0.0, (0,))),
                           ("i2_per_subband", TypeIPmi(0, 0, 0, (1, True))),
                           ("i2_per_subband", TypeIPmi(0, 0, 0, (np.float64(1.0),)))):
            with pytest.raises(ValueError, match=f"^{field} must be integer"):
                cb.index_of_pmi(pmi)
        for e in (True, False, 3.0, np.float64(3.0), np.bool_(True)):
            with pytest.raises(ValueError, match="^entry must be integer"):
                cb.pmi_of(e)
        pmi = TypeIPmi(np.int64(1), np.int32(0), np.uint8(0), (np.int16(3), np.int16(3)))
        assert cb.index_of_pmi(pmi) == 7
        assert cb.pmi_of(np.int64(7)) == TypeIPmi(1, 0, 0, (3,))
        got = cb.pmi_of(np.uint16(7))
        assert all(type(i) is int for i in (got.i11, got.i12, got.i13, *got.i2_per_subband))
        for entries in ([True], np.array([1.0])):
            with pytest.raises(ValueError, match="^entries must be integers"):
                cb.precoders(entries)

    def test_precoders_refuse_non_1d_entries(self):
        """A scalar or a 2-D entry array is refused by name (numpy would fail
        on the scalar's indexing or on broadcasting the 2-D one); an empty
        1-D array gives no precoders."""
        cfg, ov = _panel(4, 1)
        cb = build_type1_codebook(cfg, 3, ov)
        for entries in (3, np.int64(3), np.zeros((2, 3), dtype=int), [[0], [1]]):
            with pytest.raises(ValueError, match=r"^entries must be a 1-D array, got shape"):
                cb.precoders(entries)
        for entries in ([], np.array([], dtype=np.int32)):
            assert cb.precoders(entries).shape == (0, cfg.num_ports, 3)

    @pytest.mark.parametrize("entry", [64, -1])
    def test_precoders_refuse_out_of_range_entries(self, entry):
        """An entry outside the codebook is refused by name with the range,
        as pmi_of refuses it (numpy's unravel_index names neither)."""
        cfg, ov = _panel(4, 1)
        cb = build_type1_codebook(cfg, 1, ov)
        assert len(cb) == 64
        with pytest.raises(ValueError, match=rf"^entries out of range \[0, 64\): \[{entry}\]$"):
            cb.precoders([0, entry, 63])

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_precoders_match_reference_materialization(self, layout):
        """precoders(entries) is the full materialization
        precoders(np.arange(len(cb))) at those entries bit for bit, for
        random, repeated and empty entry arrays: an entry's bits do not
        depend on the batch it is built in."""
        cfg, ov = _panel(*layout)
        rng = np.random.default_rng(100 * layout[0] + layout[1])
        for rank in (1, 2, 3, 4):
            cb = build_type1_codebook(cfg, rank, ov)
            full = cb.precoders(np.arange(len(cb)))
            picks = rng.integers(0, len(cb), 40)
            for entries in (picks, np.repeat(picks[:3], 4), [], np.array([], dtype=int)):
                w = cb.precoders(entries)
                assert w.shape == (len(entries), cfg.num_ports, rank)
                assert w.tobytes() == full[np.asarray(entries, dtype=int)].tobytes()

    def test_build_keeps_only_the_tables(self):
        """Building ranks 1-4 of the 16-port panel keeps the generating
        tables, not the 512 + 3 * 1024 precoder matrices (2.5 MB); precoders
        builds the matrices of the entries it is asked for."""
        cfg, ov = _panel(4, 2)
        build_type1_codebook.cache_clear()
        tracemalloc.start()
        try:
            cbs = [build_type1_codebook(cfg, rank, ov) for rank in (1, 2, 3, 4)]
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(cb) for cb in cbs] == [512, 1024, 1024, 1024]
        assert retained < 256 * 1024

    @pytest.mark.parametrize("rank", [0, 5, -1])
    def test_invalid_rank(self, rank):
        cfg, ov = _panel(4, 1)
        with pytest.raises(ValueError):
            build_type1_codebook(cfg, rank, ov)


class TestType2Structure:
    def test_amplitude_alphabets(self):
        assert TYPE2_WB_AMPLITUDES[0] == 0.0
        assert TYPE2_WB_AMPLITUDES[-1] == 1.0
        assert np.all(np.diff(TYPE2_WB_AMPLITUDES) > 0)
        # Consecutive nonzero levels differ by 3 dB (a factor sqrt(2)).
        ratios = TYPE2_WB_AMPLITUDES[2:] / TYPE2_WB_AMPLITUDES[1:-1]
        assert np.allclose(ratios, math.sqrt(2.0), atol=1e-12)
        assert np.allclose(TYPE2_SB_AMPLITUDES, [math.sqrt(0.5), 1.0], atol=1e-15)

    def test_combination_counts(self):
        cfg, ov = _panel(4, 1)
        assert build_type2_structure(cfg, Type2Config(num_beams=4), ov).combos.shape == (1, 4)
        assert build_type2_structure(cfg, Type2Config(num_beams=2), ov).combos.shape == (6, 2)
        assert build_type2_structure(cfg, Type2Config(num_beams=3), ov).combos.shape == (4, 3)

    def test_combination_round_trip(self):
        """combos lists every B-subset once, each ascending, in lexicographic order."""
        cfg, ov = _panel(4, 2)
        space = build_type2_structure(cfg, Type2Config(num_beams=3), ov)
        rows = [tuple(row) for row in space.combos.tolist()]
        assert len(rows) == math.comb(8, 3)
        assert len(set(rows)) == len(rows)
        assert all(list(row) == sorted(set(row)) for row in rows)
        assert all(0 <= b < 8 for row in rows for b in row)
        assert rows == sorted(rows)

    def test_too_many_beams_for_grid(self):
        cfg, ov = _panel(2, 1)
        with pytest.raises(ValueError):
            build_type2_structure(cfg, Type2Config(num_beams=4), ov)

    def test_rotated_basis_is_orthogonal(self):
        cfg, ov = _panel(4, 2)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        assert space.beams.shape == (ov.o1, ov.o2, 8, 8)
        for q1, q2 in itertools.product(range(ov.o1), range(ov.o2)):
            basis = space.beams[q1, q2]
            gram = basis.conj() @ basis.T
            assert np.allclose(gram, cfg.n1 * cfg.n2 * np.eye(cfg.n1 * cfg.n2), atol=1e-9)
            # Row b = x1*n2 + x2 is the grid beam at (q1 + o1*x1, q2 + o2*x2).
            for x1, x2 in itertools.product(range(cfg.n1), range(cfg.n2)):
                beam = dft_beam(q1 + ov.o1 * x1, q2 + ov.o2 * x2, cfg, ov)
                assert np.array_equal(basis[x1 * cfg.n2 + x2], beam)

    def test_rotation_range(self):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        for i11, i12 in (((4, 0), 0), ((0, 1), 0), ((-1, 0), 0), ((0, -1), 0),
                         ((0, 0), 1), ((0, 0), -1)):
            pmi = replace(_single_beam_pmi(0), i11=i11, i12=i12)
            with pytest.raises(ValueError):
                realize_type2_precoder(space, pmi)

    def test_psk_grid_nesting(self):
        """A QPSK PMI with co-phase i realizes the 8PSK PMI with co-phase 2i."""
        cfg, ov = _panel(4, 1)
        coarse = build_type2_structure(cfg, Type2Config(n_psk=4), ov)
        fine = build_type2_structure(cfg, Type2Config(n_psk=8), ov)
        rng = np.random.default_rng(5)
        cophase = rng.integers(0, 4, (2, 3, 8))
        sb_amp = rng.integers(0, 2, (2, 3, 8))
        pmi = TypeIIPmi((1, 0), 0, _nested(rng.integers(1, 8, (2, 8))),
                        _nested(cophase), _nested(sb_amp))
        doubled = replace(pmi, subband_cophase=_nested(2 * cophase))
        w4 = realize_type2_precoder(coarse, pmi)
        w8 = realize_type2_precoder(fine, doubled)
        assert w4.shape == (3, 8, 2)
        assert np.allclose(w4, w8, atol=1e-12)

    @pytest.mark.parametrize("bad", [{"num_beams": 5}, {"num_beams": 1}, {"n_psk": 16}])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            Type2Config(**bad)

    @pytest.mark.parametrize("field, value", [
        ("n_psk", 4.0), ("n_psk", 8.0), ("num_beams", 2.0), ("num_beams", 4.0),
        ("n_psk", True), ("num_beams", True), ("num_beams", np.float64(4.0)),
    ])
    def test_config_refuses_float_and_bool(self, field, value):
        """A float or bool equal to an allowed value is refused by name, not
        built and charged as the integer it equals."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            Type2Config(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = Type2Config(num_beams=np.int64(2), n_psk=np.int32(4))
        assert cfg == Type2Config(num_beams=2, n_psk=4)
        assert type(cfg.num_beams) is int and type(cfg.n_psk) is int


def _nested(a):
    """Nested tuples of Python ints, the PMI report format."""
    return tuple(_nested(x) for x in a) if np.ndim(a) else int(a)


def _single_beam_pmi(beam_pos, wb_idx=7, num_beams=4, num_subbands=1, rank=1):
    """PMI whose only nonzero coefficient sits at position beam_pos."""
    wb = tuple(wb_idx if j == beam_pos else 0 for j in range(2 * num_beams))
    zeros = tuple(0 for _ in range(2 * num_beams))
    per_layer_sb = tuple(zeros for _ in range(num_subbands))
    return TypeIIPmi(
        i11=(0, 0),
        i12=0,
        wideband_amplitudes=tuple(wb for _ in range(rank)),
        subband_cophase=tuple(per_layer_sb for _ in range(rank)),
        subband_amplitude=tuple(per_layer_sb for _ in range(rank)),
    )


class TestType2Realization:
    def test_single_coefficient_selects_one_beam(self):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        beams = space.beams[0, 0]
        for b in range(4):
            w = realize_type2_precoder(space, _single_beam_pmi(b))
            assert w.shape == (1, 8, 1)
            # First polarization carries beam b scaled to unit norm, second is silent.
            assert np.allclose(w[0, :4, 0], beams[b] / 2.0, atol=1e-12)
            assert np.allclose(w[0, 4:, 0], 0.0, atol=1e-15)

    def test_equal_split_across_polarizations(self):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        wb = (7, 0, 0, 0, 7, 0, 0, 0)
        zeros = ((0,) * 8,)
        pmi = TypeIIPmi((0, 0), 0, (wb,), (zeros,), (zeros,))
        w = realize_type2_precoder(space, pmi)[0]
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w[:4, 0], w[4:, 0], atol=1e-12)
        assert np.allclose(np.abs(w[:, 0]), 1.0 / math.sqrt(8.0), atol=1e-12)

    def test_subbands_are_independent(self):
        """Changing subband k's co-phase changes w[k] and no other subband."""
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        rng = np.random.default_rng(6)
        cophase = rng.integers(0, 8, (2, 4, 8))
        pmi = TypeIIPmi((2, 0), 0, _nested(rng.integers(1, 8, (2, 8))), _nested(cophase),
                        _nested(rng.integers(0, 2, (2, 4, 8))))
        base = realize_type2_precoder(space, pmi)
        for k in range(4):
            changed = cophase.copy()
            changed[0, k, 3] = (changed[0, k, 3] + 1) % 8
            w = realize_type2_precoder(space, replace(pmi, subband_cophase=_nested(changed)))
            others = [j for j in range(4) if j != k]
            assert np.array_equal(w[others], base[others])
            assert not np.allclose(w[k], base[k], atol=1e-6)

    @pytest.mark.parametrize("field,value", [
        ("wideband_amplitudes", -1), ("wideband_amplitudes", 8),
        ("subband_amplitude", -1), ("subband_amplitude", 2),
        ("subband_cophase", -1), ("subband_cophase", 8),
    ])
    def test_coefficient_index_range(self, field, value):
        """An out-of-range coefficient index is rejected, never wrapped."""
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4, n_psk=8), ov)
        pmi = _single_beam_pmi(0, num_subbands=2)
        indices = np.asarray(getattr(pmi, field))
        indices[(0,) * indices.ndim] = value
        with pytest.raises(ValueError, match="indices must be in"):
            realize_type2_precoder(space, replace(pmi, **{field: _nested(indices)}))

    @pytest.mark.parametrize("changes, field", [
        # One wideband amplitude and one subband bit per subband would broadcast
        # to a (3, 8, 1) precoder.
        ({"wideband_amplitudes": ((7,),), "subband_amplitude": (((1,),) * 3,)},
         "wideband_amplitudes"),
        ({"subband_amplitude": (((1,),) * 3,)}, "subband_amplitude"),
        ({"subband_amplitude": (((0,) * 8,) * 2,)}, "subband_amplitude"),  # 2 subbands, not 3
        ({"subband_cophase": ((0,) * 8,)}, "subband_cophase"),  # no subband axis
        ({"subband_cophase": (((0,) * 8,) * 3,) * 2}, "subband_cophase"),  # 2 layers at rank 1
        ({"wideband_amplitudes": ((7,) + (0,) * 8,)}, "wideband_amplitudes"),  # 2B + 1
    ], ids=["broadcast", "one-bit-per-subband", "subband-count", "no-subband-axis",
            "layer-count", "wideband-width"])
    def test_malformed_shape_names_field(self, changes, field):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        pmi = replace(_single_beam_pmi(0, num_subbands=3), **changes)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            realize_type2_precoder(space, pmi)

    @pytest.mark.parametrize("field, value", [
        ("wideband_amplitudes", ((7, 0, 0, 0, 0, 0, 0, 0), (7, 0))),
        ("subband_cophase", (((0,) * 8, (0,) * 7, (0,) * 8),)),
        ("subband_amplitude", (((0,) * 8, 0, (0,) * 8),)),
    ])
    def test_ragged_tuples_name_field(self, field, value):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        pmi = replace(_single_beam_pmi(0, num_subbands=3), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} is ragged"):
            realize_type2_precoder(space, pmi)

    @pytest.mark.parametrize("changes, field", [
        ({"wideband_amplitudes": ((7.0,) + (0,) * 7,)}, "wideband_amplitudes"),
        ({"subband_amplitude": (((True,) + (False,) * 7,) * 3,)}, "subband_amplitude"),
        ({"subband_cophase": (((0.5,) + (0,) * 7,) * 3,)}, "subband_cophase"),
        ({"i11": (0.5, 0)}, "i11"),
        ({"i11": (True, 0)}, "i11"),
        ({"i12": 0.0}, "i12"),
    ], ids=["float-wideband", "bool-subband-amplitude", "float-cophase", "float-i11",
            "bool-i11", "float-i12"])
    def test_non_integer_index_names_field(self, changes, field):
        """A float or bool PMI index is refused by name, not read by numpy as
        a mask or an IndexError."""
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        pmi = replace(_single_beam_pmi(0, num_subbands=3), **changes)
        with pytest.raises(ValueError, match=f"^{field} (indices )?must be integer"):
            realize_type2_precoder(space, pmi)

    def test_numpy_integer_indices_accepted(self):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        pmi = _single_beam_pmi(0)
        w = realize_type2_precoder(space, replace(pmi, i11=(np.int64(0), np.uint8(0)),
                                                  i12=np.int32(0)))
        assert np.array_equal(w, realize_type2_precoder(space, pmi))

    def test_rank_above_limit(self):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        with pytest.raises(ValueError, match="rank 3"):
            realize_type2_precoder(space, _single_beam_pmi(0, rank=3))

    def test_all_zero_layer_rejected(self):
        cfg, ov = _panel(4, 1)
        space = build_type2_structure(cfg, Type2Config(num_beams=4), ov)
        with pytest.raises(ValueError):
            realize_type2_precoder(space, _single_beam_pmi(0, wb_idx=0))


@settings(deadline=None)
@given(
    num_beams=st.integers(min_value=2, max_value=4),
    n_psk=st.sampled_from([4, 8]),
    rank=st.integers(min_value=1, max_value=2),
    num_subbands=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_realized_precoder_normalization(num_beams, n_psk, rank, num_subbands, data):
    """Any valid PMI realizes to unit Frobenius norm with equal column power,
    and every subband matches the per-subband loop formula built from
    dft_beam."""
    cfg, ov = _panel(4, 1)
    space = build_type2_structure(cfg, Type2Config(num_beams, n_psk), ov)
    two_b = 2 * num_beams

    def coeff_rows(values):
        return st.tuples(*[values] * two_b)

    wb_layer = coeff_rows(st.integers(min_value=0, max_value=7)).filter(
        lambda t: any(v > 0 for v in t)
    )
    per_sb = lambda values: st.tuples(*[coeff_rows(values)] * num_subbands)
    pmi = TypeIIPmi(
        i11=(data.draw(st.integers(0, ov.o1 - 1)), data.draw(st.integers(0, ov.o2 - 1))),
        i12=data.draw(st.integers(0, len(space.combos) - 1)),
        wideband_amplitudes=tuple(data.draw(wb_layer) for _ in range(rank)),
        subband_cophase=tuple(
            data.draw(per_sb(st.integers(0, n_psk - 1))) for _ in range(rank)
        ),
        subband_amplitude=tuple(
            data.draw(per_sb(st.integers(0, 1))) for _ in range(rank)
        ),
    )
    assert pmi.rank == rank
    assert len(pmi.subband_cophase[0]) == num_subbands
    w = realize_type2_precoder(space, pmi)
    assert w.shape == (num_subbands, cfg.num_ports, rank)
    assert np.allclose(np.linalg.norm(w, axis=(1, 2)), 1.0, atol=1e-9)
    col_power = np.sum(np.abs(w) ** 2, axis=1)
    assert np.allclose(col_power, 1.0 / rank, atol=1e-9)
    q1, q2 = pmi.i11
    subset = list(itertools.combinations(range(4), num_beams))[pmi.i12]
    beams = np.stack([dft_beam(q1 + ov.o1 * b, q2, cfg, ov) for b in subset])
    for k in range(num_subbands):
        for layer in range(rank):
            coeff = (TYPE2_WB_AMPLITUDES[list(pmi.wideband_amplitudes[layer])]
                     * TYPE2_SB_AMPLITUDES[list(pmi.subband_amplitude[layer][k])]
                     * np.exp(2j * np.pi * np.asarray(pmi.subband_cophase[layer][k]) / n_psk))
            col = np.concatenate([coeff[:num_beams] @ beams, coeff[num_beams:] @ beams])
            want = col / np.linalg.norm(col) / math.sqrt(rank)
            assert np.allclose(w[k, :, layer], want, atol=1e-12)
