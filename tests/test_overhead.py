"""Report bit-widths read from the codebook structures, and expected-overhead
accounting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nrsim import (
    AntennaConfig,
    Type2Config,
    build_type1_codebook,
    build_type2_structure,
    expected_overhead,
    oversampling_factors,
    type1_overhead_bits,
    type2_overhead_bits,
)
from nrsim.codebook import _OVERSAMPLING

LAYOUTS = list(_OVERSAMPLING)  # every supported (n1, n2) port layout


def _panel(n1, n2):
    cfg = AntennaConfig(n1, n2)
    return cfg, oversampling_factors(cfg)


def _type1(layout, rank, subbands=1):
    cfg, ov = _panel(*layout)
    return type1_overhead_bits(build_type1_codebook(cfg, rank, ov), subbands)


def _type2(layout, t2, layers, subbands=1):
    cfg, ov = _panel(*layout)
    return type2_overhead_bits(build_type2_structure(cfg, t2, ov), layers, subbands)


class TestType1:
    def test_worked_examples_8_ports(self):
        assert _type1((4, 1), 1, 1).total_bits == 6
        assert _type1((4, 1), 2, 1).total_bits == 7

    def test_breakdown_fields_rank1(self):
        bd = _type1((4, 1), 1, 1)
        assert bd.per_index_bits == {"i11": 4, "i12": 0, "i13": 0, "i2": 2}

    def test_no_vertical_grid_means_zero_i12(self):
        for n1 in (2, 4, 6, 8, 12, 16):
            for rank in (1, 2, 3, 4):
                assert _type1((n1, 1), rank, 1).per_index_bits["i12"] == 0

    def test_subband_replication(self):
        wideband = _type1((4, 1), 2, 1)
        wide13 = _type1((4, 1), 2, 13)
        assert wide13.per_index_bits["i2"] == 13 * wideband.per_index_bits["i2"]
        assert wide13.total_bits == wideband.total_bits + 12 * wideband.per_index_bits["i2"]

    @pytest.mark.parametrize("rank", [0, 5, -1])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError, match="rank"):
            _type1((4, 1), rank, 1)


class TestType2:
    def test_worked_example_b4(self):
        bd = _type2((4, 1), Type2Config(num_beams=4, n_psk=8), 1, 1)
        assert bd.per_index_bits == {
            "i11": 2, "i12": 0, "i131": 2, "i141": 24, "i211": 24, "i221": 8,
        }
        assert bd.total_bits == 60

    def test_worked_example_b2(self):
        bd = _type2((2, 1), Type2Config(num_beams=2, n_psk=4), 1, 1)
        assert bd.total_bits == 27

    def test_monotone_in_beam_count(self):
        small = _type2((4, 1), Type2Config(num_beams=2, n_psk=8), 1, 1)
        large = _type2((4, 1), Type2Config(num_beams=4, n_psk=8), 1, 1)
        assert large.total_bits > small.total_bits

    def test_two_layer_report_sums_both_families(self):
        t2 = Type2Config(num_beams=4, n_psk=8)
        one = _type2((4, 1), t2, 1, 13)
        two = _type2((4, 1), t2, 2, 13)
        per_layer = one.total_bits - one.per_index_bits["i11"] - one.per_index_bits["i12"]
        assert two.total_bits == one.total_bits + per_layer
        assert set(two.per_index_bits) == {
            "i11", "i12", "i131", "i141", "i211", "i221", "i132", "i142", "i212", "i222",
        }

    @pytest.mark.parametrize("layers", [0, 3])
    def test_layers_out_of_range(self, layers):
        with pytest.raises(ValueError):
            _type2((4, 1), Type2Config(num_beams=4, n_psk=8), layers, 1)

    def test_beams_exceeding_grid(self):
        with pytest.raises(ValueError):
            _type2((2, 1), Type2Config(num_beams=4, n_psk=8), 1, 1)

    def test_type2_costs_more_than_type1_on_8_ports(self):
        t2 = Type2Config(num_beams=4, n_psk=8)
        for subbands in (1, 13):
            for rank in (1, 2):
                q1 = _type1((4, 1), rank, subbands).total_bits
                q2 = _type2((4, 1), t2, rank, subbands).total_bits
                assert q2 > q1


@given(
    layout=st.sampled_from(LAYOUTS),
    rank=st.integers(min_value=1, max_value=4),
    subbands=st.integers(min_value=1, max_value=24),
)
def test_type1_total_is_sum_of_parts(layout, rank, subbands):
    bd = _type1(layout, rank, subbands)
    assert bd.total_bits == sum(bd.per_index_bits.values())
    assert all(v >= 0 for v in bd.per_index_bits.values())


@given(
    layout=st.sampled_from([l for l in LAYOUTS if l[0] * l[1] >= 4]),
    beams=st.integers(min_value=2, max_value=4),
    n_psk=st.sampled_from([4, 8]),
    layers=st.integers(min_value=1, max_value=2),
    subbands=st.integers(min_value=1, max_value=24),
)
def test_type2_total_is_sum_of_parts(layout, beams, n_psk, layers, subbands):
    bd = _type2(layout, Type2Config(beams, n_psk), layers, subbands)
    assert bd.total_bits == sum(bd.per_index_bits.values())
    assert all(v >= 0 for v in bd.per_index_bits.values())


@given(
    layout=st.sampled_from(LAYOUTS),
    rank=st.integers(min_value=1, max_value=4),
)
def test_type1_ceiling_within_one_bit(layout, rank):
    """Each index is the ceiling of its real-valued width."""
    cfg, ov = _panel(*layout)
    bd = _type1(layout, rank, 1)
    raw = {
        "i11": math.log2(cfg.n1 * ov.o1),
        "i12": math.log2(cfg.n2 * ov.o2),
        "i13": 0.0 if rank == 1 else 2.0,
        "i2": 2.0 if rank == 1 else 1.0,
    }
    for key, exact in raw.items():
        assert 0 <= bd.per_index_bits[key] - exact < 1


@given(
    beams=st.integers(min_value=2, max_value=4),
    n_psk=st.sampled_from([4, 8]),
)
def test_type2_ceiling_within_one_bit(beams, n_psk):
    cfg, ov = _panel(4, 2)
    bd = _type2((4, 2), Type2Config(beams, n_psk), 1, 1)
    raw = {
        "i11": math.log2(ov.o1) + math.log2(ov.o2),
        "i12": math.log2(math.comb(cfg.n1 * cfg.n2, beams)),
        "i131": math.log2(beams),
        "i141": 2 * beams * 3.0,
        "i211": 2 * beams * math.log2(n_psk),
        "i221": 2 * beams * 1.0,
    }
    for key, exact in raw.items():
        # i11 sums two independent ceilings, so allow one bit per term.
        slack = 2 if key == "i11" else 1
        assert 0 <= bd.per_index_bits[key] - exact < slack


def _ceil_log2(n):
    return math.ceil(math.log2(n))


def _type1_closed_form(cfg, ov, rank, subbands):
    return {
        "i11": _ceil_log2(cfg.n1 * ov.o1),
        "i12": _ceil_log2(cfg.n2 * ov.o2),
        "i13": 0 if rank == 1 else 2,
        "i2": subbands * (2 if rank == 1 else 1),
    }


def _type2_closed_form(cfg, ov, t2, layers, subbands):
    two_b = 2 * t2.num_beams
    per = {
        "i11": _ceil_log2(ov.o1) + _ceil_log2(ov.o2),
        "i12": _ceil_log2(math.comb(cfg.n1 * cfg.n2, t2.num_beams)),
    }
    for layer in range(1, layers + 1):
        per[f"i13{layer}"] = _ceil_log2(t2.num_beams)
        per[f"i14{layer}"] = two_b * 3
        per[f"i21{layer}"] = subbands * two_b * _ceil_log2(t2.n_psk)
        per[f"i22{layer}"] = subbands * two_b
    return per


def test_breakdowns_match_closed_forms():
    """The widths read from the codebook structures equal the report-size
    formulas (rank-1 i2 of 2 bits, i13 of 2 bits at ranks 2-4, 3-bit
    wideband and 1-bit subband amplitudes, ...), key order included, on
    every supported layout."""
    cases = 0
    for layout in LAYOUTS:
        cfg, ov = _panel(*layout)
        for rank, subbands in itertools.product((1, 2, 3, 4), (1, 13, 52)):
            bd = _type1(layout, rank, subbands)
            assert list(bd.per_index_bits.items()) == list(
                _type1_closed_form(cfg, ov, rank, subbands).items()), (layout, rank, subbands)
            assert bd.total_bits == sum(bd.per_index_bits.values())
            cases += 1
        for beams, n_psk, layers, subbands in itertools.product(
                range(2, min(4, cfg.n1 * cfg.n2) + 1), (4, 8), (1, 2), (1, 13)):
            t2 = Type2Config(beams, n_psk)
            bd = _type2(layout, t2, layers, subbands)
            assert list(bd.per_index_bits.items()) == list(
                _type2_closed_form(cfg, ov, t2, layers, subbands).items()), (layout, t2, layers)
            assert bd.total_bits == sum(bd.per_index_bits.values())
            cases += 1
    assert cases == 452


class TestExpectedOverhead:
    def test_degenerate_distribution(self):
        assert expected_overhead([1.0], [6]) == 6.0

    def test_midpoint(self):
        assert expected_overhead([0.5, 0.5], [6, 8]) == pytest.approx(7.0, abs=1e-12)

    def test_weighted(self):
        assert expected_overhead([0.25, 0.75], [4, 8]) == pytest.approx(7.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_overhead([0.5, 0.5], [6])

    def test_non_normalized(self):
        with pytest.raises(ValueError):
            expected_overhead([0.5, 0.4], [6, 8])

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            expected_overhead([1.5, -0.5], [6, 8])

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=6),
           st.data())
    def test_bounded_by_extremes(self, weights, data):
        probs = np.asarray(weights) / np.sum(weights)
        bits = data.draw(st.lists(st.integers(min_value=0, max_value=4000),
                                  min_size=len(weights), max_size=len(weights)))
        value = expected_overhead(probs, bits)
        assert min(bits) - 1e-9 <= value <= max(bits) + 1e-9
