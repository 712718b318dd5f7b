import re

import numpy as np
import pytest

from fastpolar.core import (
    FAST_TAG_BY_K,
    CodeSpec,
    PatternTag,
    QuantizedLLR,
    TraversalStats,
    canonical_frozen_mask,
    hard_decision,
    saturate,
    saturation_limit,
    wagner,
)
from fastpolar.decoder import decode_node, fast_sc_decode, g_bit
from fastpolar.oracle import sc_decode_baseline
from fastpolar.simulation import default_llr_scale, quantize_channel


def _canonical_segment(k, bch=False):
    """A one-segment layout holding k info bits at canonical positions."""
    return CodeSpec(N=16, K=k, info_set=range(16 - k, 16), bch_segments={0} if bch else ())


def test_pattern_from_k_covers_fast_counts():
    expected = {
        0: PatternTag.RATE0,
        1: PatternTag.REP,
        2: PatternTag.REP2,
        3: PatternTag.PCR,
        7: PatternTag.BCH_T2,
        11: PatternTag.BCH_T1,
        13: PatternTag.RPC,
        14: PatternTag.SPC2,
        15: PatternTag.SPC,
        16: PatternTag.RATE1,
    }
    assert FAST_TAG_BY_K == expected
    for k, tag in expected.items():
        bch = tag in (PatternTag.BCH_T1, PatternTag.BCH_T2)
        assert _canonical_segment(k, bch).segments == (tag,)


def test_pattern_from_k_falls_back_to_slow():
    for k in (4, 5, 6, 8, 9, 10, 12):
        assert _canonical_segment(k).segments == (PatternTag.SLOW,)
    # a canonical 7 or 11 is BCH only in a BCH segment
    assert _canonical_segment(7).segments == (PatternTag.SLOW,)
    assert _canonical_segment(11).segments == (PatternTag.SLOW,)


def test_pattern_rejects_mismatched_k():
    # only the two BCH counts can mark a canonical segment as BCH
    for k in range(17):
        if k in (7, 11):
            assert _canonical_segment(k, bch=True).segments[0] is FAST_TAG_BY_K[k]
        else:
            with pytest.raises(ValueError):
                _canonical_segment(k, bch=True)


def test_code_spec_basic_properties():
    spec = CodeSpec(N=16, K=4, info_set=frozenset({9, 15, 3, 11}))
    assert spec.n == 4
    assert spec.segment_count == 1
    assert list(spec.info_positions) == [3, 9, 11, 15]
    assert spec.frozen_set == frozenset(range(16)) - {3, 9, 11, 15}
    mask = spec.frozen_mask
    assert mask.sum() == 12
    assert not mask[[3, 9, 11, 15]].any()


def test_code_spec_arrays_are_built_once_and_read_only():
    spec = CodeSpec(N=16, K=4, info_set=frozenset({9, 15, 3, 11}))
    for name in ("info_positions", "frozen_mask"):
        array = getattr(spec, name)
        assert getattr(spec, name) is array
        with pytest.raises(ValueError):
            array[0] = 1


def test_code_spec_accepts_plain_iterables():
    spec = CodeSpec(N=8, K=3, info_set=[5, 6, 7])
    assert spec.info_set == frozenset({5, 6, 7})


def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(N=24, K=4, info_set=frozenset({0, 1, 2, 3}))
    with pytest.raises(ValueError):
        CodeSpec(N=2048, K=4, info_set=frozenset({0, 1, 2, 3}))
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=3, info_set=frozenset({1, 2, 3, 4}))
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=1, info_set=frozenset({16}))
    for info_set, bch in (({2.5}, ()), ({True, 3}, ()), ({np.bool_(True), 3}, ()),
                          ({1.0}, ()), ({15}, {0.0}), ({15}, {False})):
        with pytest.raises(ValueError, match="integers"):
            CodeSpec(N=16, K=len(info_set), info_set=info_set, bch_segments=bch)
    for N, K in ((16, 1.0), (16, True), (16.0, 1), (np.float64(16), 1), (16, np.bool_(True))):
        with pytest.raises(ValueError, match="N and K must be integers"):
            CodeSpec(N=N, K=K, info_set={3})
    numpy_ints = CodeSpec(N=np.int64(16), K=np.uint8(2), info_set={np.int64(3), np.uint8(15)})
    assert numpy_ints == CodeSpec(N=16, K=2, info_set={3, 15})
    assert numpy_ints.info_positions.tolist() == [3, 15]
    info = np.flatnonzero(~canonical_frozen_mask(11)).astype(np.int32)
    assert CodeSpec(N=16, K=11, info_set=info, bch_segments=[np.intp(0)]).segments \
        == (PatternTag.BCH_T1,)


def test_code_spec_checks_entries_before_the_set_merges_them():
    for info_set in ([1, 1.0], [1.0, 1]):
        with pytest.raises(ValueError, match="must be integers, got 1.0"):
            CodeSpec(N=16, K=1, info_set=info_set)
    with pytest.raises(ValueError, match="must be integers, got 0.0"):
        CodeSpec(N=32, K=7, info_set=range(9, 16), bch_segments=[0, 0.0])
    layout = CodeSpec(N=np.int64(16), K=np.int64(1), info_set={np.int64(15)},
                      bch_segments=np.array([], dtype=np.int64))
    assert all(type(v) is int for v in (layout.N, layout.K, *layout.info_set))


def test_canonical_frozen_mask_places_info_high():
    mask = canonical_frozen_mask(3)
    assert mask[:13].all()
    assert not mask[13:].any()
    assert canonical_frozen_mask(0).all()
    assert not canonical_frozen_mask(16).any()
    with pytest.raises(ValueError):
        canonical_frozen_mask(17)


def _fast_layout(ks):
    info = []
    for t, k in enumerate(ks):
        info.extend(range(t * 16 + 16 - k, t * 16 + 16))
    bch = {t for t, k in enumerate(ks) if k in (7, 11)}
    return CodeSpec(N=16 * len(ks), K=sum(ks), info_set=frozenset(info), bch_segments=bch)


def test_fast_polar_code_accepts_canonical_layout():
    code = _fast_layout([0, 7, 11, 16])
    assert code.N == 64
    assert code.K == 34
    assert code.bch_segments == {1, 2}
    assert code.segments == (
        PatternTag.RATE0, PatternTag.BCH_T2, PatternTag.BCH_T1, PatternTag.RATE1)


def test_fast_polar_code_rejects_slow_segments():
    # a BCH segment needs 7 or 11 info bits
    spec = CodeSpec(N=32, K=9, info_set=frozenset(range(12, 16)) | frozenset(range(27, 32)))
    assert spec.segments == (PatternTag.SLOW, PatternTag.SLOW)
    for bch in ({0}, {1}):
        with pytest.raises(ValueError):
            CodeSpec(N=32, K=9, info_set=spec.info_set, bch_segments=bch)
    with pytest.raises(ValueError):
        CodeSpec(N=32, K=16, info_set=frozenset(range(16, 32)), bch_segments={1})


def test_fast_polar_code_rejects_non_canonical_positions():
    # a k=7 BCH segment must hold local indices 9..15, not 8..14
    info = frozenset(range(8, 15)) | frozenset(range(16, 32))
    assert CodeSpec(N=32, K=23, info_set=info).segments[0] is PatternTag.SLOW
    with pytest.raises(ValueError):
        CodeSpec(N=32, K=23, info_set=info, bch_segments={0})


def test_fast_polar_code_rejects_inconsistent_bch_map():
    info = frozenset(range(9, 16)) | frozenset(range(16, 32))
    with pytest.raises(ValueError):
        CodeSpec(N=32, K=23, info_set=info, bch_segments={2})
    plain = CodeSpec(N=32, K=23, info_set=info)
    assert plain.segments[0] is PatternTag.SLOW
    code = CodeSpec(N=32, K=23, info_set=info, bch_segments=[0])
    assert code.bch_segments == frozenset({0})
    assert code.segments[0] is PatternTag.BCH_T2
    assert code != plain


def test_code_spec_is_hashable_and_pickles_fields_only():
    code = _fast_layout([0, 7, 11, 16])
    assert code == _fast_layout([0, 7, 11, 16])
    assert hash(code) == hash(_fast_layout([0, 7, 11, 16]))
    assert code.segments and code.frozen_mask.any()    # cached on the instance
    assert set(code.__getstate__()) == {"N", "K", "info_set", "bch_segments"}


def test_saturation_limits():
    assert saturation_limit(4) == 7
    assert saturation_limit(5) == 15
    assert saturation_limit(8) == 127
    for width in (3, 9):
        with pytest.raises(ValueError):
            saturation_limit(width)
    assert saturation_limit(np.int64(5)) == 15 and type(saturation_limit(np.uint8(5))) is int


# Not an integer in [4, 8]: each must fail at the one gate, naming the width,
# rather than with a TypeError or by clipping as if the width were 5.
_BAD_WIDTHS = (5.0, "5", True, np.bool_(True), np.float64(5.0))


def test_every_width_taker_rejects_a_non_integer_width():
    spec = CodeSpec(N=16, K=8, info_set=range(8, 16))
    ints, floats = np.full(16, 3, dtype=np.int8), np.linspace(-20.0, 20.0, 16)
    takers = (saturation_limit, lambda w: saturate(floats, w),
              lambda w: g_bit(floats, floats, np.zeros(16, np.uint8), w),
              lambda w: g_bit(ints, ints, np.zeros(16, np.uint8), w, out=np.empty(16, np.int8)),
              lambda w: sc_decode_baseline(spec, floats, width=w),
              lambda w: fast_sc_decode(spec, ints, width=w),
              lambda w: decode_node(PatternTag.SPC, ints, width=w),
              lambda w: quantize_channel(floats, w, 1.0), lambda w: QuantizedLLR(ints, w),
              lambda w: default_llr_scale(w, 3.0, "qpsk"))
    for taker in takers:
        for width in _BAD_WIDTHS:
            with pytest.raises(ValueError, match=re.escape(f"got {width!r}")):
                taker(width)


def test_saturate_clamps_symmetrically():
    values = np.array([-40, -15, -8, 0, 8, 15, 40])
    assert list(saturate(values, 4)) == [-7, -7, -7, 0, 7, 7, 7]
    assert list(saturate(values, 5)) == [-15, -15, -8, 0, 8, 15, 15]


def test_saturate_covers_every_width_and_rejects_others():
    values = np.arange(-130, 131)
    for width in range(4, 9):
        limit = saturation_limit(width)
        assert np.array_equal(saturate(values, width), np.clip(values, -limit, limit))
    for width in (3, 9):
        with pytest.raises(ValueError):
            saturate(values, width)


def test_quantized_llr_validation():
    q = QuantizedLLR(np.array([3, -7, 0]), 4)
    assert q.limit == 7
    with pytest.raises(ValueError):
        QuantizedLLR(8, 4)
    with pytest.raises(ValueError):
        QuantizedLLR(np.array([0.5]), 5)
    with pytest.raises(ValueError):
        QuantizedLLR(0, 3)


def test_hard_decision_sign_convention():
    assert hard_decision(2.5) == 0
    assert hard_decision(-2.5) == 1
    # zero decides 0
    assert hard_decision(0.0) == 0
    out = hard_decision(np.array([1.0, -1.0, 0.0, -0.0]))
    assert out.dtype == np.uint8
    assert list(out) == [0, 1, 0, 0]


def test_traversal_stats_consistency():
    stats = TraversalStats(terminal_nodes=2, edges=4, f_ops=8,
                           histogram={PatternTag.RATE0: 1, PatternTag.SPC: 1})
    assert stats.visited_nodes == 5
    doc = stats.as_dict()
    assert doc["edges_directed"] == 8
    assert doc["histogram"] == {"rate0": 1, "spc": 1}
    with pytest.raises(ValueError):
        TraversalStats(terminal_nodes=3, edges=4, f_ops=8,
                       histogram={PatternTag.RATE0: 1})


def _wagner_by_put_along_axis(alpha, target=0):
    """Reference Wagner decision: a zero flip mask written by put_along_axis."""
    bits = (alpha < 0).astype(np.uint8)
    mag = np.abs(alpha.astype(np.int64 if alpha.dtype.kind == "i" else np.float64))
    parity = np.bitwise_xor.reduce(bits, axis=-1, keepdims=True) ^ np.asarray(target, np.uint8)
    flip = np.zeros(parity.shape[:-1] + bits.shape[-1:], dtype=np.uint8)
    np.put_along_axis(flip, mag.argmin(axis=-1)[..., None], parity, axis=-1)
    return bits ^ flip


def _rpc_target(alpha):
    """RPC's common parity for the rows along axis -2, as a (..., 1, 1) array:
    odd (True) when flipping the weakest position of each even row costs less."""
    odd = np.bitwise_xor.reduce((alpha < 0).astype(np.uint8), axis=-1)
    weakest = np.abs(alpha.astype(np.int64 if alpha.dtype.kind == "i" else np.float64)).min(axis=-1)
    to_even = np.where(odd, weakest, 0).sum(axis=-1)
    to_odd = np.where(odd, 0, weakest).sum(axis=-1)
    return (to_even > to_odd)[..., None, None]


@pytest.mark.parametrize("shape", [(16,), (1, 16), (1, 128), (1024, 16), (1024, 128), (3, 5, 32)])
@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_wagner_matches_a_put_along_axis_reference(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    if dtype == np.int8:
        # small magnitudes tie the minimum often; -128 has magnitude 128, not itself
        cases = [rng.integers(-3, 4, size=shape), rng.integers(-128, 128, size=shape),
                 np.where(rng.random(shape) < 0.9, -128, rng.integers(-2, 3, size=shape)),
                 np.full(shape, -128)]
    else:
        cases = [np.rint(rng.normal(size=shape) * 2), rng.normal(size=shape) * 5,
                 np.where(rng.random(shape) < 0.5, -0.0, 1.0)]
    for alpha in (np.asarray(a, dtype=dtype) for a in cases):
        before = alpha.copy()
        targets = [0, 1]
        if alpha.ndim >= 2:
            # RPC's target: one parity per group of rows, broadcast as (..., 1, 1)
            lead = shape[:-2] + (1, 1)
            targets += [rng.integers(0, 2, size=lead).astype(bool), rng.integers(0, 2, size=lead),
                        _rpc_target(alpha)]
        for target in targets:
            bits = wagner(alpha, target)
            assert bits.dtype == np.uint8 and bits.shape == shape
            assert np.array_equal(bits, _wagner_by_put_along_axis(alpha, target))
        if alpha.ndim >= 2:
            assert np.array_equal(wagner(alpha, None), wagner(alpha, _rpc_target(alpha)))
        assert np.array_equal(alpha, before)


def test_wagner_flips_on_strided_and_transposed_input():
    rng = np.random.default_rng(7)
    alpha = rng.integers(-5, 6, size=(12, 64)).astype(np.int8)
    for view in (alpha[:, ::2], alpha.T, alpha[::3, 8:40]):
        assert np.array_equal(wagner(view), _wagner_by_put_along_axis(view))
        assert np.array_equal(wagner(view, 1), _wagner_by_put_along_axis(view, 1))
