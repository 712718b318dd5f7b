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
)


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


def test_saturate_clamps_symmetrically():
    values = np.array([-40, -15, -8, 0, 8, 15, 40])
    assert list(saturate(values, 4)) == [-7, -7, -7, 0, 7, 7, 7]
    assert list(saturate(values, 5)) == [-15, -15, -8, 0, 8, 15, 15]


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
