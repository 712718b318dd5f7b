import math

import numpy as np
import pytest

from fastpolar import construction
from fastpolar.construction import (
    DEFAULT_DESIGN_SNR_DB,
    InfeasibleConstructionError,
    ReliabilityOrder,
    _pw_weights,
    construct_fast_polar,
    construct_polar,
    layout_from_dict,
    layout_to_dict,
    reliability_sequence,
)
from fastpolar.core import FAST_TAG_BY_K, CodeSpec, PatternTag, canonical_frozen_mask

# Per-segment info counts for the reference layout (N=1024, K=896, GA at the
# default design SNR). Frozen as a regression golden.
REFERENCE_KS = [0, 1, 1, 7, 3, 11, 11, 15, 3, 11, 14, 16, 15, 16, 16, 16,
                3, 15, 15, 16, 15, 16, 16, 16, 15, 16, 16, 16, 16, 16, 16, 16,
                7, 15, 15, 16] + [16] * 28


def _segment_ks(code):
    """Per-segment info counts, read from the frozen mask."""
    return (16 - code.frozen_mask.reshape(-1, 16).sum(axis=1)).tolist()


def _segment(frozen, bch=False):
    """A one-segment layout with the given local frozen positions."""
    info = frozenset(range(16)) - frozenset(frozen)
    return CodeSpec(N=16, K=len(info), info_set=info, bch_segments={0} if bch else ())


def test_default_design_snr():
    assert DEFAULT_DESIGN_SNR_DB == 4.5


def test_reliability_order_is_permutation():
    for method in ("ga", "pw"):
        order = reliability_sequence(256, method)
        assert sorted(order.order) == list(range(256))
        assert order.N == 256
        assert order.method == method


def test_reliability_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        ReliabilityOrder(N=4, order=np.array([0, 1, 1, 3]), method="ga",
                         design_snr_db=4.5)


def test_pw_length_two_order():
    order = reliability_sequence(2, "pw")
    assert list(order.order) == [0, 1]
    assert order.design_snr_db is None


def test_pw_length_four_weights():
    beta = 2.0 ** 0.25
    expected = np.array([0.0, 1.0, beta, 1.0 + beta])
    assert np.allclose(_pw_weights(4), expected)


def test_ga_most_reliable_channel_at_two_db():
    order = reliability_sequence(32, "ga", design_snr_db=2.0)
    assert order.order[-1] == 31
    assert order.design_snr_db == 2.0


def test_reliability_sequence_validation():
    with pytest.raises(ValueError):
        reliability_sequence(48, "ga")
    with pytest.raises(ValueError):
        reliability_sequence(64, "density_evolution")


@pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
def test_ga_rejects_a_non_finite_design_snr(snr):
    for build in (reliability_sequence, construct_polar, construct_fast_polar):
        args = (64,) if build is reliability_sequence else (64, 48)
        with pytest.raises(ValueError, match="design SNR must be finite"):
            build(*args, "ga", snr)
    # PW ignores the design SNR
    assert reliability_sequence(64, "pw", snr).design_snr_db is None


def test_construct_polar_takes_most_reliable_positions():
    spec = construct_polar(16, 16, "pw")
    assert spec.info_set == frozenset(range(16))
    spec = construct_polar(64, 8, "ga")
    order = reliability_sequence(64, "ga")
    assert spec.info_set == frozenset(int(i) for i in order.order[-8:])


def test_classify_segment_canonical_fast_sets():
    # one segment per fast count, at canonical positions, in one layout
    ks = sorted(FAST_TAG_BY_K) + [16] * 6
    info = [16 * t + i for t, k in enumerate(ks) for i in range(16 - k, 16)]
    bch = {t for t, k in enumerate(ks) if k in (7, 11)}
    code = CodeSpec(N=256, K=len(info), info_set=info, bch_segments=bch)
    assert code.segments == tuple(FAST_TAG_BY_K[k] for k in ks)
    assert _segment_ks(code) == ks


def test_classify_segment_bch_needs_canonical_positions():
    # 7 or 11 information bits are BCH only at canonical positions
    for frozen in ({0, 1, 2, 3, 4, 10, 12, 13, 15}, {1, 3, 5, 7, 9}):
        assert _segment(frozen).segments == (PatternTag.SLOW,)
        with pytest.raises(ValueError):
            _segment(frozen, bch=True)
    assert _segment(range(9), bch=True).segments == (PatternTag.BCH_T2,)
    assert _segment(range(5), bch=True).segments == (PatternTag.BCH_T1,)


def test_classify_segment_non_canonical_falls_to_slow():
    # one info bit at local index 0 cannot decode as REP
    assert _segment(set(range(16)) - {0}).segments == (PatternTag.SLOW,)
    assert _segment(range(4)).segments == (PatternTag.SLOW,)


def test_classify_segment_total_over_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(300):
        size = int(rng.integers(0, 17))
        frozen = rng.choice(16, size=size, replace=False)
        k = 16 - size
        canonical = set(frozen.tolist()) == set(range(size))
        expected = FAST_TAG_BY_K.get(k, PatternTag.SLOW) if canonical else PatternTag.SLOW
        if expected in (PatternTag.BCH_T1, PatternTag.BCH_T2):
            assert _segment(frozen, bch=True).segments == (expected,)
            expected = PatternTag.SLOW
        assert _segment(frozen).segments == (expected,)


def test_fast_construction_reference_layout():
    code = construct_fast_polar(1024, 896, "ga")
    assert _segment_ks(code) == REFERENCE_KS
    canonical = np.concatenate([canonical_frozen_mask(k) for k in REFERENCE_KS])
    assert np.array_equal(code.frozen_mask, canonical)
    assert code.bch_segments == {3, 5, 6, 9, 32}
    assert {t: code.segments[t] for t in code.bch_segments} == {
        3: PatternTag.BCH_T2,
        5: PatternTag.BCH_T1,
        6: PatternTag.BCH_T1,
        9: PatternTag.BCH_T1,
        32: PatternTag.BCH_T2,
    }


def test_fast_construction_pull_case():
    # the later segment must receive bits from the earlier one
    code = construct_fast_polar(32, 28, "pw")
    assert _segment_ks(code) == [13, 15]
    assert code.segments == (PatternTag.RPC, PatternTag.SPC)


def test_fast_construction_full_rate_needs_no_moves():
    code = construct_fast_polar(32, 32, "ga")
    assert _segment_ks(code) == [16, 16]
    assert code.info_set == frozenset(range(32))


def test_fast_construction_preserves_rate_and_patterns():
    rng = np.random.default_rng(5)
    for N in (64, 128, 512):
        for _ in range(4):
            K = int(rng.integers(N // 2, N + 1))
            try:
                code = construct_fast_polar(N, K, "ga")
            except InfeasibleConstructionError:
                continue
            assert sum(_segment_ks(code)) == K
            assert PatternTag.SLOW not in code.segments


def test_fast_construction_infeasible_names_segment():
    with pytest.raises(InfeasibleConstructionError, match="segment 1"):
        construct_fast_polar(32, 5, "ga")


def test_fast_construction_rejects_single_segment():
    with pytest.raises(ValueError):
        construct_fast_polar(16, 16, "ga")


def test_layout_round_trip_plain():
    spec = construct_polar(128, 64, "ga")
    doc = layout_to_dict(spec, method="ga", design_snr_db=4.5)
    assert doc["N"] == 128 and doc["K"] == 64
    assert doc["info_set"] == sorted(spec.info_set)
    assert "segments" not in doc
    assert layout_from_dict(doc) == spec


def test_layout_round_trip_fast():
    code = construct_fast_polar(64, 48, "ga")
    doc = layout_to_dict(code)
    rebuilt = layout_from_dict(doc)
    assert doc["segments"] == [tag.value for tag in code.segments]
    assert rebuilt == code
    assert rebuilt.segments == code.segments
    assert rebuilt.bch_segments == code.bch_segments


def test_layout_from_dict_rejects_missing_keys():
    with pytest.raises(ValueError):
        layout_from_dict({"N": 64, "K": 32})


def test_layout_from_dict_rejects_fields_of_the_wrong_type():
    for doc in ({"N": 32, "K": 32, "info_set": 5},
                {"N": 32, "K": 0, "info_set": [], "segments": 5},
                {"N": None, "K": 0, "info_set": []},
                {"N": 32, "K": 1, "info_set": [[1]]},
                {"N": 32.9, "K": 2, "info_set": [2.7, True]},
                {"N": 32, "K": 1, "info_set": [True]},
                {"N": 32, "K": 1.0, "info_set": [3]},
                {"N": "32", "K": 1, "info_set": [3]}):
        with pytest.raises(ValueError, match="wrong type"):
            layout_from_dict(doc)
    for doc in ([32, 32, []], 5, None):
        with pytest.raises(ValueError, match="is an object"):
            layout_from_dict(doc)


def test_layout_from_dict_rejects_bad_segment_tags():
    doc = layout_to_dict(construct_fast_polar(64, 48, "ga"))
    tags = doc["segments"]
    assert layout_from_dict(doc) == construct_fast_polar(64, 48, "ga")
    disagree = [PatternTag.REP.value if tag == PatternTag.RATE1.value else tag for tag in tags]
    spare = ["rate0"] + tags
    bch_moved = [PatternTag.BCH_T1.value] + tags[1:]
    for bad in (disagree, tags[:-1], spare, bch_moved, ["slow"] * len(tags)):
        with pytest.raises(ValueError):
            layout_from_dict({**doc, "segments": bad})
    # a slow segment listed as slow, and a non-canonical k=1 segment listed as rep
    slow = {"N": 32, "K": 20, "info_set": list(range(12, 32)), "segments": ["slow", "rate1"]}
    non_canonical = {"N": 32, "K": 17, "info_set": [14, *range(16, 32)], "segments": ["rep", "rate1"]}
    for bad_doc in (slow, non_canonical):
        with pytest.raises(ValueError):
            layout_from_dict(bad_doc)
        del bad_doc["segments"]
        assert layout_from_dict(bad_doc).bch_segments == frozenset()


def test_layout_to_dict_writes_tags_only_for_fast_layouts():
    plain = construct_polar(32, 20, "ga")
    assert "segments" not in layout_to_dict(plain)
    mixed = CodeSpec(N=32, K=12, info_set=[*range(9, 16), *range(27, 32)], bch_segments={0})
    assert mixed.segments[1] is PatternTag.SLOW
    with pytest.raises(ValueError):
        layout_to_dict(mixed)


def _full_bisection(ln_y):
    """The GA inverse as a fixed 200-step bisection, the reference for the early stop."""
    ln_y = np.asarray(ln_y, dtype=float)
    lo = np.full_like(ln_y, 1e-12)
    hi = np.full_like(ln_y, 1e7)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = construction._ln_phi(mid) > ln_y
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def test_ga_bisection_stops_on_the_full_bisection_result(monkeypatch):
    ln_y = np.concatenate([-np.logspace(-6, 6, 200), [0.0, np.nan]])
    assert np.array_equal(construction._phi_inv_ln(ln_y), _full_bisection(ln_y), equal_nan=True)
    cases = [(N, snr) for N in (64, 1024) for snr in (0.0, 2.0, 4.5, 8.0)]
    early = {case: construction._ga_means(*case) for case in cases}
    monkeypatch.setattr(construction, "_phi_inv_ln", _full_bisection)
    for case in cases:
        assert np.array_equal(early[case], construction._ga_means(*case))
