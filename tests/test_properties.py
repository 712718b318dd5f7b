"""Property tests over random layouts mixing BCH segments with plain segments."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastpolar.construction import layout_from_dict, layout_to_dict
from fastpolar.core import FAST_TAG_BY_K, SEGMENT_SIZE, CodeSpec, PatternTag, saturation_limit
from fastpolar.decoder import fast_sc_decode
from fastpolar.encoder import encode

PLAIN_FAST_KS = sorted(FAST_TAG_BY_K.keys() - {7, 11})
FEW = settings(max_examples=40, deadline=None, database=None)


@st.composite
def layouts(draw, kinds=("bch", "fast", "any")):
    """A layout of N in 32..256 whose segments are each a canonical BCH segment,
    a canonical plain fast segment, or a plain segment with any info positions."""
    N = draw(st.sampled_from([32, 64, 128, 256]))
    info, bch = [], set()
    for t in range(N // SEGMENT_SIZE):
        kind = draw(st.sampled_from(kinds))
        if kind == "any":
            local = draw(st.sets(st.integers(0, SEGMENT_SIZE - 1)))
        else:
            k = draw(st.sampled_from([7, 11] if kind == "bch" else PLAIN_FAST_KS))
            local = range(SEGMENT_SIZE - k, SEGMENT_SIZE)
            if kind == "bch":
                bch.add(t)
        info.extend(SEGMENT_SIZE * t + i for i in local)
    return CodeSpec(N=N, K=len(info), info_set=frozenset(info), bch_segments=bch)


@FEW
@given(code=layouts(), seed=st.integers(0, 2**32 - 1), width=st.integers(4, 8))
def test_noiseless_round_trip(code, seed, width):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, size=(3, code.K), dtype=np.uint8)
    signs = 1 - 2 * encode(code, info).astype(np.int64)
    magnitude = rng.uniform(0.1, 10.0, size=signs.shape)
    assert np.array_equal(fast_sc_decode(code, signs * magnitude).info_bits, info)
    levels = rng.integers(1, saturation_limit(width) + 1, size=signs.shape)
    assert np.array_equal(fast_sc_decode(code, signs * levels, width=width).info_bits, info)
    # the gather both read: built once, read-only, one place lower inside BCH segments
    gather = code.info_gather
    assert gather is code.info_gather and not gather.flags.writeable
    in_bch = [int(i) // SEGMENT_SIZE in code.bch_segments for i in code.info_positions]
    assert np.array_equal(gather, code.info_positions - np.array(in_bch, dtype=np.int64))


@FEW
@given(code=st.one_of(layouts(kinds=("bch", "fast")), layouts()))
def test_layout_survives_dict_and_pickle(code):
    assert pickle.loads(pickle.dumps(code)) == code
    gather = code.info_gather
    copied = pickle.loads(pickle.dumps(code)).info_gather
    assert np.array_equal(copied, gather) and not copied.flags.writeable
    assert pickle.loads(pickle.dumps(code)).info_runs == code.info_runs
    if code.bch_segments and PatternTag.SLOW in code.segments:
        with pytest.raises(ValueError):
            layout_to_dict(code)
        return
    doc = json.loads(json.dumps(layout_to_dict(code)))
    assert layout_from_dict(doc) == code
