import hashlib
import itertools
import json
import pickle
import sys

import numpy as np
import pytest

import fastpolar.decoder as decoder
from fastpolar.analysis import export_pruned_tree, traversal_stats
from fastpolar.construction import construct_fast_polar, construct_polar
from fastpolar.core import (
    FAST_TAG_BY_K,
    NODE_SHAPES,
    SEGMENT_SIZE,
    CodeSpec,
    PatternTag,
    QuantizedLLR,
    hard_decision,
    node_frozen_mask,
    saturation_limit,
)
from fastpolar.decoder import (
    DEFAULT_LIMITS,
    SC_EQUIVALENT_LIMITS,
    PatternLimits,
    build_tree,
    decode_node,
    decode_plan,
    f_check,
    fast_sc_decode,
    g_bit,
    parallel_min_mask,
    tree_stats,
)
from fastpolar.encoder import encode, polar_transform
from fastpolar.oracle import enumerate_codebook, ml_decode, sc_decode_baseline


def test_f_check_min_sum():
    assert f_check(4.0, -2.0) == -2.0
    assert f_check(-3.0, -5.0) == 3.0
    # a zero input dominates
    assert f_check(0.0, 9.0) == 0.0
    out = f_check(np.array([4.0, -3.0]), np.array([-2.0, -5.0]))
    assert list(out) == [-2.0, 3.0]


def test_g_bit_signed_add():
    assert g_bit(2.0, 3.0, 0) == 5.0
    assert g_bit(2.0, 3.0, 1) == 1.0
    assert g_bit(np.int64(14), np.int64(14), 0, width=5) == 15
    assert g_bit(np.int64(-14), np.int64(-14), 0, width=5) == -15


_INT8_RANGE = np.arange(-128, 128, dtype=np.int8)


def _all_int8_pairs():
    a, b = np.meshgrid(_INT8_RANGE, _INT8_RANGE, indexing="ij")
    return a.ravel(), b.ravel()


def test_f_check_matches_reference_on_every_int8_pair():
    a, b = _all_int8_pairs()
    wide_a, wide_b = a.astype(np.int64), b.astype(np.int64)
    reference = np.sign(wide_a) * np.sign(wide_b) * np.minimum(np.abs(wide_a), np.abs(wide_b))
    narrow = f_check(a, b)
    assert narrow.dtype == np.int8
    # +128 has no int8 code, so (-128, -128) is the one pair that keeps -128
    both = (a == -128) & (b == -128)
    assert narrow[both].tolist() == [-128]
    assert np.array_equal(narrow[~both], reference[~both])
    assert f_check(np.int8(-128), np.int8(5)) == -5
    wide = f_check(wide_a, wide_b)
    assert wide.dtype == np.int64
    assert np.array_equal(wide, reference)
    big_a, big_b = np.random.default_rng(13).integers(-2 ** 40, 2 ** 40, size=(2, 1000))
    big_reference = np.sign(big_a) * np.sign(big_b) * np.minimum(np.abs(big_a), np.abs(big_b))
    assert np.array_equal(f_check(big_a, big_b), big_reference)


@pytest.mark.parametrize("width", [None, 4, 5, 6, 7, 8])
def test_g_bit_matches_reference_on_every_int8_pair(width):
    a, b = _all_int8_pairs()
    wide_a, wide_b = a.astype(np.int64), b.astype(np.int64)
    for u in (0, 1):
        bits = np.full(a.shape, u, dtype=np.uint8)
        reference = wide_b + (1 - 2 * u) * wide_a
        if width is not None:
            limit = saturation_limit(width)
            reference = np.clip(reference, -limit, limit)
        assert np.array_equal(g_bit(a, b, bits, width), reference), u
        assert np.array_equal(g_bit(wide_a, wide_b, bits, width), reference), u


def test_f_check_and_g_bit_match_reference_on_floats():
    rng = np.random.default_rng(19)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.5])
    a, b = (x.ravel() for x in np.meshgrid(special, special, indexing="ij"))
    a = np.concatenate([a, rng.normal(size=5000) * 10])
    b = np.concatenate([b, rng.normal(size=5000) * 10])
    reference = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    assert np.array_equal(f_check(a, b), reference)
    finite = np.isfinite(a) & np.isfinite(b)
    for u in (0, 1):
        bits = np.full(a.shape, u, dtype=np.uint8)
        assert np.array_equal(g_bit(a[finite], b[finite], bits[finite]),
                              b[finite] + (1 - 2 * u) * a[finite])
    assert g_bit(np.inf, 1.0, 0) == np.inf
    assert g_bit(np.inf, 1.0, 1) == -np.inf


def test_g_bit_dtype_follows_inputs():
    u = np.array([0, 1], dtype=np.uint8)
    for dtype in (np.int8, np.int16, np.int64):
        x = np.array([100, -100], dtype=dtype)
        assert g_bit(x, x, u, width=8).dtype == dtype
        # unsaturated sums keep at least 16 bits, so they never wrap
        assert list(g_bit(x, x, u)) == [200, 0]
    assert g_bit(np.ones(2), np.ones(2), u).dtype == np.float64


def _assert_writes_into_out(kernel, args, dtype):
    """kernel(*args, out=o) returns o, holds what kernel(*args) returns, and
    leaves every argument as it was."""
    before = [np.array(x, copy=True) for x in args]
    expected = kernel(*args)
    out = np.empty(np.shape(expected), dtype=dtype)
    assert kernel(*args, out=out) is out
    assert out.tobytes() == np.asarray(expected, dtype=dtype).tobytes()
    for x, old in zip(args, before):
        assert np.asarray(x).tobytes() == old.tobytes()


@pytest.mark.parametrize("width", [4, 5, 6, 7, 8])
def test_out_kernels_match_the_allocating_forms_on_int8(width):
    a, b = _all_int8_pairs()
    _assert_writes_into_out(f_check, (a, b), np.int8)
    limit = saturation_limit(width)
    # widths 4 to 7 add in the int8 out itself, exact on the width's range (all
    # that a decode's G steps see); width 8 adds in int16, exact on every pair
    keep = (width == 8) | ((np.abs(a.astype(int)) <= limit) & (np.abs(b.astype(int)) <= limit))
    for u in (0, 1):
        bits = np.full(a.shape, u, dtype=np.uint8)
        _assert_writes_into_out(g_bit, (a[keep], b[keep], bits[keep], width), np.int8)


def test_out_kernels_match_the_allocating_forms_on_strided_floats():
    rng = np.random.default_rng(23)
    special = np.array([0.0, -0.0, np.inf, -np.inf])
    pairs = [x.ravel() for x in np.meshgrid(special, special, indexing="ij")]
    # (rows, 2M) stage LLRs split into halves, and the bits of a wider frame,
    # as a plan's F and G steps slice them
    stage = rng.normal(size=(40, 64)) * 10
    stage[:16, :16], stage[:16, 32:48] = pairs[0].reshape(1, 16), pairs[1].reshape(1, 16)
    a, b = stage[:, :32], stage[:, 32:]
    bits = rng.integers(0, 2, size=(40, 128), dtype=np.uint8)
    _assert_writes_into_out(f_check, (a, b), np.float64)
    with np.errstate(invalid="ignore"):     # inf - inf
        for u in (bits[:, 64:96], np.zeros_like(bits[:, :32]), np.ones_like(bits[:, :32])):
            _assert_writes_into_out(g_bit, (a, b, u), np.float64)


def test_nan_passes_through_the_kernels_and_stops_at_the_decode_entry():
    # one behaviour: the kernels add no check, and the decode entry rejects NaN
    assert hard_decision(np.nan) == 0
    assert hard_decision(np.array([np.nan, -np.nan])).tolist() == [0, 0]
    for x in (-3.0, -0.0, 0.0, 2.0, np.inf, -np.inf):
        assert np.isnan(f_check(np.nan, x)) and np.isnan(f_check(x, np.nan))
        for u in (0, 1):
            assert np.isnan(g_bit(np.nan, x, u)) and np.isnan(g_bit(x, np.nan, u))
    out = np.empty(2)
    assert np.isnan(f_check(np.array([np.nan, 1.0]), np.array([2.0, np.nan]), out=out)).all()
    assert np.isnan(g_bit(np.array([np.nan, 1.0]), np.array([2.0, np.nan]), 1, out=out)).all()
    with pytest.raises(ValueError, match="finite"):
        fast_sc_decode(construct_fast_polar(64, 48, "ga"), np.full(64, np.nan))


def test_classic_nodes():
    assert list(decode_node(PatternTag.RATE0, np.array([-9.0, 2.0]))) == [0, 0]
    assert list(decode_node(PatternTag.RATE1, np.array([1.0, -2.0, 0.0]))) == [0, 1, 0]
    assert list(decode_node(PatternTag.REP, np.array([1.0, 1.0, -3.0, 0.0]))) == [1, 1, 1, 1]
    assert list(decode_node(PatternTag.SPC, np.array([1.0, -2.0, 3.0, 4.0]))) == [1, 1, 0, 0]


def test_spc_passes_when_parity_holds():
    alpha = np.array([1.0, -2.0, 3.0, -4.0])
    assert list(decode_node(PatternTag.SPC, alpha)) == [0, 1, 0, 1]


def test_spc2_interleaves_two_wagner_decodes():
    spc2 = PatternTag.SPC2
    assert list(decode_node(spc2, np.array([1.0, -2.0, 3.0, -4.0]))) == [0, 1, 0, 1]
    assert not decode_node(spc2, np.abs(np.random.default_rng(0).normal(size=8)) + 0.1).any()
    # odd parity on the even sublist flips its weakest member
    out = decode_node(spc2, np.array([1.0, 5.0, -3.0, 6.0, 4.0, 7.0, 2.0, 8.0]))
    assert list(out) == [1, 0, 1, 0, 0, 0, 0, 0]


def test_rep2_fills_even_and_odd_independently():
    rep2 = PatternTag.REP2
    assert list(decode_node(rep2, np.array([1.0, 2.0, -3.0, 4.0]))) == [1, 0, 1, 0]
    assert list(decode_node(rep2, -np.ones(8))) == [1] * 8
    # zero even-sum resolves to 0
    assert list(decode_node(rep2, np.array([2.0, -5.0, -2.0, -1.0]))) == [0, 1, 0, 1]


def test_rpc_hand_traces():
    rpc = PatternTag.RPC
    out = decode_node(rpc, np.array([1.0, -2.0, 3.0, 4.0, -5.0, 6.0, 7.0, 8.0]))
    assert list(out) == [1, 0, 0, 0, 1, 0, 0, 0]
    assert list(decode_node(rpc, np.array([1.0, 1.0, 1.0, -1.0]))) == [0, 0, 0, 0]
    clean = np.array([3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0, -10.0])
    assert list(decode_node(rpc, clean)) == [0, 1, 0, 1, 0, 1, 0, 1]


def test_pcr_hand_traces():
    pcr = PatternTag.PCR
    assert list(decode_node(pcr, np.array([1.0, -2.0, 3.0, -4.0]))) == [0, 1, 0, 1]
    assert not decode_node(pcr, np.full(8, 2.0)).any()
    assert list(decode_node(pcr, np.array([1.0, 1.0, 1.0, -2.0]))) == [1, 0, 0, 1]


def test_node_decoders_validate_size():
    for tag, (_, c) in NODE_SHAPES.items():
        with pytest.raises(ValueError):
            decode_node(tag, np.ones(c))
    for tag in PatternTag:
        if tag is PatternTag.SLOW:
            continue
        for alpha, width in ((np.float64(1.0), None), (1.0, None), (np.int64(3), 5)):
            with pytest.raises(ValueError, match=r"shape \(\.\.\., M\)"):
                decode_node(tag, alpha, width=width)
    # SPC-2 and REP-2 take whole residue classes mod 2, RPC and PCR mod 4
    for tag, M in ((PatternTag.SPC2, 5), (PatternTag.REP2, 7), (PatternTag.RPC, 6),
                   (PatternTag.PCR, 10)):
        with pytest.raises(ValueError, match="a multiple of"):
            decode_node(tag, np.ones(M))
    with pytest.raises(ValueError):
        decode_node(PatternTag.SLOW, np.ones(16))


def test_parallel_min_mask_hand_trace():
    mask = parallel_min_mask(np.array([2, 1, 3, 1]), 2)
    assert list(mask.astype(int)) == [0, 1, 0, 1]
    assert parallel_min_mask(np.array([5, 5, 5]), 3).all()


def test_parallel_min_mask_matches_argmin_set():
    rng = np.random.default_rng(17)
    for bits in (3, 5, 7):
        top = 2 ** bits - 1
        for M in (4, 16, 64):
            amps = rng.integers(0, top + 1, size=(500, M))
            mask = parallel_min_mask(amps, bits)
            assert np.array_equal(mask, amps == amps.min(axis=-1, keepdims=True))
    # every M=4 input at width 5: the mask is the argmin set, its first mark argmin
    amps = (np.arange(16 ** 4)[:, None] >> (4 * np.arange(4))) & 15
    mask = parallel_min_mask(amps, 4)
    assert np.array_equal(mask, amps == amps.min(axis=-1, keepdims=True))
    assert np.array_equal(np.argmax(mask, axis=-1), np.argmin(amps, axis=-1))


def test_parallel_min_mask_validation():
    with pytest.raises(ValueError):
        parallel_min_mask(np.array([1]), 3)
    with pytest.raises(ValueError):
        parallel_min_mask(np.array([1, 8]), 3)
    with pytest.raises(ValueError):
        parallel_min_mask(np.array([1, -1]), 3)


def test_quantized_wagner_matches_float_on_unique_min():
    rng = np.random.default_rng(23)
    count = 0
    while count < 300:
        alpha = rng.integers(-15, 16, size=8)
        mags = np.abs(alpha)
        if (mags == mags.min()).sum() != 1:
            continue
        count += 1
        fixed = decode_node(PatternTag.SPC, alpha, width=5)
        floated = decode_node(PatternTag.SPC, alpha.astype(np.float64))
        assert np.array_equal(fixed, floated)


def test_wagner_nodes_flip_the_first_bit_plane_minimum():
    # The bit-plane rule the decoder used to run: hard decisions, flipped at
    # the first position parallel_min_mask marks where the parity fails.
    def wagner_by_mask(a, width):
        bits = (a < 0).astype(np.uint8)
        weakest = np.argmax(parallel_min_mask(np.abs(a), width - 1), axis=-1)
        parity = np.bitwise_xor.reduce(bits, axis=-1)
        bits[np.arange(len(a)), weakest] ^= parity
        return bits

    rng = np.random.default_rng(97)
    for width in range(4, 9):
        limit = saturation_limit(width)
        for M in (4, 8, 16, 32):
            # small magnitudes, so most rows hold tied minima
            alpha = rng.integers(-3, 4, size=(2000, M))
            spc = wagner_by_mask(alpha, width)
            assert np.array_equal(decode_node(PatternTag.SPC, alpha, width=width), spc)
            spc2 = np.empty_like(spc)
            for r in range(2):
                spc2[:, r::2] = wagner_by_mask(alpha[:, r::2], width)
            assert np.array_equal(decode_node(PatternTag.SPC2, alpha, width=width), spc2)
            sums = np.clip(alpha.reshape(-1, M // 4, 4).sum(axis=1), -limit, limit)
            pcr = np.tile(wagner_by_mask(sums, width), M // 4)
            assert np.array_equal(decode_node(PatternTag.PCR, alpha, width=width), pcr)


@pytest.mark.parametrize("tag", [tag for tag in PatternTag if tag is not PatternTag.SLOW],
                         ids=lambda tag: tag.value)
def test_decode_node_follows_the_decoder_entry_rule(tag):
    rng = np.random.default_rng(101)
    alpha = rng.integers(-40, 41, size=(300, 16))
    assert (np.abs(alpha) > 15).any()
    assert np.array_equal(decode_node(tag, alpha, width=5),
                          decode_node(tag, np.clip(alpha, -15, 15), width=5))
    with pytest.raises(ValueError, match="integer"):
        decode_node(tag, alpha.astype(np.float64), width=5)
    bad = alpha.astype(np.float64)
    bad[7, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode_node(tag, bad)


def _node_id(tag):
    return f"{tag}-decode_{tag.value}"


def _metric(words, alpha):
    return ((1.0 - 2.0 * words) * alpha).sum(axis=-1)


@pytest.mark.parametrize("tag", list(NODE_SHAPES), ids=_node_id)
@pytest.mark.parametrize("M", [4, 8])
def test_new_node_decoders_are_ml(tag, M):
    rng = np.random.default_rng(31)
    codebook = enumerate_codebook(tag, M)
    alpha = rng.normal(size=(2000, M))
    fast = decode_node(tag, alpha)
    best = ml_decode(codebook, alpha)
    assert np.allclose(_metric(fast, alpha), _metric(best, alpha))


@pytest.mark.parametrize("tag", list(NODE_SHAPES), ids=_node_id)
def test_node_decoders_are_ml_in_fixed_point(tag):
    # Integer metrics are exact, so every in-range input must reach the ML
    # metric. PCR decodes saturated group sums, which is ML only while no sum
    # of M // 4 values can pass the rail.
    rng = np.random.default_rng(67)
    for width in range(4, 9):
        for M in (4, 8, 16):
            codebook = enumerate_codebook(tag, M)
            limit = saturation_limit(width)
            if tag is PatternTag.PCR:
                limit //= M // 4
            # at most 2^22 metrics per ml_decode call (32 MB)
            rows = min(3000, 2 ** 22 // len(codebook))
            alpha = rng.integers(-limit, limit + 1, size=(rows, M))
            fast = decode_node(tag, alpha, width=width)
            best = ml_decode(codebook, alpha)
            assert np.array_equal(_metric(fast, alpha), _metric(best, alpha)), (width, M)


def test_pcr_is_not_ml_once_group_sums_saturate():
    rng = np.random.default_rng(71)
    width, M = 4, 16
    limit = saturation_limit(width)
    alpha = rng.integers(-limit, limit + 1, size=(3000, M))
    fast = decode_node(PatternTag.PCR, alpha, width=width)
    best = ml_decode(enumerate_codebook(PatternTag.PCR, M), alpha)
    assert (_metric(fast, alpha) < _metric(best, alpha)).any()


@pytest.mark.parametrize("tag", [PatternTag.SPC2, PatternTag.REP2, PatternTag.RPC, PatternTag.PCR],
                         ids=_node_id)
def test_new_node_outputs_satisfy_frozen_constraints(tag):
    rng = np.random.default_rng(37)
    codebook = enumerate_codebook(tag, 16)
    words = {tuple(w) for w in codebook}
    alpha = rng.normal(size=(200, 16))
    for row in decode_node(tag, alpha):
        assert tuple(row) in words


def test_terminal_nodes_match_their_table_shape():
    # Every frozen mask of size 2, 4 and 8; CodeSpec needs N >= 2, and size-1
    # nodes are the leaves of these trees.
    for M in (2, 4, 8):
        for bits in range(2 ** M):
            info = frozenset(i for i in range(M) if not bits >> i & 1)
            spec = CodeSpec(N=M, K=len(info), info_set=info)
            for limits in (DEFAULT_LIMITS, SC_EQUIVALENT_LIMITS):
                _check_terminal_shapes(build_tree(spec, limits), spec.frozen_mask)


def _check_terminal_shapes(steps, mask):
    # the node steps' spans tile the layout in decode order, each with its tag's shape
    end = 0
    for kind, stage, node in steps:
        if kind == decoder._NODE:
            span = node.span[-1]
            assert (span.start, span.stop - span.start) == (end, 1 << stage), node
            assert np.array_equal(mask[span], node_frozen_mask(node.tag, 1 << stage)), node
            end = span.stop
    assert end == len(mask)


def test_table_rows_classify_as_their_tag():
    for tag in NODE_SHAPES:
        info = np.flatnonzero(~node_frozen_mask(tag, SEGMENT_SIZE)).tolist()
        assert CodeSpec(N=SEGMENT_SIZE, K=len(info), info_set=info).segments == (tag,)


def test_pattern_limits_allows():
    limits = DEFAULT_LIMITS
    assert limits.allows(PatternTag.RATE0, 1024)
    assert limits.allows(PatternTag.RATE1, 256)
    assert not limits.allows(PatternTag.RATE1, 512)
    assert limits.allows(PatternTag.SPC, 128)
    assert not limits.allows(PatternTag.SPC, 256)
    assert not limits.allows(PatternTag.REP, 32)
    assert not limits.allows(PatternTag.SPC2, 2)
    assert limits.allows(PatternTag.SPC2, 32)
    assert not limits.allows(PatternTag.SPC2, 64)
    assert not SC_EQUIVALENT_LIMITS.allows(PatternTag.RPC, 16)
    assert SC_EQUIVALENT_LIMITS.allows(PatternTag.SPC, 16)


def test_tree_for_two_segment_fast_layout():
    code = construct_fast_polar(32, 28, "pw")
    stats = tree_stats(build_tree(code))
    assert stats.terminal_nodes == 2
    assert stats.edges == 2
    assert stats.f_ops == 32
    assert stats.histogram == {PatternTag.RPC: 1, PatternTag.SPC: 1}


def test_tree_merges_adjacent_segments():
    code = construct_fast_polar(32, 32, "ga")
    stats = tree_stats(build_tree(code))
    assert stats.terminal_nodes == 1
    assert stats.edges == 0
    assert stats.f_ops == 0
    assert stats.histogram == {PatternTag.RATE1: 1}


def test_tree_rejects_unmatchable_leaf():
    spec = CodeSpec(N=4, K=2, info_set=frozenset({2, 3}))
    with pytest.raises(ValueError):
        build_tree(spec, PatternLimits(rate0=0, rate1=1, rep=0, spc=0,
                                       spc2=0, rep2=0, rpc=0, pcr=0))


def test_fast_decode_validates_input():
    code = construct_fast_polar(64, 48, "ga")
    with pytest.raises(ValueError):
        fast_sc_decode(code, np.zeros(32))
    with pytest.raises(ValueError):
        fast_sc_decode(code, np.zeros(64), width=5)  # float input on fixed path


def test_fast_decode_noiseless_round_trip():
    rng = np.random.default_rng(41)
    for N, K in ((32, 28), (256, 200), (1024, 896)):
        code = construct_fast_polar(N, K, "ga")
        info = rng.integers(0, 2, size=(8, K), dtype=np.uint8)
        llr = (1.0 - 2.0 * encode(code, info)) * 9.0
        result = fast_sc_decode(code, llr)
        assert np.array_equal(result.info_bits, info)
        assert np.array_equal(result.codeword_estimate, encode(code, info))


def test_fast_decode_rejects_quantized_llr_container():
    # a width is passed only as width=; the container's values decode with it
    code = construct_fast_polar(32, 28, "pw")
    info = np.ones(28, dtype=np.uint8)
    q = QuantizedLLR((1 - 2 * encode(code, info).astype(np.int64)) * 7, 5)
    for width in (None, 5):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 32\)"):
            fast_sc_decode(code, q, width=width)
    assert np.array_equal(fast_sc_decode(code, q.value, width=5).info_bits, info)


def test_int8_llrs_decode_like_int64_and_are_left_unmodified():
    # the entry clamps int8 LLRs without a second copy; the clamp must still
    # leave the caller's array as it was, batched and at batch 1
    code = construct_fast_polar(256, 192, "ga")
    rng = np.random.default_rng(89)
    for high in (16, 128):      # inside the 5-bit range, and clamped on entry
        llr = rng.integers(-high, high, size=(9, 256)).astype(np.int8)
        kept = llr.copy()
        for alpha in (llr, llr[4]):
            narrow = fast_sc_decode(code, alpha, width=5)
            wide = fast_sc_decode(code, alpha.astype(np.int64), width=5)
            assert np.array_equal(narrow.info_bits, wide.info_bits)
            assert np.array_equal(narrow.codeword_estimate, wide.codeword_estimate)
        assert np.array_equal(llr, kept)


@pytest.mark.parametrize("code", [construct_fast_polar(1024, 896), construct_polar(128, 112),
                                  CodeSpec(N=16, K=15, info_set=set(range(1, 16)))],
                         ids=["fast-1024", "ga-128", "spc-root"])
def test_read_only_llrs_pass_the_entry_uncopied_and_decode_as_before(code):
    # in-range int8 and float64 LLRs reach the plan uncopied, so no step may
    # write into them; the bits are those of the copying entry (int64 input)
    rng = np.random.default_rng([97, code.N])
    info = rng.integers(0, 2, size=(40, code.K), dtype=np.uint8)
    noisy = (1 - 2.0 * encode(code, info)) * 4 + rng.normal(size=(40, code.N)) * 3
    cases = [(noisy, None)] + [
        (np.clip(np.rint(noisy), -saturation_limit(w), saturation_limit(w)).astype(np.int8), w)
        for w in (4, 5, 8)]
    for llr, width in cases:
        wide = llr if width is None else llr.astype(np.int64)
        expected = fast_sc_decode(code, wide.copy(), width=width)
        assert (expected.info_bits != info).any()
        llr.setflags(write=False)
        for alpha in (llr, llr[7]):
            assert decoder._entry_llrs(alpha, width) is alpha
        got = fast_sc_decode(code, llr, width=width)
        assert np.array_equal(got.info_bits, expected.info_bits)
        assert np.array_equal(got.codeword_estimate, expected.codeword_estimate)
        row = fast_sc_decode(code, llr[7], width=width)
        assert np.array_equal(row.codeword_estimate, expected.codeword_estimate[7])


def test_fast_decode_rejects_input_without_a_frame_axis():
    code = construct_fast_polar(32, 28, "pw")
    for alpha, width in ((np.float64(1.0), None), (1.0, None), (np.int64(3), 5)):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 32\)"):
            fast_sc_decode(code, alpha, width=width)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 32\)"):
        fast_sc_decode(code, np.zeros((32, 2)))


def test_out_of_range_integer_llrs_are_clamped_on_entry():
    code = construct_fast_polar(1024, 896, "ga")
    rng = np.random.default_rng(89)
    info = rng.integers(0, 2, size=(8, code.K), dtype=np.uint8)
    x = encode(code, info).astype(np.int64)
    wide = ((1 - 2 * x) * 4 + rng.integers(-6, 7, size=x.shape)) * 100
    unsigned = rng.integers(0, 256, size=x.shape).astype(np.uint8)
    for alpha in (wide, unsigned):
        clipped = np.clip(alpha.astype(np.int64), -15, 15)
        assert not np.array_equal(clipped, alpha)
        expected = fast_sc_decode(code, clipped, width=5)
        batched = fast_sc_decode(code, alpha, width=5)
        assert np.array_equal(batched.info_bits, expected.info_bits)
        assert np.array_equal(batched.codeword_estimate, expected.codeword_estimate)
        for frame, want in zip(alpha, expected.codeword_estimate):
            assert np.array_equal(fast_sc_decode(code, frame, width=5).codeword_estimate, want)


@pytest.mark.parametrize("width", [4, 5, 8])
def test_unsigned_llrs_at_or_above_2_to_63_clamp_to_the_positive_rail(width):
    # read as int64 before the clamp, these would turn negative and decode as ones
    code = construct_fast_polar(64, 48)
    rng = np.random.default_rng(90)
    alpha = rng.choice(np.array([0, 3, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64), size=(6, 64))
    alpha[0] = 2 ** 63
    alpha[1] = 2 ** 64 - 1
    clamped = np.minimum(alpha, saturation_limit(width)).astype(np.int64)
    expected = fast_sc_decode(code, clamped, width=width)
    result = fast_sc_decode(code, alpha, width=width)
    assert not expected.codeword_estimate[:2].any()
    assert np.array_equal(result.codeword_estimate, expected.codeword_estimate)
    assert np.array_equal(result.info_bits, expected.info_bits)
    for tag in FAST_TAG_BY_K.values():
        assert np.array_equal(decode_node(tag, alpha[:, :16], width=width),
                              decode_node(tag, clamped[:, :16], width=width)), tag


def test_codeword_estimate_matches_info_bits():
    spec = construct_polar(128, 80, "ga")
    rng = np.random.default_rng(43)
    llr = rng.normal(size=128)
    result = fast_sc_decode(spec, llr)
    u_hat = polar_transform(result.codeword_estimate)
    assert not u_hat[spec.frozen_mask].any()
    assert np.array_equal(u_hat[spec.info_positions], result.info_bits)


def test_stats_are_layout_determined():
    code = construct_fast_polar(1024, 896, "ga")
    rng = np.random.default_rng(47)
    llr = rng.normal(size=1024) * 4
    float_stats = fast_sc_decode(code, llr).stats
    fixed = np.clip(np.rint(llr), -15, 15).astype(np.int64)
    fixed_stats = fast_sc_decode(code, fixed, width=5).stats
    assert float_stats == fixed_stats
    assert float_stats == tree_stats(build_tree(code))


def test_degenerate_limits_reduce_to_bit_by_bit_sc():
    # leaf-only Rate0/Rate1 matching makes the traversal classic SC
    leaf_only = PatternLimits(rate0=1, rate1=1, rep=0, spc=0,
                              spc2=0, rep2=0, rpc=0, pcr=0)
    spec = construct_polar(32, 20, "ga")
    rng = np.random.default_rng(53)
    llr = rng.normal(size=(100, 32))
    degenerate = fast_sc_decode(spec, llr, limits=leaf_only)
    assert np.array_equal(degenerate.info_bits, sc_decode_baseline(spec, llr))
    assert degenerate.stats.terminal_nodes == 32
    assert degenerate.stats.edges == 62


def test_classic_pattern_decoding_matches_baseline_sc():
    rng = np.random.default_rng(59)
    for N, K in ((32, 20), (64, 40), (64, 55)):
        spec = construct_polar(N, K, "ga")
        llr = rng.normal(size=(200, N))
        fast = fast_sc_decode(spec, llr, limits=SC_EQUIVALENT_LIMITS)
        assert np.array_equal(fast.info_bits, sc_decode_baseline(spec, llr))


def test_fixed_arithmetic_decode_matches_wide_float_when_unsaturated():
    # small integer LLRs never hit the rails, so both paths agree
    code = construct_fast_polar(64, 48, "ga")
    rng = np.random.default_rng(61)
    llr = rng.integers(-3, 4, size=(50, 64))
    fixed = fast_sc_decode(code, llr, width=8)
    floated = fast_sc_decode(code, llr.astype(np.float64))
    assert np.array_equal(fixed.info_bits, floated.info_bits)


# SHA-256 of info_bits and codeword_estimate over widths 4, 5, 8 under default
# and SC-equivalent limits (see _fixed_point_digest). Computed on the commit
# before decode plans and int8 LLRs (cc7257d), where fixed-point LLRs were
# int64 and the tree was walked recursively; integer arithmetic makes them
# platform-independent.
FIXED_POINT_DIGESTS = {
    ("fast", 128): "42e75b35012099075924e16d842a405d11ee57781ff2fb14d1061d7580601168",
    ("fast", 1024): "5a490e30fcd55dfefbdf0562c39d4f16c4508754671c6bb835d9b293f1f583c5",
    ("ga", 128): "be675f0388a93b34e018ada16eca124a10630537ea9711d04baf9abb9084b417",
    ("ga", 1024): "a2c38eef152db4e5e1100acf0f6e5a8fb5a9ac5fd4f8cbd71e02083fd32d09ae",
}


def _fixed_point_digest(layout, N):
    build = construct_fast_polar if layout == "fast" else construct_polar
    code = build(N, 7 * N // 8)
    rng = np.random.default_rng([N, 1 if layout == "fast" else 0])
    info = rng.integers(0, 2, size=(64, code.K), dtype=np.uint8)
    x = encode(code, info).astype(np.int64)
    # integer noise with a spread of about 5, so some frames fail and values
    # pass the 4- and 5-bit rails
    llr = (1 - 2 * x) * 10 + rng.integers(-4, 5, size=(4,) + x.shape).sum(axis=0)
    digest = hashlib.sha256()
    for width in (4, 5, 8):
        for limits in (DEFAULT_LIMITS, SC_EQUIVALENT_LIMITS):
            result = fast_sc_decode(code, llr, width=width, limits=limits)
            digest.update(result.info_bits.astype(np.uint8).tobytes())
            digest.update(result.codeword_estimate.astype(np.uint8).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("layout, N", sorted(FIXED_POINT_DIGESTS))
def test_fixed_point_decode_digest_is_pinned(layout, N):
    assert _fixed_point_digest(layout, N) == FIXED_POINT_DIGESTS[layout, N]


@pytest.mark.parametrize("layout", ["fast", "ga"])
@pytest.mark.parametrize("dtype, width, block", [(np.float64, None, 3), (np.int8, 5, 7)])
def test_decode_blocks_of_any_size_decode_like_one_block(monkeypatch, layout, dtype, width,
                                                         block):
    build = construct_fast_polar if layout == "fast" else construct_polar
    code = build(128, 112)
    rng = np.random.default_rng([71, code.N])
    info = rng.integers(0, 2, size=(300, code.K), dtype=np.uint8)
    llr = (1 - 2.0 * encode(code, info)) * 4 + rng.normal(size=(300, code.N)) * 3
    llr = llr if width is None else np.rint(llr).astype(dtype)
    assert decoder._block_frames(code.N, dtype) >= len(llr)
    whole = fast_sc_decode(code, llr, width=width)
    assert (whole.info_bits != info).any()
    # a byte budget one byte short of block + 1 frames: 300 frames in blocks of 3 or 7
    frame_bytes = code.N * np.dtype(dtype).itemsize
    monkeypatch.setattr(decoder, "_BLOCK_BYTES", (block + 1) * frame_bytes - 1)
    assert decoder._block_frames(code.N, dtype) == block
    blocked = fast_sc_decode(code, llr.reshape(3, 100, code.N), width=width)
    assert np.array_equal(blocked.info_bits.reshape(whole.info_bits.shape), whole.info_bits)
    assert np.array_equal(blocked.codeword_estimate.reshape(llr.shape), whole.codeword_estimate)


# SHA-256 of decode_node's output shape, dtype and bits over every NODE_SHAPES
# tag and size (see _node_decoder_digest). Computed at 5273dc5, before the node
# decoders were rebuilt on NODE_SHAPES, where each tag had its own function.
NODE_DECODER_DIGEST = "a398f2ac35ac92655017165e59232cb5effb44639c48678302c1776442359893"


def _node_decoder_digest():
    rng = np.random.default_rng(211)
    digest = hashlib.sha256()
    for tag, (_, c) in NODE_SHAPES.items():
        for M in (2 ** i for i in range(9)):
            if M <= c:
                continue
            for batch in ((), (1,), (5,), (3, 4)):
                size = batch + (M,)
                # floats, then rint-tied floats: many zero sums and tied minima
                cases = [(rng.normal(size=size) * 3, None),
                         (np.rint(rng.normal(size=size) * 2), None)]
                for width in range(4, 9):
                    for high in (1, 2, 3, saturation_limit(width)):
                        cases.append((rng.integers(-high, high + 1, size=size), width))
                for alpha, width in cases:
                    out = decode_node(tag, alpha, width=width)
                    digest.update(f"{out.shape}{out.dtype.str}".encode())
                    digest.update(out.tobytes())
    return digest.hexdigest()


def test_node_decoder_digest_is_pinned():
    assert _node_decoder_digest() == NODE_DECODER_DIGEST


def test_plan_is_compiled_once_per_limits():
    code = construct_fast_polar(1024, 896, "ga")
    default = decode_plan(code)
    assert decode_plan(code, DEFAULT_LIMITS) is default
    sc = decode_plan(code, SC_EQUIVALENT_LIMITS)
    assert sc is not default
    assert sc.stats != default.stats
    assert len(sc.steps) != len(default.steps)
    assert decode_plan(code, PatternLimits(spc2=0, rep2=0, rpc=0, pcr=0)) is sc
    assert fast_sc_decode(code, np.ones(1024), limits=SC_EQUIVALENT_LIMITS).stats == sc.stats


def _reference_steps(code, limits, start, stage):
    """The pruned tree by its definition, with a separate COMBINE step after
    each internal node's right subtree: ("F" | "G", stage), ("NODE", stage,
    start, size, tag) and ("COMBINE", left start, left end, right start, right
    end). A span holding the start of a BCH segment is a node when it is that
    segment; any other span is a node of the first NODE_SHAPES tag whose
    frozen mask it has and whose size limits allow."""
    size = 1 << stage
    bch = [t for t in code.bch_segments if start <= t * SEGMENT_SIZE < start + size]
    if bch:
        tag = code.segments[bch[0]] if size == SEGMENT_SIZE else None
    else:
        mask = code.frozen_mask[start:start + size]
        tag = next((tag for tag in NODE_SHAPES if limits.allows(tag, size)
                    and np.array_equal(mask, node_frozen_mask(tag, size))), None)
    if tag is not None:
        return [("NODE", stage, start, size, tag)]
    half = size // 2
    return [("F", stage), *_reference_steps(code, limits, start, stage - 1), ("G", stage),
            *_reference_steps(code, limits, start + half, stage - 1),
            ("COMBINE", start, start + half, start + half, start + size)]


def _span(s):
    return (s[-1].start, s[-1].stop)


def test_plan_runs_three_step_kinds_with_the_partial_sums_in_the_node_step():
    for code, limits in itertools.product(
            (construct_fast_polar(1024, 896), construct_polar(1024, 896, "ga"),
             construct_fast_polar(64, 48, "ga")), (DEFAULT_LIMITS, SC_EQUIVALENT_LIMITS)):
        plan = decode_plan(code, limits)
        kinds = [step[0] for step in plan.steps]
        internal = plan.stats.terminal_nodes - 1
        assert kinds.count(decoder._F) == kinds.count(decoder._G) == internal
        assert kinds.count(decoder._NODE) == plan.stats.terminal_nodes
        assert len(kinds) == 2 * internal + plan.stats.terminal_nodes
        # folding each run of COMBINE steps into the node step before it gives the plan back
        folded = []
        for step in _reference_steps(code, limits, 0, code.n):
            if step[0] == "COMBINE":
                assert folded[-1][0] == "NODE"
                folded[-1][-1].append(step[1:])
            else:
                folded.append(step + ([],) if step[0] == "NODE" else step)
        compiled = []
        for kind, stage, z in plan.steps:
            if kind == decoder._NODE:
                start, end = _span(z.span)
                xors = [(*_span(left), *_span(right)) for left, right in z.xors]
                compiled.append(("NODE", stage, start, end - start, z.tag, xors))
            else:
                compiled.append(("F" if kind == decoder._F else "G", stage))
        assert compiled == folded
        assert plan.bch_blocks.dtype == np.intp
        assert plan.bch_blocks.tolist() == sorted(code.bch_segments)
    fast = decode_plan(construct_fast_polar(1024, 896))
    kinds = [step[0] for step in fast.steps]
    assert (kinds.count(decoder._F), kinds.count(decoder._G), kinds.count(decoder._NODE)) \
        == (22, 22, 23)
    assert set(kinds) == {decoder._F, decoder._G, decoder._NODE}


def _pinned_tree_layouts():
    """The fast and GA (1024, 896) layouts, three random layouts at every N and
    one random all-fast layout with BCH segments at every N from 16 up."""
    rng = np.random.default_rng(20261019)
    layouts = [construct_fast_polar(1024, 896), construct_polar(1024, 896, "ga")]
    for n in range(1, 11):
        for _ in range(3):
            K = int(rng.integers(0, 2 ** n + 1))
            layouts.append(CodeSpec(N=2 ** n, K=K, info_set=rng.permutation(2 ** n)[:K].tolist()))
    for n in range(4, 11):
        ks = rng.choice(sorted(FAST_TAG_BY_K), size=2 ** n // SEGMENT_SIZE).tolist()
        info = [t * SEGMENT_SIZE + j for t, k in enumerate(ks)
                for j in range(SEGMENT_SIZE - k, SEGMENT_SIZE)]
        layouts.append(CodeSpec(N=2 ** n, K=len(info), info_set=info,
                                bch_segments={t for t, k in enumerate(ks) if k in (7, 11)}))
    return layouts


# SHA-256 of the exported trees and traversal counters of _pinned_tree_layouts
# under the three limits below, computed when the plan was still compiled
# from a separate node tree.
PRUNED_TREE_DIGEST = "3802afcd270a453a8c3459a42e64f17ab7576838ecbbaabc691d1ddf27a9c84f"


def test_pruned_tree_export_and_counters_are_pinned():
    digest = hashlib.sha256()
    custom = PatternLimits(rate0=8, rate1=4, rep=8, spc=64, spc2=16, rep2=0, rpc=32, pcr=8)
    for layout in _pinned_tree_layouts():
        for limits in (DEFAULT_LIMITS, SC_EQUIVALENT_LIMITS, custom):
            digest.update(json.dumps(export_pruned_tree(layout, limits)).encode())
            digest.update(json.dumps(traversal_stats(layout, limits).as_dict()).encode())
    assert digest.hexdigest() == PRUNED_TREE_DIGEST


def _python_calls(fn, *args, **kwargs):
    """Python-level function calls made while running fn once, counted with
    sys.setprofile as the benchmark's python_calls_per_decode counts them."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count - 1


def test_batch_one_fixed_point_decode_stays_within_its_call_budget():
    # the per-call Python overhead is most of a batch-1 decode's time
    code = construct_fast_polar(1024, 896)
    frame = np.random.default_rng(89).integers(-15, 16, size=1024).astype(np.int8)
    fast_sc_decode(code, frame, width=5)        # the plan compiles on first use
    assert _python_calls(fast_sc_decode, code, frame, width=5) <= 300


def test_equal_layouts_decode_identically_and_stay_picklable():
    rng = np.random.default_rng(73)
    llr = rng.integers(-15, 16, size=(16, 1024))
    first = construct_fast_polar(1024, 896, "ga")
    fresh = pickle.dumps(first)
    decoded = fast_sc_decode(first, llr, width=5)
    second = construct_fast_polar(1024, 896, "ga")
    assert first == second
    again = fast_sc_decode(second, llr, width=5)
    assert np.array_equal(decoded.info_bits, again.info_bits)
    assert np.array_equal(decoded.codeword_estimate, again.codeword_estimate)
    # the cached plan and arrays stay out of the pickle
    assert pickle.dumps(first) == fresh
    copy = pickle.loads(pickle.dumps(first))
    assert copy == first
    assert np.array_equal(fast_sc_decode(copy, llr, width=5).info_bits, decoded.info_bits)
    plain = construct_polar(1024, 896, "ga")
    fresh = pickle.dumps(plain)
    fast_sc_decode(plain, llr, width=5)
    assert pickle.dumps(plain) == fresh


def test_batches_larger_than_a_block_decode_like_small_ones():
    code = construct_fast_polar(64, 48, "ga")
    rng = np.random.default_rng(83)
    llr = rng.normal(size=(2500, 64)) * 3
    for alpha, width in ((llr, None), (np.clip(np.rint(llr), -15, 15).astype(np.int64), 5)):
        whole = fast_sc_decode(code, alpha, width=width)
        parts = [fast_sc_decode(code, chunk, width=width) for chunk in np.split(alpha, 25)]
        assert np.array_equal(whole.info_bits, np.concatenate([p.info_bits for p in parts]))
        assert np.array_equal(whole.codeword_estimate,
                              np.concatenate([p.codeword_estimate for p in parts]))
        nested = fast_sc_decode(code, alpha.reshape(50, 50, 64), width=width)
        assert np.array_equal(nested.info_bits.reshape(2500, -1), whole.info_bits)


def test_fixed_point_decode_reaches_every_traced_call_site(monkeypatch):
    # bench/tracing.py times the decoder by wrapping these module attributes; a
    # decode that stops calling one of them leaves its time uncovered, and a
    # traced run fails once trace.uncovered_frac passes 0.25.
    calls = {}
    for name in ("f_check", "g_bit", "saturate", "_decode_terminal", "polar_transform"):
        original = getattr(decoder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(decoder, name, counted)
    code = construct_fast_polar(1024, 896, "ga")
    llr = np.random.default_rng(79).integers(-15, 16, size=(2, 1024))
    fast_sc_decode(code, llr, width=5)
    assert set(calls) == {"f_check", "g_bit", "saturate", "_decode_terminal", "polar_transform"}
    assert all(isinstance(args[0].tag, PatternTag) for args in calls["_decode_terminal"])
    assert len(calls["_decode_terminal"]) == decode_plan(code).stats.terminal_nodes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fast_sc_decode_rejects_non_finite_llrs(bad):
    code = construct_fast_polar(64, 48, "ga")
    frame = np.full(64, 5.0)
    frame[17] = bad
    with pytest.raises(ValueError, match="finite"):
        fast_sc_decode(code, frame)
    batch = np.full((8, 64), 5.0)
    batch[5, 40] = bad
    with pytest.raises(ValueError, match="finite"):
        fast_sc_decode(code, batch)
    # a +inf/-inf pair would otherwise meet in g as inf - inf
    batch[5, 40], batch[5, 8] = np.inf, -np.inf
    with pytest.raises(ValueError, match="finite"):
        fast_sc_decode(code, batch)


@pytest.mark.parametrize("dtype", [complex, bool])
def test_float_decoding_rejects_llrs_neither_float_nor_integer(dtype):
    # a complex LLR would lose its imaginary part, a bool one read as 0 or 1
    code = construct_fast_polar(64, 48, "ga")
    name = np.dtype(dtype).name
    with pytest.raises(ValueError, match=f"dtype {name}"):
        fast_sc_decode(code, np.ones(64, dtype))
    with pytest.raises(ValueError, match=f"dtype {name}"):
        decode_node("spc", np.ones(4, dtype))
