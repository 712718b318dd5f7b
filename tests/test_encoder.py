import pickle

import numpy as np
import pytest

from fastpolar import encoder
from fastpolar.bch import bch_encode
from fastpolar.construction import construct_fast_polar, construct_polar
from fastpolar.core import BCH_CODES, CodeSpec, PatternTag, info_count
from fastpolar.encoder import (
    _transform_stages,
    encode,
    polar_transform,
)
from fastpolar.simulation import transmit


def test_transform_length_two():
    assert list(polar_transform(np.array([1, 0], dtype=np.uint8))) == [1, 0]
    assert list(polar_transform(np.array([1, 1], dtype=np.uint8))) == [0, 1]


def test_transform_unit_vectors_give_generator_rows():
    rows = {0: [1, 0, 0, 0], 1: [1, 1, 0, 0], 2: [1, 0, 1, 0], 3: [1, 1, 1, 1]}
    for i, row in rows.items():
        u = np.zeros(4, dtype=np.uint8)
        u[i] = 1
        assert list(polar_transform(u)) == row


def test_transform_is_involution():
    rng = np.random.default_rng(2)
    for N in (2, 8, 64, 1024):
        u = rng.integers(0, 2, size=(5, N), dtype=np.uint8)
        assert np.array_equal(polar_transform(polar_transform(u)), u)


def test_transform_is_linear():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, size=256, dtype=np.uint8)
    b = rng.integers(0, 2, size=256, dtype=np.uint8)
    assert np.array_equal(polar_transform(a ^ b),
                          polar_transform(a) ^ polar_transform(b))


def _stage_loop_transform(u):
    """Reference transform: one butterfly stage per doubling of h."""
    x = np.array(u, dtype=np.uint8)
    N = x.shape[-1]
    lead = x.shape[:-1]
    h = 1
    while h < N:
        x = x.reshape(*lead, N // (2 * h), 2, h)
        x[..., 0, :] ^= x[..., 1, :]
        x = x.reshape(*lead, N)
        h *= 2
    return x


@pytest.mark.parametrize("batch", [(), (1,), (3, 5), (5,), (3, 4)])
def test_packed_transform_matches_stage_loop(batch):
    rng = np.random.default_rng(6)
    for n in range(11):
        u = rng.integers(0, 2, size=batch + (2 ** n,), dtype=np.uint8)
        expected = _stage_loop_transform(u)
        assert np.array_equal(_transform_stages(u.copy()), expected), 2 ** n
        x = polar_transform(u)
        assert x.dtype == np.uint8 and x.shape == u.shape and x.flags.c_contiguous
        assert np.array_equal(x, expected), 2 ** n
        # bool, every other bit of a twice-as-long row, and column-major input
        assert np.array_equal(polar_transform(u.astype(bool)), expected), 2 ** n
        wide = np.repeat(u, 2, axis=-1)
        assert np.array_equal(polar_transform(wide[..., ::2]), expected), 2 ** n
        assert np.array_equal(polar_transform(np.asfortranarray(u)), expected), 2 ** n
        if len(batch) == 2:
            swapped = u.swapaxes(0, 1)
            assert np.array_equal(polar_transform(swapped), expected.swapaxes(0, 1)), 2 ** n


@pytest.mark.parametrize("N", [16, 32, 64, 128, 1024])
def test_transform_with_blocks_re_transforms_those_blocks(N):
    rng = np.random.default_rng(15)
    u = rng.integers(0, 2, size=(6, N), dtype=np.uint8)
    count = N // 16
    for blocks in ([], [0], [count - 1], sorted(rng.choice(count, size=(count + 1) // 2,
                                                             replace=False))):
        expected = polar_transform(u).reshape(6, count, 16)
        for b in blocks:
            expected[:, b] = polar_transform(expected[:, b])
        x = polar_transform(u, np.array(blocks, dtype=np.intp))
        assert np.array_equal(x, expected.reshape(6, N)), blocks


def test_transform_blocks_of_the_fast_layout_give_the_segment_codewords():
    code = construct_fast_polar(1024, 896, "ga")
    info = np.random.default_rng(16).integers(0, 2, size=(4, 896), dtype=np.uint8)
    x = encode(code, info)
    blocks = np.array(sorted(code.bch_segments), dtype=np.intp)
    u = polar_transform(x, blocks)
    assert np.array_equal(u.take(code.info_gather, axis=-1), info)
    for t in code.bch_segments:
        # a BCH segment's subtree codeword is the BCH codeword of its message
        tag = code.segments[t]
        word = u[:, 16 * t:16 * (t + 1)]
        assert np.array_equal(bch_encode(word[:, 15 - info_count(tag):15], tag), word)


@pytest.mark.parametrize("tag", list(BCH_CODES))
def test_bch_u_block_table_matches_bch_encode(tag):
    k = info_count(tag)
    messages = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    codewords = bch_encode(messages, tag)
    table = encoder._BCH_U_BLOCKS[tag]
    assert table.shape == (2 ** k, 16) and table.dtype == np.uint8
    assert np.array_equal(table, _transform_stages(codewords.copy()))
    assert np.array_equal(polar_transform(table), codewords)


def test_every_nonzero_value_reads_as_one():
    rng = np.random.default_rng(17)
    code = construct_fast_polar(1024, 896, "ga")
    info = rng.integers(0, 2, size=(3, 896), dtype=np.uint8)
    expected = encode(code, info)

    def symbols(bits):
        return transmit(bits, 0.0, "qpsk", None, zero_noise=True)

    for value in (2, 3, 255):
        assert np.array_equal(encode(code, info * np.uint8(value)), expected), value
        assert np.array_equal(symbols(info * np.uint8(value)), symbols(info)), value
    for dtype, value in ((np.int64, 256), (np.int64, -1), (np.int8, -128), (np.float64, 0.5),
                         (np.float64, -2.0)):
        assert np.array_equal(encode(code, info.astype(dtype) * dtype(value)), expected)
        assert np.array_equal(symbols(info.astype(dtype) * dtype(value)), symbols(info))
        assert np.array_equal(polar_transform(info[:, :512].astype(dtype) * dtype(value)),
                              polar_transform(info[:, :512])), (dtype, value)
    assert np.array_equal(encode(code, info.astype(bool)), expected)
    assert np.array_equal(symbols(info.astype(bool)), symbols(info))
    assert symbols(np.uint8(2)) == -2.0
    for tag in BCH_CODES:
        messages = rng.integers(0, 2, size=(20, info_count(tag)), dtype=np.uint8)
        codewords = bch_encode(messages, tag)
        assert np.array_equal(bch_encode(messages * 2, tag), codewords)
        assert np.array_equal(bch_encode(messages.astype(np.int64) * -3, tag), codewords)
        assert np.array_equal(bch_encode(messages * 0.25, tag), codewords)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        polar_transform(np.zeros(6, dtype=np.uint8))


def test_transform_rejects_a_0d_input_naming_the_shape():
    with pytest.raises(ValueError, match=r"shape \(\.\.\., N\), got shape \(\)"):
        polar_transform(np.uint8(1))


def test_encode_plain_places_message_ascending():
    spec = CodeSpec(N=8, K=3, info_set=frozenset({3, 5, 7}))
    info = np.array([1, 0, 1], dtype=np.uint8)
    u = np.zeros(8, dtype=np.uint8)
    u[[3, 5, 7]] = info
    assert np.array_equal(encode(spec, info), polar_transform(u))


def test_encode_batch_shape():
    spec = construct_polar(64, 32, "ga")
    rng = np.random.default_rng(6)
    info = rng.integers(0, 2, size=(10, 32), dtype=np.uint8)
    x = encode(spec, info)
    assert x.shape == (10, 64)
    for row_info, row_x in zip(info, x):
        assert np.array_equal(encode(spec, row_info), row_x)


def test_encode_rejects_wrong_message_length():
    spec = construct_polar(64, 32, "ga")
    with pytest.raises(ValueError):
        encode(spec, np.zeros(31, dtype=np.uint8))


def test_encode_rejects_a_0d_input_naming_the_shape():
    spec = construct_polar(64, 32, "ga")
    for info in (1, np.uint8(0)):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 32\), got shape \(\)"):
            encode(spec, info)


def test_encode_fast_without_bch_matches_plain():
    code = construct_fast_polar(64, 61, "ga")
    assert not code.bch_segments
    rng = np.random.default_rng(8)
    info = rng.integers(0, 2, size=(20, 61), dtype=np.uint8)
    u = np.zeros((20, 64), dtype=np.uint8)
    u[:, code.info_positions] = info
    assert np.array_equal(encode(code, info), polar_transform(u))


def _layout(ks):
    info = []
    for t, k in enumerate(ks):
        info.extend(range(t * 16 + 16 - k, t * 16 + 16))
    bch = {t for t, k in enumerate(ks) if k in (7, 11)}
    return CodeSpec(N=16 * len(ks), K=sum(ks), info_set=frozenset(info), bch_segments=bch)


def test_info_gather_puts_bch_messages_below_the_placeholders():
    # a BCH segment's message bits sit at local offsets 15 - k to 14 of its codeword
    gather = _layout([7, 11]).info_gather
    assert list(gather[:7]) == list(range(8, 15))
    assert list(gather[7:]) == list(range(16 + 4, 16 + 15))


def test_info_runs_are_built_once_read_only_and_rebuilt_after_a_pickle():
    code = construct_fast_polar(1024, 896)
    runs = code.info_runs
    assert len(runs) == 19
    # the u-runs list info_gather in order, and the info-runs tile the K info bits
    assert np.array_equal(np.concatenate([np.arange(code.N)[u] for u, _ in runs]),
                          code.info_gather)
    assert [i for _, bits in runs for i in range(code.K)[bits]] == list(range(code.K))
    encode(code, np.ones((2, code.K), dtype=np.uint8))
    assert code.info_runs is runs
    with pytest.raises(TypeError):
        runs[0] = runs[1]
    with pytest.raises(AttributeError):
        runs[0][0].start = 0
    copy = pickle.loads(pickle.dumps(code))
    assert "info_runs" not in vars(copy)
    assert copy.info_runs == runs and copy.info_runs is not runs


def test_encode_bch_segment_u_block():
    # the segment's u-block is the transform of its 16-bit BCH codeword
    code = _layout([16, 7])
    rng = np.random.default_rng(10)
    info = rng.integers(0, 2, size=23, dtype=np.uint8)
    x = encode(code, info)
    u = polar_transform(x)
    assert np.array_equal(u[:16], info[:16])
    expected = bch_encode(info[16:], PatternTag.BCH_T2)
    assert np.array_equal(polar_transform(u[16:]), expected)
    # a trailing segment's codeword slice is the BCH codeword itself
    assert np.array_equal(x[16:], expected)


def test_encode_splits_message_across_segments_in_order():
    code = _layout([11, 3])
    rng = np.random.default_rng(12)
    info = rng.integers(0, 2, size=14, dtype=np.uint8)
    x = encode(code, info)
    u = polar_transform(x)
    # first segment consumes 11 bits as a BCH-T1 message
    assert np.array_equal(polar_transform(u[:16]),
                          bch_encode(info[:11], PatternTag.BCH_T1))
    # second segment holds its 3 bits at the top canonical positions
    assert np.array_equal(u[16:29], np.zeros(13, dtype=np.uint8))
    assert np.array_equal(u[29:], info[11:])
