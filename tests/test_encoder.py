import numpy as np
import pytest

from fastpolar.bch import BchVariant, bch_encode
from fastpolar.construction import construct_fast_polar, construct_polar
from fastpolar.core import CodeSpec
from fastpolar.encoder import bch_message_positions, encode, polar_transform


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


@pytest.mark.parametrize("batch", [(), (1,), (3, 5)])
def test_packed_transform_matches_stage_loop(batch):
    rng = np.random.default_rng(6)
    for n in range(1, 11):
        u = rng.integers(0, 2, size=batch + (2 ** n,), dtype=np.uint8)
        x = polar_transform(u)
        assert x.dtype == np.uint8 and x.shape == u.shape
        assert np.array_equal(x, _stage_loop_transform(u)), 2 ** n


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        polar_transform(np.zeros(6, dtype=np.uint8))


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


def test_bch_message_positions():
    assert list(bch_message_positions(BchVariant.T2)) == list(range(8, 15))
    assert list(bch_message_positions(BchVariant.T1)) == list(range(4, 15))


def test_encode_bch_segment_u_block():
    # the segment's u-block is the transform of its 16-bit BCH codeword
    code = _layout([16, 7])
    rng = np.random.default_rng(10)
    info = rng.integers(0, 2, size=23, dtype=np.uint8)
    x = encode(code, info)
    u = polar_transform(x)
    assert np.array_equal(u[:16], info[:16])
    expected = bch_encode(info[16:], BchVariant.T2)
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
                          bch_encode(info[:11], BchVariant.T1))
    # second segment holds its 3 bits at the top canonical positions
    assert np.array_equal(u[16:29], np.zeros(13, dtype=np.uint8))
    assert np.array_equal(u[29:], info[11:])
