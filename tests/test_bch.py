import itertools

import numpy as np
import pytest

from fastpolar.bch import (
    VARIANT_BY_TAG,
    BchVariant,
    T1_REPEATED_POSITION,
    bch_decode_hard,
    bch_encode,
    bch_node_decode,
)
from fastpolar.core import PatternTag, hard_decision, wagner
from fastpolar.oracle import enumerate_codebook


def _all_messages(variant):
    k = variant.k
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)


def test_variant_parameters():
    assert BchVariant.T1.k == 11 and BchVariant.T1.t == 1
    assert BchVariant.T2.k == 7 and BchVariant.T2.t == 2
    # generator polynomials, coefficient of x^i at index i
    assert list(BchVariant.T1.generator) == [1, 1, 0, 0, 1]
    assert list(BchVariant.T2.generator) == [1, 0, 0, 0, 1, 0, 1, 1, 1]


def test_unit_message_encodes_to_generator():
    message = np.zeros(11, dtype=np.uint8)
    message[0] = 1
    codeword = bch_encode(message, BchVariant.T1)
    expected = np.zeros(16, dtype=np.uint8)
    expected[[0, 1, 4]] = 1
    assert np.array_equal(codeword, expected)


def test_encoding_is_systematic_ascending():
    rng = np.random.default_rng(3)
    for variant in (BchVariant.T1, BchVariant.T2):
        k = variant.k
        message = rng.integers(0, 2, size=k, dtype=np.uint8)
        codeword = bch_encode(message, variant)
        assert np.array_equal(codeword[15 - k:15], message)


def test_extension_bit_conventions():
    for variant in (BchVariant.T1, BchVariant.T2):
        codewords = bch_encode(_all_messages(variant), variant)
        assert codewords.shape == (2 ** variant.k, 16)
        if variant is BchVariant.T2:
            # overall even parity
            assert not (codewords.sum(axis=1) & 1).any()
        else:
            assert np.array_equal(codewords[:, 15], codewords[:, T1_REPEATED_POSITION])


def test_all_codewords_divisible_by_generator():
    # every inner codeword must have zero remainder mod g
    for variant in (BchVariant.T1, BchVariant.T2):
        codewords = bch_encode(_all_messages(variant), variant)
        g = np.poly1d(variant.generator[::-1])
        for cw in codewords[:64]:
            _, rem = np.polydiv(np.poly1d(cw[:15][::-1].astype(float)), g)
            assert not (np.mod(np.rint(rem.coeffs), 2)).any()


def test_decode_clean_words():
    for variant in (BchVariant.T1, BchVariant.T2):
        inner = bch_encode(_all_messages(variant), variant)[:, :15]
        decoded, ok = bch_decode_hard(inner, variant)
        assert ok.all()
        assert np.array_equal(decoded, inner)


def test_decode_corrects_all_single_errors():
    for variant in (BchVariant.T1, BchVariant.T2):
        inner = bch_encode(_all_messages(variant), variant)[:, :15]
        for i in range(15):
            word = inner.copy()
            word[:, i] ^= 1
            decoded, ok = bch_decode_hard(word, variant)
            assert ok.all()
            assert np.array_equal(decoded, inner)


def test_t2_corrects_all_double_errors():
    inner = bch_encode(_all_messages(BchVariant.T2), BchVariant.T2)[:, :15]
    for i, j in itertools.combinations(range(15), 2):
        word = inner.copy()
        word[:, i] ^= 1
        word[:, j] ^= 1
        decoded, ok = bch_decode_hard(word, BchVariant.T2)
        assert ok.all()
        assert np.array_equal(decoded, inner)


def test_decode_failure_reports_and_preserves_word():
    zero = np.zeros(15, dtype=np.uint8)
    failures = 0
    for pattern in itertools.combinations(range(15), 3):
        word = zero.copy()
        word[list(pattern)] = 1
        decoded, ok = bch_decode_hard(word, BchVariant.T2)
        if not ok:
            failures += 1
            assert np.array_equal(decoded, word)
    # beyond-t patterns must not all masquerade as correctable
    assert failures > 0


def test_decode_scalar_word_shape():
    word = bch_encode(np.zeros(7, dtype=np.uint8), BchVariant.T2)[:15]
    word[2] ^= 1
    decoded, ok = bch_decode_hard(word, BchVariant.T2)
    assert ok is True or ok == True  # noqa: E712 - numpy bool
    assert decoded.shape == (15,)
    assert not decoded.any()


def test_node_decode_noiseless_identity():
    rng = np.random.default_rng(9)
    for variant in (BchVariant.T1, BchVariant.T2):
        messages = rng.integers(0, 2, size=(50, variant.k), dtype=np.uint8)
        codewords = bch_encode(messages, variant)
        alpha = (1.0 - 2.0 * codewords) * 6.0
        assert np.array_equal(bch_node_decode(alpha, variant), codewords)


def test_t2_node_two_step_uses_parity_flip():
    # three errors, the least reliable position erroneous: the overall parity
    # flip removes it and the hard decoder handles the remaining two
    codeword = bch_encode(np.ones(7, dtype=np.uint8), BchVariant.T2)
    received = codeword.copy()
    received[[1, 6, 12]] ^= 1
    amplitudes = np.full(16, 5.0)
    amplitudes[1] = 0.5
    amplitudes[6] = 2.0
    amplitudes[12] = 3.0
    alpha = (1.0 - 2.0 * received) * amplitudes
    assert np.array_equal(bch_node_decode(alpha, BchVariant.T2), codeword)


def test_t2_node_never_takes_the_int8_minimum_as_weakest():
    # -128 is the strongest int8 LLR; read as a signed |x| it would wrap to
    # -128 and win the Wagner flip over the truly weakest position
    codeword = bch_encode(np.ones(7, dtype=np.uint8), BchVariant.T2)
    received = codeword.copy()
    received[[1, 4, 6]] ^= 1
    alpha = ((1 - 2 * received.astype(np.int16)) * 100).astype(np.int8)
    alpha[4] //= 100
    strong = next(i for i in range(15) if codeword[i] == 1 and i not in (1, 4, 6))
    alpha[strong] = -128
    flipped = wagner(alpha) ^ hard_decision(alpha)
    assert np.flatnonzero(flipped).tolist() == [4]
    assert np.array_equal(bch_node_decode(alpha, BchVariant.T2), codeword)


def test_t1_node_folds_twin_positions():
    codeword = bch_encode(np.zeros(11, dtype=np.uint8), BchVariant.T1)
    alpha = np.full(16, 4.0)
    # twin copies disagree; the stronger one wins the fold
    alpha[14] = -1.0
    alpha[15] = 3.0
    out = bch_node_decode(alpha, BchVariant.T1)
    assert np.array_equal(out, codeword)
    assert out[14] == out[15]


def test_node_decode_quantized_matches_float():
    rng = np.random.default_rng(21)
    for variant in (BchVariant.T1, BchVariant.T2):
        messages = rng.integers(0, 2, size=(200, variant.k), dtype=np.uint8)
        codewords = bch_encode(messages, variant)
        alpha = (1 - 2 * codewords.astype(np.int64)) * rng.integers(1, 8, size=(200, 16))
        out_int = bch_node_decode(alpha, variant, width=5)
        out_float = bch_node_decode(alpha.astype(np.float64), variant)
        assert np.array_equal(out_int, out_float)


def test_node_decode_falls_back_to_hard_word():
    # overwhelm the code with five strong errors: whatever the outcome, the
    # result must be a deterministic 16-bit word
    codeword = bch_encode(np.zeros(7, dtype=np.uint8), BchVariant.T2)
    received = codeword.copy()
    received[[0, 3, 6, 9, 12]] ^= 1
    alpha = (1.0 - 2.0 * received) * 4.0
    out = bch_node_decode(alpha, BchVariant.T2)
    assert out.shape == (16,)
    assert set(np.unique(out)) <= {0, 1}


def test_encode_rejects_bad_message_length():
    with pytest.raises(ValueError):
        bch_encode(np.zeros(8, dtype=np.uint8), BchVariant.T2)


@pytest.mark.parametrize("tag", [PatternTag.BCH_T1, PatternTag.BCH_T2])
def test_decode_hard_is_bounded_distance_decoding_on_every_word(tag):
    # brute force over the codebook: a word within distance t of a codeword
    # decodes to it, any other word comes back unchanged with ok False
    variant = VARIANT_BY_TAG[tag]
    codebook = enumerate_codebook(tag, 16).codewords[:, :15]
    codes = codebook.astype(np.int32) @ (1 << np.arange(15, dtype=np.int32))
    popcount = ((np.arange(1 << 15)[:, None] >> np.arange(15)) & 1).sum(axis=1).astype(np.uint8)
    block = 1024
    for lo in range(0, 1 << 15, block):
        index = np.arange(lo, lo + block, dtype=np.int32)
        words = ((index[:, None] >> np.arange(15)) & 1).astype(np.uint8)
        distance = popcount[index[:, None] ^ codes[None, :]]
        nearest = distance.argmin(axis=1)
        within = distance[np.arange(block), nearest] <= variant.t
        corrected, ok = bch_decode_hard(words, variant)
        assert np.array_equal(ok, within)
        assert np.array_equal(corrected, np.where(within[:, None], codebook[nearest], words))


@pytest.mark.parametrize("value", [2, -1, 255, 0.5])
def test_decode_hard_rejects_non_binary_words(value):
    word = np.zeros(15, dtype=np.asarray(value).dtype)
    word[3] = value
    for variant in BchVariant:
        with pytest.raises(ValueError, match="0 and 1"):
            bch_decode_hard(word, variant)
        with pytest.raises(ValueError, match="0 and 1"):
            bch_decode_hard(np.stack([np.zeros_like(word), word]), variant)
