import itertools

import numpy as np
import pytest

from fastpolar.bch import (
    T1_REPEATED_POSITION,
    bch_decode_hard,
    bch_encode,
    bch_node_decode,
)
from fastpolar.core import (
    BCH_CODES,
    FAST_TAG_BY_K,
    SEGMENT_SIZE,
    PatternTag,
    hard_decision,
    info_count,
    wagner,
)
from fastpolar.oracle import enumerate_codebook


def _all_messages(tag):
    k = info_count(tag)
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)


def test_bch_rows_are_codes_with_distance_2t_plus_1():
    # each row's 2^k codewords are distinct and lie exactly 2t + 1 apart on the
    # 15 inner bits, so the row's t is the code's true correction radius
    bits = np.unpackbits(np.arange(1 << 15, dtype="<u2").view(np.uint8)).reshape(-1, 16)
    popcount = bits.sum(axis=1, dtype=np.uint8)
    for tag, (generator, t) in BCH_CODES.items():
        k = SEGMENT_SIZE - len(generator)
        assert FAST_TAG_BY_K[k] is tag and info_count(tag) == k
        inner = bch_encode(_all_messages(tag), tag)[:, :15] @ (1 << np.arange(15, dtype=np.int32))
        assert len(np.unique(inner)) == 2 ** k
        distance = popcount[inner[:, None] ^ inner[None, :]]
        np.fill_diagonal(distance, 16)
        assert distance.min() == 2 * t + 1, tag


def test_unit_message_encodes_to_generator():
    message = np.zeros(11, dtype=np.uint8)
    message[0] = 1
    codeword = bch_encode(message, PatternTag.BCH_T1)
    expected = np.zeros(16, dtype=np.uint8)
    expected[[0, 1, 4]] = 1
    assert np.array_equal(codeword, expected)


def test_encoding_is_systematic_ascending():
    rng = np.random.default_rng(3)
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        k = info_count(tag)
        message = rng.integers(0, 2, size=k, dtype=np.uint8)
        codeword = bch_encode(message, tag)
        assert np.array_equal(codeword[15 - k:15], message)


def test_extension_bit_conventions():
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        codewords = bch_encode(_all_messages(tag), tag)
        assert codewords.shape == (2 ** info_count(tag), 16)
        if tag is PatternTag.BCH_T2:
            # overall even parity
            assert not (codewords.sum(axis=1) & 1).any()
        else:
            assert np.array_equal(codewords[:, 15], codewords[:, T1_REPEATED_POSITION])


def test_all_codewords_divisible_by_generator():
    # every inner codeword must have zero remainder mod g
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        codewords = bch_encode(_all_messages(tag), tag)
        g = np.poly1d(BCH_CODES[tag][0][::-1])
        for cw in codewords:
            _, rem = np.polydiv(np.poly1d(cw[:15][::-1].astype(float)), g)
            assert not (np.mod(np.rint(rem.coeffs), 2)).any()


def test_encoding_is_linear():
    rng = np.random.default_rng(8)
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        m1, m2 = rng.integers(0, 2, size=(2, 500, info_count(tag)), dtype=np.uint8)
        assert np.array_equal(bch_encode(m1 ^ m2, tag), bch_encode(m1, tag) ^ bch_encode(m2, tag))


def test_decode_clean_words():
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        inner = bch_encode(_all_messages(tag), tag)[:, :15]
        decoded, ok = bch_decode_hard(inner, tag)
        assert ok.all()
        assert np.array_equal(decoded, inner)


def test_decode_corrects_all_single_errors():
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        inner = bch_encode(_all_messages(tag), tag)[:, :15]
        for i in range(15):
            word = inner.copy()
            word[:, i] ^= 1
            decoded, ok = bch_decode_hard(word, tag)
            assert ok.all()
            assert np.array_equal(decoded, inner)


def test_t2_corrects_all_double_errors():
    inner = bch_encode(_all_messages(PatternTag.BCH_T2), PatternTag.BCH_T2)[:, :15]
    for i, j in itertools.combinations(range(15), 2):
        word = inner.copy()
        word[:, i] ^= 1
        word[:, j] ^= 1
        decoded, ok = bch_decode_hard(word, PatternTag.BCH_T2)
        assert ok.all()
        assert np.array_equal(decoded, inner)


def test_decode_failure_reports_and_preserves_word():
    zero = np.zeros(15, dtype=np.uint8)
    failures = 0
    for pattern in itertools.combinations(range(15), 3):
        word = zero.copy()
        word[list(pattern)] = 1
        decoded, ok = bch_decode_hard(word, PatternTag.BCH_T2)
        if not ok:
            failures += 1
            assert np.array_equal(decoded, word)
    # beyond-t patterns must not all masquerade as correctable
    assert failures > 0


def test_decode_scalar_word_shape():
    word = bch_encode(np.zeros(7, dtype=np.uint8), PatternTag.BCH_T2)[:15]
    word[2] ^= 1
    decoded, ok = bch_decode_hard(word, PatternTag.BCH_T2)
    assert ok is True or ok == True  # noqa: E712 - numpy bool
    assert decoded.shape == (15,)
    assert not decoded.any()


def test_node_decode_noiseless_identity():
    rng = np.random.default_rng(9)
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        messages = rng.integers(0, 2, size=(50, info_count(tag)), dtype=np.uint8)
        codewords = bch_encode(messages, tag)
        alpha = (1.0 - 2.0 * codewords) * 6.0
        assert np.array_equal(bch_node_decode(alpha, tag), codewords)


def test_t2_node_two_step_uses_parity_flip():
    # three errors, the least reliable position erroneous: the overall parity
    # flip removes it and the hard decoder handles the remaining two
    codeword = bch_encode(np.ones(7, dtype=np.uint8), PatternTag.BCH_T2)
    received = codeword.copy()
    received[[1, 6, 12]] ^= 1
    amplitudes = np.full(16, 5.0)
    amplitudes[1] = 0.5
    amplitudes[6] = 2.0
    amplitudes[12] = 3.0
    alpha = (1.0 - 2.0 * received) * amplitudes
    assert np.array_equal(bch_node_decode(alpha, PatternTag.BCH_T2), codeword)


def test_t2_node_never_takes_the_int8_minimum_as_weakest():
    # -128 is the strongest int8 LLR; read as a signed |x| it would wrap to
    # -128 and win the Wagner flip over the truly weakest position
    codeword = bch_encode(np.ones(7, dtype=np.uint8), PatternTag.BCH_T2)
    received = codeword.copy()
    received[[1, 4, 6]] ^= 1
    alpha = ((1 - 2 * received.astype(np.int16)) * 100).astype(np.int8)
    alpha[4] //= 100
    strong = next(i for i in range(15) if codeword[i] == 1 and i not in (1, 4, 6))
    alpha[strong] = -128
    flipped = wagner(alpha) ^ hard_decision(alpha)
    assert np.flatnonzero(flipped).tolist() == [4]
    assert np.array_equal(bch_node_decode(alpha, PatternTag.BCH_T2), codeword)


def test_t1_node_folds_twin_positions():
    codeword = bch_encode(np.zeros(11, dtype=np.uint8), PatternTag.BCH_T1)
    alpha = np.full(16, 4.0)
    # twin copies disagree; the stronger one wins the fold
    alpha[14] = -1.0
    alpha[15] = 3.0
    out = bch_node_decode(alpha, PatternTag.BCH_T1)
    assert np.array_equal(out, codeword)
    assert out[14] == out[15]


def test_node_decode_quantized_matches_float():
    rng = np.random.default_rng(21)
    for tag in (PatternTag.BCH_T1, PatternTag.BCH_T2):
        messages = rng.integers(0, 2, size=(200, info_count(tag)), dtype=np.uint8)
        codewords = bch_encode(messages, tag)
        alpha = (1 - 2 * codewords.astype(np.int64)) * rng.integers(1, 8, size=(200, 16))
        out_int = bch_node_decode(alpha, tag, width=5)
        out_float = bch_node_decode(alpha.astype(np.float64), tag)
        assert np.array_equal(out_int, out_float)


def test_node_decode_falls_back_to_hard_word():
    # overwhelm the code with five strong errors: whatever the outcome, the
    # result must be a deterministic 16-bit word
    codeword = bch_encode(np.zeros(7, dtype=np.uint8), PatternTag.BCH_T2)
    received = codeword.copy()
    received[[0, 3, 6, 9, 12]] ^= 1
    alpha = (1.0 - 2.0 * received) * 4.0
    out = bch_node_decode(alpha, PatternTag.BCH_T2)
    assert out.shape == (16,)
    assert set(np.unique(out)) <= {0, 1}


@pytest.mark.parametrize("name", ["bch_t2", "bch_t1"])
def test_bch_functions_take_a_tag_string(name):
    tag, other = PatternTag(name), ({*BCH_CODES} - {PatternTag(name)}).pop()
    messages = _all_messages(tag)
    assert np.array_equal(bch_encode(messages, name), bch_encode(messages, tag))
    words = np.random.default_rng(5).integers(0, 2, size=(256, 15), dtype=np.uint8)
    for got, want in zip(bch_decode_hard(words, name), bch_decode_hard(words, tag)):
        assert np.array_equal(got, want)
    # the string decodes as its own code, not as the other one
    alpha = np.random.default_rng(6).normal(1.0, 1.0, size=(256, 16))
    decoded = bch_node_decode(alpha, name)
    assert np.array_equal(decoded, bch_node_decode(alpha, tag))
    assert not np.array_equal(decoded, bch_node_decode(alpha, other))


@pytest.mark.parametrize("tag", [PatternTag.REP, "nope", "rep", None,
                                 pytest.param(["bch_t2"], id="list")])
def test_bch_functions_reject_other_tags_naming_the_bch_tags(tag):
    calls = (lambda: bch_encode(np.zeros(7, dtype=np.uint8), tag),
             lambda: bch_decode_hard(np.zeros(15, dtype=np.uint8), tag),
             lambda: bch_node_decode(np.ones(16), tag))
    for call in calls:
        with pytest.raises(ValueError, match="bch_t2, bch_t1") as error:
            call()
        assert repr(tag) in str(error.value)


def test_encode_rejects_bad_message_length():
    with pytest.raises(ValueError):
        bch_encode(np.zeros(8, dtype=np.uint8), PatternTag.BCH_T2)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 7\), got shape \(\)"):
        bch_encode(np.uint8(1), PatternTag.BCH_T2)


@pytest.mark.parametrize("tag", list(BCH_CODES))
def test_decode_hard_rejects_a_0d_word_naming_the_shape(tag):
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 15\), got shape \(\)"):
        bch_decode_hard(np.uint8(1), tag)


@pytest.mark.parametrize("tag", [PatternTag.BCH_T1, PatternTag.BCH_T2])
def test_decode_hard_is_bounded_distance_decoding_on_every_word(tag):
    # brute force over the codebook: a word within distance t of a codeword
    # decodes to it, any other word comes back unchanged with ok False
    codebook = enumerate_codebook(tag, 16)[:, :15]
    codes = codebook.astype(np.int32) @ (1 << np.arange(15, dtype=np.int32))
    popcount = ((np.arange(1 << 15)[:, None] >> np.arange(15)) & 1).sum(axis=1).astype(np.uint8)
    block = 1024
    for lo in range(0, 1 << 15, block):
        index = np.arange(lo, lo + block, dtype=np.int32)
        words = ((index[:, None] >> np.arange(15)) & 1).astype(np.uint8)
        distance = popcount[index[:, None] ^ codes[None, :]]
        nearest = distance.argmin(axis=1)
        within = distance[np.arange(block), nearest] <= BCH_CODES[tag][1]
        corrected, ok = bch_decode_hard(words, tag)
        assert np.array_equal(ok, within)
        assert np.array_equal(corrected, np.where(within[:, None], codebook[nearest], words))


@pytest.mark.parametrize("value", [2, -1, 255, 0.5])
def test_decode_hard_rejects_non_binary_words(value):
    word = np.zeros(15, dtype=np.asarray(value).dtype)
    word[3] = value
    for tag in BCH_CODES:
        with pytest.raises(ValueError, match="0 and 1"):
            bch_decode_hard(word, tag)
        with pytest.raises(ValueError, match="0 and 1"):
            bch_decode_hard(np.stack([np.zeros_like(word), word]), tag)


@pytest.mark.parametrize("tag", list(BCH_CODES))
def test_decode_hard_bool_words_decode_like_uint8_words(tag):
    # bool words skip the 0/1 scan; they must look up the same table rows
    index = np.arange(1 << 15)
    words = ((index[:, None] >> np.arange(15)) & 1).astype(np.uint8)
    corrected, ok = bch_decode_hard(words, tag)
    bool_corrected, bool_ok = bch_decode_hard(words.astype(bool), tag)
    assert np.array_equal(bool_corrected, corrected) and bool_corrected.dtype == corrected.dtype
    assert np.array_equal(bool_ok, ok)
    # and a bool view of non-contiguous bits, as the node decoders pass
    wide = np.zeros((1 << 15, 16), dtype=np.uint8)
    wide[:, :15] = words
    view_corrected, view_ok = bch_decode_hard(wide[:, :15].view(bool), tag)
    assert np.array_equal(view_corrected, corrected) and np.array_equal(view_ok, ok)
    for dtype in (np.uint8, np.int8, np.int64):
        word = np.zeros(15, dtype=dtype)
        word[3] = 2
        with pytest.raises(ValueError, match="0 and 1"):
            bch_decode_hard(word, tag)
