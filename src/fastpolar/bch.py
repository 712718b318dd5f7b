"""The two grafted extended BCH codes (length 16): encoding and table decoding."""

from __future__ import annotations

import numpy as np

from .core import BCH_CODES, PatternTag, hard_decision, info_count, llr_sum, saturate, wagner

T1_REPEATED_POSITION = 14
_T1_FOLD = np.array([T1_REPEATED_POSITION, 15])  # the two positions a T1 node folds


def _codebook(tag: PatternTag) -> np.ndarray:
    """(2^k, 16) extended codewords: row m carries the message whose bit j is bit j
    of m at systematic position 15 - k + j, its remainder mod the generator below."""
    g, k = np.array(BCH_CODES[tag][0], dtype=np.uint8), info_count(tag)
    nk = 15 - k
    words = np.zeros((1 << k, 16), dtype=np.uint8)
    words[:, nk:15] = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    rem = words[:, :15].copy()
    for i in range(14, nk - 1, -1):  # long division of every message at once
        rem[:, i - nk:i + 1] ^= rem[:, i:i + 1] * g
    words[:, :nk] = rem[:, :nk]
    words[:, 15] = (words[:, T1_REPEATED_POSITION] if tag is PatternTag.BCH_T1
                    else np.bitwise_xor.reduce(words[:, :15], axis=1))
    words.setflags(write=False)
    return words


# The one codeword table of each BCH code, read by the encoder, the decoding
# table and the ML oracle.
CODEBOOKS = {tag: _codebook(tag) for tag in BCH_CODES}

# Bit j of a table index is word position j, or message bit j.
_INDEX_WEIGHTS = 1 << np.arange(15, dtype=np.intp)
_BCH_TAG_OF = {key: tag for tag in BCH_CODES for key in (tag, tag.value)}


def _bch_tag(tag) -> PatternTag:
    """The BCH PatternTag that tag, or its string, names; else ValueError."""
    try:
        return _BCH_TAG_OF[tag]
    except (KeyError, TypeError):
        names = ", ".join(t.value for t in BCH_CODES)
        raise ValueError(f"expected a BCH tag, one of {names}; got {tag!r}") from None


def bch_encode(message: np.ndarray, tag: PatternTag) -> np.ndarray:
    """Encode message bits (..., k) into extended 16-bit codewords of a BCH tag or its string.

    BCH_T2 appends the overall parity of the 15 code bits; BCH_T1 duplicates
    the code bit at T1_REPEATED_POSITION (14) into position 15. Any nonzero
    message value is a 1, as in encode.
    """
    tag = _bch_tag(tag)
    message, k = np.asarray(message), info_count(tag)
    if message.shape[-1:] != (k,):
        raise ValueError(f"expected {tag.value} messages of shape (..., {k}), "
                         f"got shape {message.shape}")
    return CODEBOOKS[tag].take((message != 0) @ _INDEX_WEIGHTS[:k], axis=0)


def _decoding_table(tag: PatternTag):
    """Bounded-distance decoding tables (corrected, ok) over all 2^15 words: a word
    within distance t of a codeword maps to it with ok True, any other to itself."""
    byte_pairs = np.arange(1 << 15, dtype="<u2").view(np.uint8).reshape(-1, 2)
    words = np.unpackbits(byte_pairs, axis=1, bitorder="little")[:, :15]
    codewords = CODEBOOKS[tag][:, :15] @ _INDEX_WEIGHTS
    errors = np.flatnonzero(words.sum(axis=1) <= BCH_CODES[tag][1])
    received = (codewords[:, None] ^ errors).ravel()
    hits = np.bincount(received, minlength=1 << 15)
    if hits.max() > 1:  # d_min is 2t + 1, so the spheres are disjoint
        raise AssertionError(f"{tag.value}: decoding spheres overlap")
    target = np.arange(1 << 15)
    target[received] = np.repeat(codewords, errors.size)
    return words[target], hits == 1


_DECODING_TABLES = {tag: _decoding_table(tag) for tag in BCH_CODES}


def bch_decode_hard(word: np.ndarray, tag: PatternTag):
    """Correct up to t errors in binary 15-bit words (..., 15) of a BCH tag or its string.

    Returns (corrected, ok). A word within distance t of a codeword becomes
    that codeword with ok True; any other word comes back unchanged with ok
    False (never for T1: the (15,11) Hamming code is perfect). A failure is a
    value, not a fault. Bool words are binary by construction and go straight
    to the lookup; in any other dtype a value other than 0 or 1 raises
    ValueError.
    """
    word = np.asarray(word)
    if word.shape[-1:] != (15,):
        raise ValueError(f"expected words of shape (..., 15), got shape {word.shape}")
    if word.dtype != bool:
        if not ((word == 0) | (word == 1)).all():
            raise ValueError("BCH words must hold only 0 and 1")
        word = word.astype(np.uint8, copy=False)
    index = word @ _INDEX_WEIGHTS
    corrected, ok = _DECODING_TABLES[_bch_tag(tag)]
    return corrected.take(index, axis=0), ok[index]


def bch_node_decode(alpha: np.ndarray, tag: PatternTag,
                    width: int | None = None) -> np.ndarray:
    """Decode 16 node LLRs (..., 16) of a BCH tag (a PatternTag or its string)
    into a 16-bit word, always returning bits.

    BCH_T2: the Wagner decision on all 16 values (flip the minimum-magnitude
    position when the overall parity fails), then table-decode the first 15
    bits and re-extend them with their parity. A word beyond distance 2 comes
    back unchanged, so the Wagner word itself is returned: it has even parity,
    so re-extending gives back its own bit 15. BCH_T1: fold position 14's two LLRs
    into one, table-decode the 15 resulting hard bits, re-duplicate.
    """
    tag, alpha = _bch_tag(tag), np.asarray(alpha)
    if alpha.shape[-1] != 16:
        raise ValueError(f"expected 16 LLRs, got {alpha.shape[-1]}")
    bits = np.empty(alpha.shape, dtype=np.uint8)
    if tag is PatternTag.BCH_T2:
        bits[..., :15], _ = bch_decode_hard(wagner(alpha)[..., :15].view(bool), tag)
        bits[..., 15] = np.bitwise_xor.reduce(bits[..., :15], axis=-1)
        return bits
    folded = llr_sum(alpha[..., _T1_FOLD])
    if width is not None:
        folded = saturate(folded, width)
    llr15 = np.array(alpha[..., :15])
    llr15[..., T1_REPEATED_POSITION] = folded
    bits[..., :15], _ = bch_decode_hard(hard_decision(llr15).view(bool), tag)
    bits[..., 15] = bits[..., T1_REPEATED_POSITION]
    return bits
