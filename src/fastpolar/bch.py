"""The two grafted extended BCH codes (length 16): encoding and table decoding."""

from __future__ import annotations

import numpy as np

from .core import BCH_CODES, PatternTag, hard_decision, info_count, llr_sum, saturate, wagner

T1_REPEATED_POSITION = 14
_T1_FOLD = np.array([T1_REPEATED_POSITION, 15])  # the two positions a T1 node folds


def _systematic_codeword(message: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(15, k) systematic codeword, message in the high-degree positions."""
    nk = len(g) - 1
    c = np.zeros(15, dtype=np.uint8)
    c[nk:] = message
    rem = c.copy()
    for i in range(14, nk - 1, -1):
        if rem[i]:
            rem[i - nk:i + 1] ^= g
    c[:nk] = rem[:nk]
    return c


def _generator_matrix(tag: PatternTag) -> np.ndarray:
    """k x 16 systematic generator including the extension column."""
    g = np.array(BCH_CODES[tag][0], dtype=np.uint8)
    c15 = np.array([_systematic_codeword(unit, g)
                    for unit in np.eye(info_count(tag), dtype=np.uint8)])
    ext = c15[:, T1_REPEATED_POSITION] if tag is PatternTag.BCH_T1 else c15.sum(axis=1) % 2
    return np.column_stack([c15, ext]).astype(np.uint8)


_GENERATOR_MATRICES = {tag: _generator_matrix(tag) for tag in BCH_CODES}


def bch_encode(message: np.ndarray, tag: PatternTag) -> np.ndarray:
    """Encode message bits (..., k) into extended 16-bit codewords of a BCH tag.

    BCH_T2 appends the overall parity of the 15 code bits; BCH_T1 duplicates
    the code bit at T1_REPEATED_POSITION (14) into position 15. Any nonzero
    message value is a 1, as in encode.
    """
    message, matrix = np.asarray(message), _GENERATOR_MATRICES[tag]
    if message.shape[-1] != len(matrix):
        raise ValueError(f"{tag.value} message length must be {len(matrix)}, "
                         f"got {message.shape[-1]}")
    return ((message != 0).view(np.uint8) @ matrix) % 2


# Bit j of a table index is word position j.
_INDEX_WEIGHTS = 1 << np.arange(15, dtype=np.intp)


def _decoding_table(tag: PatternTag):
    """Bounded-distance decoding tables (corrected, ok) over all 2^15 words: a word
    within distance t of a codeword maps to it with ok True, any other to itself."""
    # row i holds the bits of i, so its first 2^k rows cut to k columns are the messages
    byte_pairs = np.arange(1 << 15, dtype="<u2").view(np.uint8).reshape(-1, 2)
    words = np.unpackbits(byte_pairs, axis=1, bitorder="little")[:, :15]
    k = info_count(tag)
    codewords = bch_encode(words[:2 ** k, :k], tag)[:, :15] @ _INDEX_WEIGHTS
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
    """Correct up to t errors in binary 15-bit words (..., 15) by table lookup.

    Returns (corrected, ok). A word within distance t of a codeword becomes
    that codeword with ok True; any other word comes back unchanged with ok
    False (never for T1: the (15,11) Hamming code is perfect). A failure is a
    value, not a fault. Bool words are binary by construction and go straight
    to the lookup; in any other dtype a value other than 0 or 1 raises
    ValueError.
    """
    word = np.asarray(word)
    if word.shape[-1] != 15:
        raise ValueError(f"word length must be 15, got {word.shape[-1]}")
    if word.dtype != bool:
        if not ((word == 0) | (word == 1)).all():
            raise ValueError("BCH words must hold only 0 and 1")
        word = word.astype(np.uint8, copy=False)
    index = word @ _INDEX_WEIGHTS
    corrected, ok = _DECODING_TABLES[tag]
    return corrected.take(index, axis=0), ok[index]


def bch_node_decode(alpha: np.ndarray, tag: PatternTag,
                    width: int | None = None) -> np.ndarray:
    """Decode 16 node LLRs (..., 16) of a BCH tag into a 16-bit word, always
    returning bits.

    BCH_T2: the Wagner decision on all 16 values (flip the minimum-magnitude
    position when the overall parity fails), then table-decode the first 15
    bits and re-extend them with their parity. A word beyond distance 2 comes
    back unchanged, so the Wagner word itself is returned: it has even parity,
    so re-extending gives back its own bit 15. BCH_T1: fold position 14's two LLRs
    into one, table-decode the 15 resulting hard bits, re-duplicate.
    """
    alpha = np.asarray(alpha)
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
