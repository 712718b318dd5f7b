"""The two grafted extended BCH codes (length 16): encoding and table decoding."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import PatternTag, hard_decision, llr_sum, saturate, wagner

# Narrow-sense generator polynomials, coefficients ascending by degree.
_G1 = np.array([1, 1, 0, 0, 1], dtype=np.uint8)              # x^4 + x + 1
_G2 = np.array([1, 0, 0, 0, 1, 0, 1, 1, 1], dtype=np.uint8)  # x^8 + x^7 + x^6 + x^4 + 1

T1_REPEATED_POSITION = 14
_T1_FOLD = np.array([T1_REPEATED_POSITION, 15])  # the two positions a T1 node folds


class BchVariant(Enum):
    """The two grafted codes: T1 = (15,11) t=1, T2 = (15,7) t=2, both extended to 16."""

    T1 = "t1"
    T2 = "t2"

    @property
    def k(self) -> int:
        return 11 if self is BchVariant.T1 else 7

    @property
    def t(self) -> int:
        return 1 if self is BchVariant.T1 else 2

    @property
    def generator(self) -> np.ndarray:
        return _G1 if self is BchVariant.T1 else _G2


VARIANT_BY_TAG = {PatternTag.BCH_T1: BchVariant.T1, PatternTag.BCH_T2: BchVariant.T2}


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


def _generator_matrix(variant: BchVariant) -> np.ndarray:
    """k x 16 systematic generator including the extension column."""
    c15 = np.array([_systematic_codeword(unit, variant.generator)
                    for unit in np.eye(variant.k, dtype=np.uint8)])
    ext = c15[:, T1_REPEATED_POSITION] if variant is BchVariant.T1 else c15.sum(axis=1) % 2
    return np.column_stack([c15, ext]).astype(np.uint8)


_GENERATOR_MATRICES = {variant: _generator_matrix(variant) for variant in BchVariant}


def bch_encode(message: np.ndarray, variant: BchVariant) -> np.ndarray:
    """Encode message bits (..., k) into extended 16-bit codewords.

    T2 appends the overall parity of the 15 code bits; T1 duplicates the code
    bit at T1_REPEATED_POSITION (14) into position 15. Any nonzero message
    value is a 1, as in encode.
    """
    message = np.asarray(message)
    if message.shape[-1] != variant.k:
        raise ValueError(f"{variant.value} message length must be {variant.k}, "
                         f"got {message.shape[-1]}")
    return ((message != 0).view(np.uint8) @ _GENERATOR_MATRICES[variant]) % 2


# Bit j of a table index is word position j.
_INDEX_WEIGHTS = 1 << np.arange(15, dtype=np.intp)


def _decoding_table(variant: BchVariant):
    """Bounded-distance decoding tables (corrected, ok) over all 2^15 words: a word
    within distance t of a codeword maps to it with ok True, any other to itself."""
    # row i holds the bits of i, so its first 2^k rows cut to k columns are the messages
    byte_pairs = np.arange(1 << 15, dtype="<u2").view(np.uint8).reshape(-1, 2)
    words = np.unpackbits(byte_pairs, axis=1, bitorder="little")[:, :15]
    codewords = bch_encode(words[:2 ** variant.k, :variant.k], variant)[:, :15] @ _INDEX_WEIGHTS
    errors = np.flatnonzero(words.sum(axis=1) <= variant.t)
    received = (codewords[:, None] ^ errors).ravel()
    hits = np.bincount(received, minlength=1 << 15)
    if hits.max() > 1:  # d_min is 3 for T1 and 5 for T2, so the spheres are disjoint
        raise AssertionError(f"{variant.value}: decoding spheres overlap")
    target = np.arange(1 << 15)
    target[received] = np.repeat(codewords, errors.size)
    return words[target], hits == 1


_DECODING_TABLES = {variant: _decoding_table(variant) for variant in BchVariant}


def bch_decode_hard(word: np.ndarray, variant: BchVariant):
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
    corrected, ok = _DECODING_TABLES[variant]
    return corrected.take(index, axis=0), ok[index]


def bch_node_decode(alpha: np.ndarray, variant: BchVariant,
                    width: int | None = None) -> np.ndarray:
    """Decode 16 node LLRs (..., 16) into a 16-bit word, always returning bits.

    T2: the Wagner decision on all 16 values (flip the minimum-magnitude
    position when the overall parity fails), then table-decode the first 15
    bits and re-extend them with their parity. A word beyond distance 2 comes
    back unchanged, so the Wagner word itself is returned: it has even parity,
    so re-extending gives back its own bit 15. T1: fold position 14's two LLRs
    into one, table-decode the 15 resulting hard bits, re-duplicate.
    """
    alpha = np.asarray(alpha)
    if alpha.shape[-1] != 16:
        raise ValueError(f"expected 16 LLRs, got {alpha.shape[-1]}")
    bits = np.empty(alpha.shape, dtype=np.uint8)
    if variant is BchVariant.T2:
        bits[..., :15], _ = bch_decode_hard(wagner(alpha)[..., :15].view(bool), variant)
        bits[..., 15] = np.bitwise_xor.reduce(bits[..., :15], axis=-1)
        return bits
    folded = llr_sum(alpha[..., _T1_FOLD])
    if width is not None:
        folded = saturate(folded, width)
    llr15 = np.array(alpha[..., :15])
    llr15[..., T1_REPEATED_POSITION] = folded
    bits[..., :15], _ = bch_decode_hard(hard_decision(llr15).view(bool), variant)
    bits[..., 15] = bits[..., T1_REPEATED_POSITION]
    return bits
