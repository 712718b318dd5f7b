"""GF(16) arithmetic and the two grafted extended BCH codes (length 16)."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import PatternTag, hard_decision, llr_sum, saturate, wagner

# GF(2^4) generated by the primitive polynomial x^4 + x + 1.
_PRIMITIVE_POLY = 0b10011

# Narrow-sense generator polynomials, coefficients ascending by degree.
_G1 = np.array([1, 1, 0, 0, 1], dtype=np.uint8)              # x^4 + x + 1
_G2 = np.array([1, 0, 0, 0, 1, 0, 1, 1, 1], dtype=np.uint8)  # x^8 + x^7 + x^6 + x^4 + 1

T1_REPEATED_POSITION = 14


def _build_tables():
    exp = np.zeros(15, dtype=np.int64)
    log = np.zeros(16, dtype=np.int64)
    x = 1
    for i in range(15):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0b10000:
            x ^= _PRIMITIVE_POLY
    return exp, log


GF_EXP, GF_LOG = _build_tables()


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


def _gf_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    nz = (a != 0) & (b != 0)
    prod = GF_EXP[(GF_LOG[a] + GF_LOG[b]) % 15]
    return np.where(nz, prod, 0)


def _gf_pow(a: np.ndarray, e: int) -> np.ndarray:
    return np.where(a != 0, GF_EXP[(e * GF_LOG[a]) % 15], 0)


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
    rows = []
    for j in range(variant.k):
        msg = np.zeros(variant.k, dtype=np.uint8)
        msg[j] = 1
        c15 = _systematic_codeword(msg, variant.generator)
        ext = c15[T1_REPEATED_POSITION] if variant is BchVariant.T1 else c15.sum() % 2
        rows.append(np.concatenate([c15, [ext]]))
    return np.array(rows, dtype=np.uint8)


_GENERATOR_MATRICES = {variant: _generator_matrix(variant) for variant in BchVariant}


def bch_encode(message: np.ndarray, variant: BchVariant) -> np.ndarray:
    """Encode message bits (..., k) into extended 16-bit codewords.

    T2 appends the overall parity of the 15 code bits; T1 duplicates the code
    bit at T1_REPEATED_POSITION (14) into position 15.
    """
    message = np.asarray(message, dtype=np.uint8)
    if message.shape[-1] != variant.k:
        raise ValueError(f"{variant.value} message length must be {variant.k}, "
                         f"got {message.shape[-1]}")
    return (message @ _GENERATOR_MATRICES[variant]) % 2


# Syndrome powers alpha^(i*j) for syndrome index i = 1..4 and position j = 0..14.
_SYNDROME_POW = GF_EXP[(np.arange(1, 5)[:, None] * np.arange(15)[None, :]) % 15]


def bch_decode_hard(word: np.ndarray, variant: BchVariant):
    """Correct up to t errors in 15-bit words (..., 15).

    Returns (corrected, ok). ok is False where the error locator has no valid
    root set; such words are returned unchanged. Decoding failure is a value,
    not a fault.
    """
    word = np.asarray(word, dtype=np.uint8)
    if word.shape[-1] != 15:
        raise ValueError(f"word length must be 15, got {word.shape[-1]}")
    squeeze = word.ndim == 1
    w = np.atleast_2d(word).reshape(-1, 15)
    out = w.copy()
    s1 = np.bitwise_xor.reduce(np.where(w == 1, _SYNDROME_POW[0], 0), axis=-1)
    ok = np.ones(len(w), dtype=bool)
    if variant is BchVariant.T1:
        err = s1 != 0
        rows = np.flatnonzero(err)
        out[rows, GF_LOG[s1[rows]]] ^= 1
    else:
        s3 = np.bitwise_xor.reduce(np.where(w == 1, _SYNDROME_POW[2], 0), axis=-1)
        s1_cubed = _gf_pow(s1, 3)
        single = (s1 != 0) & (s3 == s1_cubed)
        rows = np.flatnonzero(single)
        out[rows, GF_LOG[s1[rows]]] ^= 1
        double = (s1 != 0) & (s3 != s1_cubed)
        if np.any(double):
            rows = np.flatnonzero(double)
            sigma1 = s1[rows]
            # sigma2 = (S3 + S1^3) / S1
            num = s3[rows] ^ s1_cubed[rows]
            sigma2 = GF_EXP[(GF_LOG[num] - GF_LOG[sigma1]) % 15]
            # Chien search: sigma(alpha^m) = 1 + sigma1*alpha^m + sigma2*alpha^(2m)
            alpha_m = GF_EXP[np.arange(15)]
            val = (1
                   ^ _gf_mul(sigma1[:, None], alpha_m[None, :])
                   ^ _gf_mul(sigma2[:, None], _gf_pow(alpha_m, 2)[None, :]))
            roots = val == 0
            valid = roots.sum(axis=-1) == 2
            # root at alpha^m marks an error at position -m mod 15
            positions = (15 - np.arange(15)) % 15
            flips = np.zeros((len(rows), 15), dtype=np.uint8)
            flips[:, positions] = roots
            out[rows] ^= flips * valid[:, None].astype(np.uint8)
            ok[rows] = valid
        ok &= ~((s1 == 0) & (s3 != 0))
        out[~ok] = w[~ok]
    out = out.reshape(word.shape)
    ok = ok.reshape(word.shape[:-1])
    if squeeze:
        return out, bool(ok)
    return out, ok


def bch_node_decode(alpha: np.ndarray, variant: BchVariant,
                    width: int | None = None) -> np.ndarray:
    """Decode 16 node LLRs (..., 16) into a 16-bit word, always returning bits.

    T2: the Wagner decision on all 16 values (flip the minimum-magnitude
    position when the overall parity fails), then Berlekamp-Massey-decode the
    first 15 bits and re-extend. T1: fold position 14's two LLRs into one,
    decode the 15 resulting hard bits, re-duplicate. On decoding failure the
    hard word (corrected only by the parity or repetition step) is returned.
    """
    alpha = np.asarray(alpha)
    if alpha.shape[-1] != 16:
        raise ValueError(f"expected 16 LLRs, got {alpha.shape[-1]}")
    if variant is BchVariant.T2:
        bits = wagner(alpha)
        corrected, ok = bch_decode_hard(bits[..., :15], variant)
        ext = corrected.sum(axis=-1) % 2
        candidate = np.concatenate([corrected, ext[..., None].astype(np.uint8)], axis=-1)
        return np.where(np.asarray(ok)[..., None], candidate, bits)
    folded = llr_sum(alpha[..., [T1_REPEATED_POSITION, 15]])
    if width is not None:
        folded = saturate(folded, width)
    llr15 = np.array(alpha[..., :15])
    llr15[..., T1_REPEATED_POSITION] = folded
    bits15 = hard_decision(llr15)
    corrected, ok = bch_decode_hard(bits15, variant)
    out15 = np.where(np.asarray(ok)[..., None], corrected, bits15)
    return np.concatenate([out15, out15[..., T1_REPEATED_POSITION, None]], axis=-1)
