"""Brute-force references for tests: codebook enumeration, ML decoding, plain SC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import bch_encode
from .core import BCH_TAGS, CodeSpec, PatternTag, hard_decision, info_count, node_frozen_mask
from .decoder import f_check, g_bit
from .encoder import polar_transform

_MAX_ENUM_BITS = 16


@dataclass(frozen=True)
class NodeCodebook:
    """All valid codewords of one pattern node."""

    kind: PatternTag
    M: int
    codewords: np.ndarray

    def __post_init__(self) -> None:
        if len(self.codewords) != len({tuple(w) for w in self.codewords}):
            raise ValueError("codebook contains duplicate words")


def enumerate_codebook(kind, M: int) -> NodeCodebook:
    """Every valid M-bit word of a node kind, generated by sweeping the free u bits."""
    kind = PatternTag(kind)
    if kind in BCH_TAGS:
        if M != 16:
            raise ValueError("BCH nodes have length 16")
        k = info_count(kind)
        messages = ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
        return NodeCodebook(kind, M, _lex_sorted(bch_encode(messages, kind)))
    mask = node_frozen_mask(kind, M)
    k = int(M - mask.sum())
    if k > _MAX_ENUM_BITS:
        raise ValueError(f"codebook too large to enumerate: 2^{k} words")
    u = np.zeros((2 ** k, M), dtype=np.uint8)
    free = np.flatnonzero(~mask)
    u[:, free] = (np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1
    return NodeCodebook(kind, M, _lex_sorted(polar_transform(u)))


def _lex_sorted(words: np.ndarray) -> np.ndarray:
    """Order codewords lexicographically (index 0 is the most significant bit)."""
    weights = 1 << np.arange(words.shape[-1] - 1, -1, -1, dtype=np.int64)
    return words[np.argsort(words @ weights)]


def ml_decode(codebook: NodeCodebook, alpha: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-correlation decode of (..., M) LLRs; ties go to the
    lexicographically smallest codeword."""
    alpha = np.asarray(alpha, dtype=np.float64)
    words = codebook.codewords
    metrics = alpha @ (1.0 - 2.0 * words).T
    best = metrics.max(axis=-1, keepdims=True)
    # Codebooks are pre-sorted lexicographically, so among tied metrics the
    # lowest codebook index is the lexicographically smallest word.
    pick = np.argmax(metrics >= best, axis=-1)
    return words[pick]


def sc_decode_baseline(spec: CodeSpec, alpha, width: int | None = None):
    """Classic bit-by-bit SC over (..., N) LLRs, sharing the decoder's f/g arithmetic.

    Plain polar layouts only; BCH segments are rejected.
    """
    if spec.bch_segments:
        raise ValueError("baseline SC does not handle BCH segments")
    alpha = np.asarray(alpha)
    if alpha.shape[-1] != spec.N:
        raise ValueError(f"expected {spec.N} LLRs, got {alpha.shape[-1]}")
    mask = spec.frozen_mask

    def rec(start: int, llr):
        size = llr.shape[-1]
        if size == 1:
            if mask[start]:
                return np.zeros(llr.shape, dtype=np.uint8)
            return np.atleast_1d(hard_decision(llr)).reshape(llr.shape)
        half = size // 2
        a = llr[..., :half]
        b = llr[..., half:]
        beta_left = rec(start, f_check(a, b))
        beta_right = rec(start + half, g_bit(a, b, beta_left, width))
        return np.concatenate([beta_left ^ beta_right, beta_right], axis=-1)

    x_hat = rec(0, alpha)
    u_hat = polar_transform(x_hat)
    return u_hat[..., spec.info_positions]
