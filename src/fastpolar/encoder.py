"""Polar transform and fast-polar encoding with BCH segment embedding."""

from __future__ import annotations

import numpy as np

from .bch import VARIANT_BY_TAG, BchVariant, bch_encode
from .core import SEGMENT_SIZE, CodeSpec, FastPolarCode, _is_power_of_two


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Multiply u-domain bits (..., N) by the N-fold Kronecker transform over GF(2).

    Natural (non-bit-reversed) indexing; the transform is its own inverse.
    """
    u = np.asarray(u, dtype=np.uint8)
    N = u.shape[-1]
    if not _is_power_of_two(N):
        raise ValueError(f"length must be a power of two, got {N}")
    x = u.copy()
    lead = x.shape[:-1]
    h = 1
    while h < N:
        x = x.reshape(*lead, N // (2 * h), 2, h)
        x[..., 0, :] ^= x[..., 1, :]
        x = x.reshape(*lead, N)
        h *= 2
    return x


def bch_message_positions(variant: BchVariant) -> np.ndarray:
    """Local u-domain offsets of the systematic message bits inside a BCH segment."""
    return np.arange(15 - variant.k, 15)


def encode(code: CodeSpec | FastPolarCode, info: np.ndarray) -> np.ndarray:
    """Encode info bits (..., K) into codewords (..., N).

    Non-BCH segments place their info bits at the canonical positions with
    zeros elsewhere. A BCH segment consumes its k info bits in order, and its
    u-block is set to the transform of the 16-bit BCH codeword, so the
    segment's subtree code bits equal that codeword.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != code.K:
        raise ValueError(f"info length must be {code.K}, got {info.shape[-1]}")
    spec = code.spec if isinstance(code, FastPolarCode) else code
    u = np.zeros(info.shape[:-1] + (spec.N,), dtype=np.uint8)
    if isinstance(code, FastPolarCode) and code.bch_segments:
        offset = 0
        for t, seg in enumerate(code.segments):
            base = SEGMENT_SIZE * t
            chunk = info[..., offset:offset + seg.k]
            if t in code.bch_segments:
                word = bch_encode(chunk, VARIANT_BY_TAG[seg.tag])
                u[..., base:base + SEGMENT_SIZE] = polar_transform(word)
            else:
                u[..., base + SEGMENT_SIZE - seg.k:base + SEGMENT_SIZE] = chunk
            offset += seg.k
    else:
        u[..., spec.info_positions] = info
    return polar_transform(u)
