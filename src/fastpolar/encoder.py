"""Polar transform and fast-polar encoding with BCH segment embedding."""

from __future__ import annotations

import numpy as np

from .bch import CODEBOOKS, bch_encode  # noqa: F401 (bench/tracing.py patches it)
from .core import SEGMENT_SIZE, CodeSpec, _is_power_of_two, info_count


def _transform_stages(x: np.ndarray, h: int = 1) -> np.ndarray:
    """Run the butterfly stages h, 2h, ... < x.shape[-1] in place on x."""
    N = x.shape[-1]
    lead = x.shape[:-1]
    while h < N:
        view = x.reshape(*lead, N // (2 * h), 2, h)
        view[..., 0, :] ^= view[..., 1, :]
        h *= 2
    return x


# A 16-bit block is packed as its two np.packbits bytes (first bit most
# significant) read as a little-endian uint16. The byte table does stages 1, 2
# and 4 inside a byte; the block table adds stage 8, which folds the second
# byte into the first, so entry b0 | b1 << 8 is the transform of that block.
_BYTE_STAGES = np.packbits(
    _transform_stages(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=-1)),
    axis=-1)[:, 0].astype(np.uint16)
_BLOCK_TRANSFORM = ((_BYTE_STAGES[None, :] ^ _BYTE_STAGES[:, None])
                    | _BYTE_STAGES[:, None] << 8).ravel()
_EVEN_BLOCKS = np.uint64(0x0000FFFF0000FFFF)


def polar_transform(u: np.ndarray, blocks=None) -> np.ndarray:
    """Multiply u-domain bits (..., N) by the N-fold Kronecker transform over GF(2).

    Natural (non-bit-reversed) indexing; the transform is its own inverse.
    Every nonzero value reads as 1, here and in encode and bch_encode. The
    bits are packed sixteen to a block (zero-padded below N = 64): one table
    lookup does the four stages inside a block, two shift-and-XOR stages the
    next two inside each 64-bit word, and whole-word XORs the rest.

    blocks, when given, lists 16-bit blocks to transform back afterwards, so
    each reads as its subtree codeword rather than its u-block.
    """
    u = np.asarray(u)
    if not u.ndim:
        raise ValueError(f"expected bits of shape (..., N), got shape {u.shape}")
    if u.dtype.kind not in "biu":
        u = u != 0
    N = u.shape[-1]
    if not _is_power_of_two(N):
        raise ValueError(f"length must be a power of two, got {N}")
    packed = np.ascontiguousarray(np.packbits(u, axis=-1))
    if N < 64:  # zero-pad to one word: the stages past N then XOR in only zeros
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (8 - packed.shape[-1],), np.uint8)], axis=-1)
    # four blocks to a little-endian word, the first in the low bits
    words = _BLOCK_TRANSFORM.take(packed.view("<u2")).view("<u8")
    words ^= (words >> np.uint64(16)) & _EVEN_BLOCKS
    words ^= words >> np.uint64(32)
    _transform_stages(words)
    if blocks is not None and len(blocks):
        halves = words.view("<u2")
        halves[..., blocks] = _BLOCK_TRANSFORM.take(halves[..., blocks])
    return np.unpackbits(words.view(np.uint8), axis=-1, count=N)


# Row m of a code's table is the u-block of its codeword row m in bch.CODEBOOKS.
_BCH_U_BLOCKS = {tag: polar_transform(words) for tag, words in CODEBOOKS.items()}


def encode(code: CodeSpec, info: np.ndarray) -> np.ndarray:
    """Encode info bits (..., K) into codewords (..., N); any nonzero value is a 1.

    Non-BCH segments place their info bits at their info positions with zeros
    elsewhere. A BCH segment consumes its k info bits in order, and its
    u-block is set to the transform of the 16-bit BCH codeword, so the
    segment's subtree code bits equal that codeword.
    """
    info = np.asarray(info)
    if info.shape[-1:] != (code.K,):
        raise ValueError(f"expected info bits of shape (..., {code.K}), got shape {info.shape}")
    if info.dtype != np.uint8:
        info = (info != 0).view(np.uint8)
    u = np.zeros(info.shape[:-1] + (code.N,), dtype=np.uint8)
    # one slice copy per run of consecutive u-indices, 4x faster than a take of every bit
    for u_run, info_run in code.info_runs:
        u[..., u_run] = info[..., info_run]
    for t in code.bch_segments:
        block = u[..., SEGMENT_SIZE * t:SEGMENT_SIZE * (t + 1)]
        tag = code.segments[t]
        # the message sits at bits 15 - k to 14 of the block, and bit 15 is 0
        message = np.packbits(block, axis=-1, bitorder="little").view("<u2")[..., 0]
        block[...] = _BCH_U_BLOCKS[tag].take(message >> (15 - info_count(tag)), axis=0)
    return polar_transform(u)
