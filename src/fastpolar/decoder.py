"""Fast SC decoding: pruned-tree traversal with pattern node decoders.

All node decoders accept leading batch axes; LLRs are float64 in the
reference path or saturating integers when a width is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bch import VARIANT_BY_TAG, bch_node_decode
from .core import (
    BCH_TAGS,
    NODE_SHAPES,
    SEGMENT_SIZE,
    CodeSpec,
    FastPolarCode,
    PatternTag,
    QuantizedLLR,
    TraversalStats,
    frozen_prefix,
    hard_decision,
    llr_sum,
    saturate,
)
from .encoder import bch_message_positions, polar_transform


def f_check(a, b):
    """Min-sum check update: sign(a) * sign(b) * min(|a|, |b|), with sign(0) = 0."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def g_bit(a, b, u, width=None):
    """Variable update: b + (1 - 2u) * a, saturating when a width is given."""
    a = np.asarray(a)
    b = np.asarray(b)
    u = np.asarray(u)
    if np.issubdtype(a.dtype, np.integer) and np.issubdtype(b.dtype, np.integer):
        total = b.astype(np.int64) + (1 - 2 * u.astype(np.int64)) * a.astype(np.int64)
    else:
        total = b + (1.0 - 2.0 * u) * a
    if width is not None:
        total = saturate(total, width)
    return total


def parallel_min_mask(amplitudes, magnitude_bits: int) -> np.ndarray:
    """Mark every position attaining the minimum amplitude via bit-plane elimination.

    Scans planes from most to least significant: candidates showing a 1 where
    others show 0 are eliminated, unless that would eliminate everyone.
    Returns a boolean mask (possibly with several set bits).
    """
    amp = np.asarray(amplitudes)
    if amp.shape[-1] < 2:
        raise ValueError("need at least two amplitudes")
    if magnitude_bits < 1:
        raise ValueError("magnitude_bits must be positive")
    if np.any(amp < 0) or np.any(amp >= (1 << magnitude_bits)):
        raise ValueError(f"amplitudes must fit in {magnitude_bits} unsigned bits")
    eliminated = np.zeros(amp.shape, dtype=bool)
    for j in range(magnitude_bits - 1, -1, -1):
        plane = ((amp >> j) & 1).astype(bool)
        trial = eliminated | plane
        wipe_out = trial.all(axis=-1, keepdims=True)
        eliminated = np.where(wipe_out, eliminated, trial)
    return ~eliminated


def decode_rep(alpha, width: int | None = None, stride: int = 1) -> np.ndarray:
    """Repetition decode: one hard decision on the LLR sum of each residue class
    mod stride, so stride 1 decodes REP and stride 2 decodes REP-2."""
    alpha = np.asarray(alpha)
    out = np.empty(alpha.shape, dtype=np.uint8)
    for r in range(stride):
        total = llr_sum(alpha[..., r::stride])
        if width is not None:
            total = saturate(total, width)
        out[..., r::stride] = np.asarray(hard_decision(total), dtype=np.uint8)[..., None]
    return out


def decode_spc(alpha, width: int | None = None, stride: int = 1) -> np.ndarray:
    """Wagner decode of each residue class mod stride: flip the weakest position
    of a class whose parity fails. Stride 1 decodes SPC, stride 2 SPC-2.

    Duplicate minima resolve to the lowest index. The quantized path locates
    the minimum through the bit-plane mask, the float path through argmin.
    """
    alpha = np.asarray(alpha)
    out = np.empty(alpha.shape, dtype=np.uint8)
    for r in range(stride):
        part = alpha[..., r::stride]
        bits = np.atleast_1d(hard_decision(part))
        parity = np.bitwise_xor.reduce(bits, axis=-1)
        if width is None:
            weakest = np.argmin(np.abs(part), axis=-1)
        else:
            weakest = np.argmax(parallel_min_mask(np.abs(part), width - 1), axis=-1)
        flip = np.zeros_like(bits)
        np.put_along_axis(flip, np.asarray(weakest)[..., None],
                          np.asarray(parity)[..., None].astype(np.uint8), axis=-1)
        out[..., r::stride] = bits ^ flip
    return out


def _group_view(alpha: np.ndarray) -> np.ndarray:
    """Reshape (..., M) so the last axis indexes the four residue groups mod 4."""
    M = alpha.shape[-1]
    if M < 4 or M % 4:
        raise ValueError("node size must be a positive multiple of 4")
    return alpha.reshape(alpha.shape[:-1] + (M // 4, 4))


def decode_rpc(alpha, width: int | None = None) -> np.ndarray:
    """Decode an RPC node: equalize the four residue-group parities cheaply.

    Per group, take the sign parity c_i and the weakest member; flip the
    weakest member of every group on whichever parity side costs less.
    """
    alpha = np.asarray(alpha)
    view = _group_view(alpha)
    bits = np.atleast_2d(hard_decision(view))
    c = np.bitwise_xor.reduce(bits, axis=-2)
    mag = np.abs(view)
    delta = mag.min(axis=-2)
    weakest = mag.argmin(axis=-2)
    cost_ones = llr_sum(np.where(c == 1, delta, 0))
    cost_zeros = llr_sum(np.where(c == 0, delta, 0))
    flip_ones = cost_ones <= cost_zeros
    flip_group = np.where(np.asarray(flip_ones)[..., None], c == 1, c == 0)
    flips = np.zeros(bits.shape, dtype=np.uint8)
    np.put_along_axis(flips, np.asarray(weakest)[..., None, :],
                      flip_group[..., None, :].astype(np.uint8), axis=-2)
    return (bits ^ flips).reshape(alpha.shape)


def decode_pcr(alpha, width: int | None = None) -> np.ndarray:
    """Decode a PCR node: Wagner-decode the four group LLR sums, then broadcast.

    Float decoding is ML. In fixed point each group sum saturates, so the
    decode is ML only while |alpha| <= saturation_limit(width) // (M // 4),
    where no sum of M // 4 values can pass the rail.
    """
    alpha = np.asarray(alpha)
    view = _group_view(alpha)
    delta = llr_sum(view, axis=-2)
    if width is not None:
        delta = saturate(delta, width)
    group_bits = decode_spc(delta, width)
    out = np.broadcast_to(group_bits[..., None, :], view.shape)
    return np.ascontiguousarray(out).reshape(alpha.shape)


@dataclass(frozen=True)
class PatternLimits:
    """Maximum node size matched per pattern: None is unbounded, 0 disables.

    Defaults: SPC up to 128, SPC-2 up to 32, Rate-1 up to 256, Rate-0
    unbounded, everything else at 16. The SPC-2 cap of 32 is pinned by the
    reference traversal table of release criterion 4 (40 terminal nodes for
    the plain GA layout at N=1024, K=896); it is also two interleaved
    16-wide Wagner SPC decodes, the parallelism the other ML nodes run at.
    """

    rate0: int | None = None
    rate1: int | None = 256
    rep: int | None = 16
    spc: int | None = 128
    spc2: int | None = 32
    rep2: int | None = 16
    rpc: int | None = 16
    pcr: int | None = 16

    def allows(self, tag: PatternTag, size: int) -> bool:
        if tag in BCH_TAGS:
            return size == SEGMENT_SIZE
        cap = getattr(self, tag.value)
        return NODE_SHAPES[tag][1] < size and (cap is None or size <= cap)


DEFAULT_LIMITS = PatternLimits()

# SPC-2 / REP-2 / RPC / PCR are ML on their nodes rather than SC-equivalent;
# disabling them makes fast decoding match bit-by-bit SC exactly.
SC_EQUIVALENT_LIMITS = PatternLimits(spc2=0, rep2=0, rpc=0, pcr=0)


@dataclass(frozen=True)
class TreeNode:
    """Node of the pruned decode tree; tag is None for internal branches."""

    start: int
    size: int
    tag: PatternTag | None
    children: tuple["TreeNode", ...] = ()


def _match_span(frozen_before, start, size, limits, bch_segments):
    """Tag of the first NODE_SHAPES row the span matches; frozen_before[i] is
    the number of frozen u-bits below index i."""
    if bch_segments and size >= SEGMENT_SIZE:
        first = start // SEGMENT_SIZE
        if not bch_segments.keys().isdisjoint(range(first, first + size // SEGMENT_SIZE)):
            return bch_segments[first] if size == SEGMENT_SIZE else None
    base = frozen_before[start]
    nf = frozen_before[start + size] - base
    for tag in NODE_SHAPES:
        prefix = frozen_prefix(tag, size)
        # The span has the shape's mask exactly when it holds `prefix` frozen
        # bits, all of them in its first `prefix` positions.
        if nf == prefix and frozen_before[start + prefix] - base == prefix \
                and limits.allows(tag, size):
            return tag
    return None


def build_tree(code: CodeSpec | FastPolarCode, limits: PatternLimits | None = None) -> TreeNode:
    """Prune the SC tree for a layout: stop at every matched pattern node."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    spec = code.spec if isinstance(code, FastPolarCode) else code
    bch = code.bch_segments if isinstance(code, FastPolarCode) else {}
    frozen_before = [0, *np.cumsum(spec.frozen_mask).tolist()]

    def rec(start: int, size: int) -> TreeNode:
        tag = _match_span(frozen_before, start, size, limits, bch)
        if tag is not None:
            return TreeNode(start, size, tag)
        if size == 1:
            raise ValueError(
                f"leaf at index {start} matches no enabled pattern; "
                "rate0/rate1 must be allowed at size 1"
            )
        half = size // 2
        return TreeNode(start, size, None, (rec(start, half), rec(start + half, half)))

    return rec(0, spec.N)


def tree_stats(root: TreeNode) -> TraversalStats:
    """Traversal counters for a pruned tree (layout-determined, channel-free)."""
    histogram: dict[PatternTag, int] = {}
    totals = {"nodes": 0, "f_ops": 0, "terminal": 0}

    def walk(node: TreeNode) -> None:
        totals["nodes"] += 1
        if node.tag is not None:
            totals["terminal"] += 1
            histogram[node.tag] = histogram.get(node.tag, 0) + 1
            return
        totals["f_ops"] += node.size
        for child in node.children:
            walk(child)

    walk(root)
    return TraversalStats(
        terminal_nodes=totals["terminal"],
        edges=totals["nodes"] - 1,
        f_ops=totals["f_ops"],
        histogram=histogram,
    )


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: info bits, re-encoded codeword estimate, traversal stats."""

    info_bits: np.ndarray
    codeword_estimate: np.ndarray
    stats: TraversalStats


_NODE_DECODERS = {
    PatternTag.RATE0: lambda alpha, width: np.zeros(alpha.shape, dtype=np.uint8),
    PatternTag.RATE1: lambda alpha, width: np.atleast_1d(hard_decision(alpha)),
    PatternTag.REP: decode_rep,
    PatternTag.SPC: decode_spc,
    PatternTag.SPC2: partial(decode_spc, stride=2),
    PatternTag.REP2: partial(decode_rep, stride=2),
    PatternTag.RPC: decode_rpc,
    PatternTag.PCR: decode_pcr,
    **{tag: partial(bch_node_decode, variant=variant) for tag, variant in VARIANT_BY_TAG.items()},
}


def decode_node(tag, alpha, width: int | None = None) -> np.ndarray:
    """Decode one node of any fast pattern tag, float or width-bit fixed point."""
    tag = PatternTag(tag)
    alpha = np.asarray(alpha)
    if tag not in _NODE_DECODERS:
        raise ValueError(f"no node decoder for {tag}")
    if tag in NODE_SHAPES and alpha.shape[-1] <= NODE_SHAPES[tag][1]:
        raise ValueError(f"{tag.value} nodes need more than {NODE_SHAPES[tag][1]} values")
    return _NODE_DECODERS[tag](alpha, width=width)


def _decode_terminal(node: TreeNode, alpha, width):
    return decode_node(node.tag, alpha, width)


def _walk(node: TreeNode, alpha, width):
    if node.tag is not None:
        return _decode_terminal(node, alpha, width)
    half = node.size // 2
    a = alpha[..., :half]
    b = alpha[..., half:]
    beta_left = _walk(node.children[0], f_check(a, b), width)
    beta_right = _walk(node.children[1], g_bit(a, b, beta_left, width), width)
    return np.concatenate([beta_left ^ beta_right, beta_right], axis=-1)


def _extract_info(code: CodeSpec | FastPolarCode, u_hat: np.ndarray) -> np.ndarray:
    if not isinstance(code, FastPolarCode) or not code.bch_segments:
        spec = code.spec if isinstance(code, FastPolarCode) else code
        return u_hat[..., spec.info_positions]
    parts = []
    for t, seg in enumerate(code.segments):
        base = SEGMENT_SIZE * t
        block = u_hat[..., base:base + SEGMENT_SIZE]
        if t in code.bch_segments:
            word = polar_transform(block)
            parts.append(word[..., bch_message_positions(VARIANT_BY_TAG[seg.tag])])
        elif seg.k:
            parts.append(block[..., SEGMENT_SIZE - seg.k:])
    return np.concatenate(parts, axis=-1)


def fast_sc_decode(
    code: CodeSpec | FastPolarCode,
    alpha,
    width: int | None = None,
    limits: PatternLimits | None = None,
) -> DecodeResult:
    """Fast SC decode of channel LLRs (..., N), float or width-bit fixed point.

    alpha may also be a QuantizedLLR carrying the arithmetic width. Integer
    inputs are clamped into the internal width's range on entry.
    """
    if isinstance(alpha, QuantizedLLR):
        width = width if width is not None else alpha.width
        alpha = np.asarray(alpha.value)
    alpha = np.asarray(alpha)
    spec = code.spec if isinstance(code, FastPolarCode) else code
    if alpha.shape[-1] != spec.N:
        raise ValueError(f"expected {spec.N} LLRs, got {alpha.shape[-1]}")
    if width is not None:
        if not np.issubdtype(alpha.dtype, np.integer):
            raise ValueError("fixed-point decoding requires integer LLRs")
        alpha = saturate(alpha.astype(np.int64), width)
    else:
        alpha = alpha.astype(np.float64, copy=False)
    root = build_tree(code, limits)
    x_hat = _walk(root, alpha, width)
    u_hat = polar_transform(x_hat)
    return DecodeResult(
        info_bits=_extract_info(code, u_hat),
        codeword_estimate=x_hat,
        stats=tree_stats(root),
    )
