"""Fast SC decoding: each layout's pruned tree is built once as a flat plan of steps.

All node decoders accept leading batch axes; LLRs are float64 in the
reference path or saturating integers when a width is given.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bch import bch_node_decode
from .core import (
    BCH_CODES,
    BCH_TAGS,
    NODE_SHAPES,
    SEGMENT_SIZE,
    CodeSpec,
    PatternTag,
    TraversalStats,
    frozen_prefix,
    hard_decision,
    llr_sum,
    saturate,
    saturation_limit,
    wagner,
)
from .encoder import info_gather, polar_transform


def f_check(a, b, out=None):
    """Min-sum check update: sign(a) * sign(b) * min(|a|, |b|), with sign(0) = 0,
    on floats or signed integers.

    Computed as max(min(a, b), -max(a, b)), which equals it exactly and takes
    no magnitude: the only negation is of max(a, b), so it is exact in two's
    complement except for (-128, -128) in int8, which stays -128 as +128 has
    no int8 code. With out, -max(a, b) is built in out and min(a, b) is the
    one temporary; out is returned. NaN propagates, unchecked, as in g_bit.
    """
    low = np.minimum(a, b)
    return np.maximum(low, np.negative(np.maximum(a, b, out=out), out=out), out=out)


def g_bit(a, b, u, width=None, out=None):
    """Variable update: b + (1 - 2u) * a, saturating when a width is given.

    Integers add in at least 16 bits, so no sum wraps, with +-a applied
    branch-free: for s = -u (0 or -1), (a ^ s) - s is a or -a. A saturated
    result narrows back to the inputs' dtype. With out (returned), floats run
    the same operations in out. An int8 out at widths 4 to 7 takes an early
    path that adds in out itself, where no two in-range values can wrap: its
    inputs must be integers in the width's range and u a one-byte 0/1 array,
    as the decoder's are, and the saturated sum is copied back into out. NaN
    propagates, unchecked.
    """
    if out is not None and out.dtype == np.int8 and width is not None and width <= 7:
        sign = np.negative(u.view(np.int8))
        np.bitwise_xor(a, sign, out=out)
        out -= sign
        out += b
        out[...] = saturate(out, width)
        return out
    a, b, u = np.asarray(a), np.asarray(b), np.asarray(u)
    dtype = np.result_type(a, b)
    if dtype.kind != "i":
        sign = np.subtract(1.0, np.multiply(u, 2.0, out=out), out=out)
        total = np.add(b, np.multiply(sign, a, out=out), out=out)
        total = total if width is None else saturate(total, width)
    else:
        sign = np.negative(u, dtype=np.promote_types(dtype, np.int16))
        total = np.bitwise_xor(a, sign, dtype=sign.dtype)
        total -= sign
        total += b
        total = total if width is None else saturate(total, width).astype(dtype, copy=False)
    if out is not None and total is not out:
        out[...] = total
    return total if out is None else out


def parallel_min_mask(amplitudes, magnitude_bits: int) -> np.ndarray:
    """Mark every position attaining the minimum amplitude via bit-plane elimination.

    Scans planes from most to least significant: candidates showing a 1 where
    others show 0 are eliminated, unless that would eliminate everyone.
    Returns a boolean mask (possibly with several set bits). The model of the
    paper's comparison circuit: decoders take argmin, its first mark, instead.
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


def _classes(alpha: np.ndarray, c: int) -> np.ndarray:
    """(..., M) as a C-ordered (..., s, M // s) array for s = 1, 2, 4 at c = 1, 2, 3,
    so row r is the residue class r mod s: an ("info", c) codeword repeats one
    s-bit block, and a ("frozen", c) codeword's classes have equal parities,
    even ones below c = 3. Every reduction then runs along a contiguous axis."""
    interleaved = alpha.reshape(alpha.shape[:-1] + (-1, 1 << (c - 1)))
    return np.ascontiguousarray(interleaved.swapaxes(-1, -2))


def decode_info(alpha, c: int, width: int | None = None) -> np.ndarray:
    """Decode an ("info", c) node: each residue class repeats one bit.

    Rate-0 (c = 0) is all zeros. REP and REP-2 decide each class bit on its LLR
    sum; PCR (c = 3) Wagner-decodes the four class sums. PCR is ML in float; in
    fixed point each sum saturates, so it is ML only while
    |alpha| <= saturation_limit(width) // (M // 4), where no sum can pass the rail.
    """
    out = np.zeros(alpha.shape, dtype=np.uint8)
    if c:
        sums = llr_sum(_classes(alpha, c))
        if c == 3:
            bits = wagner(sums if width is None else saturate(sums, width))
        else:
            bits = hard_decision(sums)
        # position j takes the bit of its class, j mod s
        out.reshape(sums.shape[:-1] + (-1, sums.shape[-1]))[...] = bits[..., None, :]
    return out


def decode_frozen(alpha, c: int, width: int | None = None) -> np.ndarray:
    """Decode a ("frozen", c) node: one Wagner step along each residue class.

    Rate-1 (c = 0) is the hard decisions. SPC and SPC-2 bring each class to
    even parity; RPC (c = 3) brings all four to one parity, the one whose
    flips cost the smaller sum of class minima (even on a tie).
    """
    if not c:
        return hard_decision(alpha)
    bits = wagner(_classes(alpha, c), None if c == 3 else 0)
    return bits.swapaxes(-1, -2).reshape(alpha.shape)


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


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: info bits, re-encoded codeword estimate, traversal stats."""

    info_bits: np.ndarray
    codeword_estimate: np.ndarray
    stats: TraversalStats


_NODE_DECODERS = {
    **{tag: partial(decode_info if kind == "info" else decode_frozen, c=c)
       for tag, (kind, c) in NODE_SHAPES.items()},
    **{tag: partial(bch_node_decode, tag=tag) for tag in BCH_CODES},
}


def _entry_llrs(alpha: np.ndarray, width) -> np.ndarray:
    """The one entry rule of both public decoders: with a width, integer LLRs
    clamped into its range and carried as int8; without, finite float64 LLRs."""
    if width is not None:
        if alpha.dtype.kind not in "iu":
            raise ValueError("fixed-point decoding requires integer LLRs")
        if alpha.dtype.kind == "u":  # clamp before the cast, so no large value turns negative
            alpha = np.minimum(alpha, saturation_limit(width)).astype(np.int8)
        return saturate(alpha, width).astype(np.int8, copy=False)
    alpha = alpha.astype(np.float64, copy=False)
    if not np.isfinite(alpha).all():
        raise ValueError("LLRs must be finite: alpha holds NaN or inf")
    return alpha


def decode_node(tag, alpha, width: int | None = None) -> np.ndarray:
    """Decode one node (..., M) of any fast pattern tag, float or width-bit fixed
    point, under fast_sc_decode's entry rule (integers clamped into the width,
    floats finite; anything else raises ValueError). M must exceed the tag's c
    and be a multiple of its residue-class count."""
    tag = PatternTag(tag)
    alpha = np.asarray(alpha)
    if tag not in _NODE_DECODERS:
        raise ValueError(f"no node decoder for {tag}")
    if not alpha.ndim:
        raise ValueError(f"expected node LLRs of shape (..., M), got shape {alpha.shape}")
    if tag in NODE_SHAPES:
        c, M = NODE_SHAPES[tag][1], alpha.shape[-1]
        classes = 1 << max(c - 1, 0)
        if M <= c or M % classes:
            raise ValueError(f"{tag.value} nodes need more than {c} values, "
                             f"a multiple of {classes}, got {M}")
    return _NODE_DECODERS[tag](_entry_llrs(alpha, width), width=width)


# A plan's terminal node: its tag, its resolved decoder, the codeword span it
# writes, and the (left, right) spans of the partial-sum XORs that follow it.
_Terminal = namedtuple("_Terminal", "tag decode span xors")


def _decode_terminal(node: _Terminal, alpha, width, bits) -> None:
    """Decode a terminal node into its span of bits, then fold each finished
    left half with its right half: bits[left] ^= bits[right], innermost first."""
    bits[node.span] = node.decode(alpha, width=width)
    for left, right in node.xors:
        bits[left] ^= bits[right]


_F, _G, _NODE = range(3)
# A decode block, which run_bler also streams each chunk in, holds at most
# _BLOCK_FRAMES frames and at most _BLOCK_BYTES of LLRs: at N = 1024 that is
# 1024 int8 frames or 256 float64 ones. Its stage memory, about as large as
# its LLRs, then stays in a 2 MB L2 cache while the plan walks it, and big
# batches keep a small heap.
_BLOCK_FRAMES = 1024
_BLOCK_BYTES = 2 << 20


def _block_frames(N: int, dtype) -> int:
    """Frames of N LLRs of dtype in one decode block: at most _BLOCK_FRAMES and
    _BLOCK_BYTES of LLRs, but at least one frame."""
    return max(1, min(_BLOCK_FRAMES, _BLOCK_BYTES // (N * np.dtype(dtype).itemsize)))


@dataclass(frozen=True)
class DecodePlan:
    """A layout's pruned tree as flat steps (kind, stage, x, y, z) in decode order for
    _run_plan, and the counters read from them; gather indexes the info bits in
    polar_transform(codeword, bch_blocks)."""

    stats: TraversalStats
    steps: tuple
    gather: np.ndarray
    bch_blocks: np.ndarray


def build_tree(code: CodeSpec, limits: PatternLimits | None = None) -> tuple:
    """Prune the SC tree for a layout, stopping at every matched pattern node,
    into its decode steps: F opens a branch at its stage, G moves to the
    branch's right child, and a node step is a leaf."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    bch = {t: code.segments[t] for t in code.bch_segments}
    frozen_before = [0, *np.cumsum(code.frozen_mask).tolist()]
    steps = []

    def rec(start: int, stage: int, after: tuple = ()) -> None:
        """Append the steps of the 2^stage-bit span at start; after holds the XORs
        that complete its ancestors once its last terminal is decoded, innermost first."""
        size = 1 << stage
        tag = _match_span(frozen_before, start, size, limits, bch)
        if tag is not None:
            terminal = _Terminal(tag, _NODE_DECODERS[tag], np.s_[..., start:start + size], after)
            steps.append((_NODE, stage, None, None, terminal))
            return
        if not stage:
            raise ValueError(f"leaf at index {start} matches no enabled pattern; "
                             "rate0/rate1 must be allowed at size 1")
        half = size // 2
        left, right = np.s_[..., :half], np.s_[..., half:]
        bits_left = np.s_[..., start:start + half]
        steps.append((_F, stage, left, right, None))
        rec(start, stage - 1)
        steps.append((_G, stage, left, right, bits_left))
        rec(start + half, stage - 1, ((bits_left, np.s_[..., start + half:start + size]), *after))

    rec(0, code.n)
    return tuple(steps)


def tree_stats(steps: tuple) -> TraversalStats:
    """Traversal counters of a plan's steps (layout-determined, channel-free):
    each F step opens a branch of two edges and 2^stage f evaluations, and the
    node steps are the terminals in decode order."""
    tags = [z.tag for kind, _, _, _, z in steps if kind == _NODE]
    f_stages = [stage for kind, stage, *_ in steps if kind == _F]
    return TraversalStats(terminal_nodes=len(tags), edges=2 * len(f_stages),
                          f_ops=sum(1 << stage for stage in f_stages),
                          histogram={tag: tags.count(tag) for tag in tags})


def decode_plan(code: CodeSpec, limits: PatternLimits | None = None) -> DecodePlan:
    """The layout's plan under limits, compiled on first use and kept on the layout."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    plans = vars(code).setdefault("_decode_plans", {})
    plan = plans.get(limits)
    if plan is None:
        steps = build_tree(code, limits)
        plan = plans[limits] = DecodePlan(tree_stats(steps), steps, info_gather(code),
                                          np.array(sorted(code.bch_segments), dtype=np.intp))
    return plan


def _run_plan(plan: DecodePlan, alpha: np.ndarray, bits: np.ndarray, width, memory) -> None:
    """Run the plan's steps on LLRs (frames, N), writing the codewords into bits.
    Stage s < n keeps its (frames, 2^s) LLRs at memory[frames * (2^s - 1):]: F
    and G at stage s overwrite stage s - 1, G once the left subtree is done."""
    rows = len(alpha)
    llr = [memory[rows * ((1 << s) - 1):rows * ((2 << s) - 1)].reshape(rows, 1 << s)
           for s in range(alpha.shape[-1].bit_length() - 1)] + [alpha]
    for kind, stage, x, y, z in plan.steps:
        if kind == _F:
            f_check(llr[stage][x], llr[stage][y], out=llr[stage - 1])
        elif kind == _G:
            g_bit(llr[stage][x], llr[stage][y], bits[z], width, out=llr[stage - 1])
        else:
            _decode_terminal(z, llr[stage], width, bits)


def fast_sc_decode(code: CodeSpec, alpha, width: int | None = None,
                   limits: PatternLimits | None = None) -> DecodeResult:
    """Fast SC decode of channel LLRs (..., N), float or width-bit fixed point.

    A fixed-point width is given only as width. Integer inputs are clamped
    into the width's range on entry and carried as int8. Float LLRs must be
    finite: a NaN or +-inf anywhere in alpha raises ValueError. This is the one
    NaN gate; the kernels (f_check, g_bit, hard_decision) check nothing.
    """
    alpha = np.asarray(alpha)
    if alpha.shape[-1:] != (code.N,):
        raise ValueError(f"expected LLRs of shape (..., {code.N}), got shape {alpha.shape}")
    alpha = _entry_llrs(alpha, width)
    plan = decode_plan(code, limits)
    bits = np.empty(alpha.shape, dtype=np.uint8)
    frames, frame_bits = alpha.reshape(-1, code.N), bits.reshape(-1, code.N)
    block = _block_frames(code.N, alpha.dtype)
    memory = np.empty(min(len(frames), block) * (code.N - 1), dtype=alpha.dtype)
    for lo in range(0, len(frames), block):
        _run_plan(plan, frames[lo:lo + block], frame_bits[lo:lo + block], width, memory)
    # take, unlike [..., gather] indexing, returns C-ordered bits (7x faster at batch 4096)
    info_bits = polar_transform(bits, plan.bch_blocks).take(plan.gather, axis=-1)
    return DecodeResult(info_bits=info_bits, codeword_estimate=bits, stats=plan.stats)
