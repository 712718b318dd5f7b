"""Shared domain types: code layouts, segment patterns, quantized LLR arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np

from numpy._core.umath import clip as _clip  # np.clip's ufunc, without its per-call Python layer

SEGMENT_SIZE = 16

MIN_WIDTH = 4
MAX_WIDTH = 8


class PatternTag(Enum):
    """Node / segment pattern kinds, ordered by per-segment information count."""

    RATE0 = "rate0"
    REP = "rep"
    REP2 = "rep2"
    PCR = "pcr"
    BCH_T2 = "bch_t2"
    BCH_T1 = "bch_t1"
    RPC = "rpc"
    SPC2 = "spc2"
    SPC = "spc"
    RATE1 = "rate1"
    SLOW = "slow"


# The eight frozen-pattern node shapes, in matcher priority order.
# ("frozen", c) freezes the first c u-bits of a node; ("info", c) keeps only
# the last c as information. A node of size M has the shape only when M > c.
NODE_SHAPES = {
    PatternTag.RATE0: ("info", 0),
    PatternTag.RATE1: ("frozen", 0),
    PatternTag.REP: ("info", 1),
    PatternTag.SPC: ("frozen", 1),
    PatternTag.SPC2: ("frozen", 2),
    PatternTag.REP2: ("info", 2),
    PatternTag.RPC: ("frozen", 3),
    PatternTag.PCR: ("info", 3),
}


def frozen_prefix(tag: PatternTag, M: int) -> int:
    """Number of leading frozen u-bits of a size-M node with a NODE_SHAPES tag."""
    kind, c = NODE_SHAPES[tag]
    return c if kind == "frozen" else M - c


def node_frozen_mask(tag: PatternTag, M: int) -> np.ndarray:
    """Frozen mask of a size-M node with a NODE_SHAPES tag: True where frozen."""
    if tag not in NODE_SHAPES or M <= NODE_SHAPES[tag][1]:
        raise ValueError(f"no {tag} node of size {M}")
    return np.arange(M) < frozen_prefix(tag, M)


# The two grafted extended BCH codes, (generator, t): the narrow-sense generator
# polynomial of the (15, k) code, coefficients ascending by degree, and its
# correction radius. A row's info count k is 16 - len(generator).
BCH_CODES = {
    PatternTag.BCH_T2: ((1, 0, 0, 0, 1, 0, 1, 1, 1), 2),  # x^8 + x^7 + x^6 + x^4 + 1
    PatternTag.BCH_T1: ((1, 1, 0, 0, 1), 1),              # x^4 + x + 1
}

BCH_TAGS = frozenset(BCH_CODES)


def info_count(tag: PatternTag) -> int:
    """Information count of a 16-bit segment with one of the ten fast tags."""
    if tag in BCH_CODES:
        return SEGMENT_SIZE - len(BCH_CODES[tag][0])
    return SEGMENT_SIZE - frozen_prefix(tag, SEGMENT_SIZE)


# Bijection between the ten fast tags and their per-segment information counts.
FAST_TAG_BY_K = {info_count(tag): tag for tag in (*NODE_SHAPES, *BCH_CODES)}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CodeSpec:
    """Polar code layout: mother length N, info count K, the info index set, and
    the length-16 segments whose u-block carries an extended BCH codeword.

    A BCH segment's info positions are canonical placeholders that fix its
    information count (7 for BCH_T2, 11 for BCH_T1); its u-block carries the
    transform of a 16-bit BCH codeword instead. A layout without BCH segments
    is a plain polar layout.
    """

    N: int
    K: int
    info_set: frozenset[int]
    bch_segments: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not _is_integer(self.N) or not _is_integer(self.K):
            raise ValueError(f"N and K must be integers, not bool, got {self.N!r} and {self.K!r}")
        if not _is_power_of_two(self.N) or not 2 <= self.N <= 1024:
            raise ValueError(f"N must be a power of two in [2, 1024], got {self.N}")
        if not 0 <= self.K <= self.N:
            raise ValueError(f"K out of range: {self.K}")
        # Every entry is checked before a set can merge 1.0 into 1. Accepted
        # numpy integers become int.
        info, bch = tuple(self.info_set), tuple(self.bch_segments)
        for entry in info + bch:
            if not _is_integer(entry):
                raise ValueError(
                    f"info_set and bch_segments entries must be integers, got {entry!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "info_set", frozenset(map(int, info)))
        object.__setattr__(self, "bch_segments", frozenset(map(int, bch)))
        if len(self.info_set) != self.K:
            raise ValueError(f"info_set has {len(self.info_set)} entries, expected K={self.K}")
        if self.info_set and not all(0 <= i < self.N for i in self.info_set):
            raise ValueError("info_set contains out-of-range indices")
        if not self.bch_segments <= frozenset(range(self.segment_count)):
            raise ValueError("bch_segments contains out-of-range segment indices")
        if any(self.segments[t] is PatternTag.SLOW for t in self.bch_segments):
            raise ValueError("a BCH segment needs 7 or 11 info bits at canonical positions")

    @property
    def n(self) -> int:
        """Number of polarization stages, log2(N)."""
        return self.N.bit_length() - 1

    @property
    def frozen_set(self) -> frozenset[int]:
        return frozenset(range(self.N)) - self.info_set

    @cached_property
    def info_positions(self) -> np.ndarray:
        """Sorted info indices as a read-only integer array, built once."""
        positions = np.array(sorted(self.info_set), dtype=np.int64)
        positions.flags.writeable = False
        return positions

    @cached_property
    def info_gather(self) -> np.ndarray:
        """Read-only u-index of each info bit, built once for encode and decode: a
        BCH segment's message sits one place below its canonical placeholders."""
        positions = self.info_positions
        gather = positions - np.isin(positions // SEGMENT_SIZE, list(self.bch_segments))
        gather.flags.writeable = False
        return gather

    @cached_property
    def info_runs(self) -> tuple[tuple[slice, slice], ...]:
        """(u-slice, info-slice) of each run of consecutive indices in info_gather,
        built once for encode: 19 runs on the fast (1024, 896) layout."""
        gather = self.info_gather
        first = np.flatnonzero(np.diff(gather, prepend=-2) != 1).tolist()
        return tuple((slice(u, u + hi - lo), slice(lo, hi))
                     for u, lo, hi in zip(gather[first].tolist(), first, [*first[1:], self.K]))

    @cached_property
    def frozen_mask(self) -> np.ndarray:
        """Read-only boolean mask over u-domain indices, True where frozen."""
        mask = np.ones(self.N, dtype=bool)
        mask[self.info_positions] = False
        mask.flags.writeable = False
        return mask

    @property
    def segment_count(self) -> int:
        return self.N // SEGMENT_SIZE

    @cached_property
    def segments(self) -> tuple[PatternTag, ...]:
        """Each segment's pattern, the one segment classifier: the fast tag of
        its info count where its positions are canonical and it is a BCH
        segment exactly when that tag is a BCH tag; SLOW otherwise."""
        blocks = self.frozen_mask[:SEGMENT_SIZE * self.segment_count].reshape(-1, SEGMENT_SIZE)
        ks = SEGMENT_SIZE - blocks.sum(axis=1)
        canonical = (blocks == canonical_frozen_mask(ks)).all(axis=1)
        tags = []
        for t, (k, fast) in enumerate(zip(ks.tolist(), canonical.tolist())):
            tag = FAST_TAG_BY_K.get(k, PatternTag.SLOW)
            fast = fast and (tag in BCH_TAGS) == (t in self.bch_segments)
            tags.append(tag if fast else PatternTag.SLOW)
        return tuple(tags)

    def __getstate__(self) -> dict:
        """Pickle the fields only; what is cached on the layout is rebuilt on use."""
        return {f.name: self.__dict__[f.name] for f in fields(self)}


def canonical_frozen_mask(k) -> np.ndarray:
    """Canonical length-16 frozen mask for a segment with k info bits, or one
    row of it per count for an array of counts.

    Frozen positions occupy the smallest local indices, information (or BCH
    placeholder) positions the largest.
    """
    k = np.asarray(k)
    if np.any((k < 0) | (k > SEGMENT_SIZE)):
        raise ValueError(f"segment info count out of range: {k}")
    return np.arange(SEGMENT_SIZE) < SEGMENT_SIZE - k[..., None]


def saturation_limit(width: int) -> int:
    """Largest representable magnitude for a symmetric width-bit LLR; the one
    width gate, raising ValueError for anything but an integer in range."""
    if not _is_integer(width) or not MIN_WIDTH <= width <= MAX_WIDTH:
        raise ValueError(f"width must be an integer in [{MIN_WIDTH}, {MAX_WIDTH}], got {width!r}")
    return (1 << (int(width) - 1)) - 1


_LIMITS = {width: saturation_limit(width) for width in range(MIN_WIDTH, MAX_WIDTH + 1)}


def saturate(values: np.ndarray, width: int) -> np.ndarray:
    """Clamp signed integer or float LLRs into the symmetric width-bit range,
    into a new array. An int width reads its limit from a per-width table
    (any other, 5.0 too, goes through the gate), and the clip ufunc skips
    np.clip's np.iinfo per Python-int bound, which costs more than the clip on
    a batch-1 decode's arrays."""
    limit = (type(width) is int and _LIMITS.get(width)) or saturation_limit(width)
    return _clip(values, -limit, limit)


@dataclass(frozen=True)
class QuantizedLLR:
    """Fixed-point LLR value(s) under symmetric saturation.

    value may be a scalar or an integer array (quantize_channel gives int8);
    the most negative two's complement code is never used, so magnitudes fit
    in width-1 bits.
    """

    value: int | np.integer | np.ndarray
    width: int

    def __post_init__(self) -> None:
        limit = saturation_limit(self.width)
        arr = np.asarray(self.value)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("quantized LLRs must be integers")
        # two reductions rather than two comparisons that each build a bool array
        if arr.size and (arr.min() < -limit or arr.max() > limit):
            raise ValueError(f"value outside [-{limit}, {limit}] for width {self.width}")

    @property
    def limit(self) -> int:
        return saturation_limit(self.width)


def hard_decision(alpha):
    """Map LLR(s) to bit(s): 0 for alpha >= 0, else 1, as the comparison's bool
    array viewed as uint8 (no copy). NaN decides 0, unchecked: the decode entry
    is the one gate for non-finite LLRs."""
    arr = np.asarray(alpha)
    if arr.ndim == 0:
        return int(arr < 0)
    return (arr < 0).view(np.uint8)


_UNSIGNED = {np.dtype(f"i{size}"): np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


def magnitude(alpha):
    """|alpha|, with signed integers read back as unsigned of the same size, so
    the most negative code (int8 -128) is 128 rather than wrapping to itself.
    The view costs no pass over the data."""
    mag = np.abs(alpha)
    unsigned = _UNSIGNED.get(mag.dtype)
    return mag if unsigned is None else mag.view(unsigned)


def wagner(alpha: np.ndarray, target=0) -> np.ndarray:
    """The one parity-check decision: hard decisions on the last axis, with the
    lowest-index minimum-magnitude position flipped where the parity is not
    target: 0, 1, or an array of them that broadcasts against (..., 1).

    target None (RPC) gives the rows along axis -2 one common parity, the one
    whose flips cost the smaller sum of row minima (even on a tie). The flip
    runs on the flat C-ordered bits, where row r's minimum is at argmin + r * M.
    """
    bits = hard_decision(alpha)
    flat = bits.reshape(-1)
    mag = magnitude(alpha)
    weakest = mag.argmin(axis=-1).reshape(-1) + np.arange(0, flat.size, bits.shape[-1])
    parity = np.bitwise_xor.reduce(bits, axis=-1, keepdims=True)
    if target is None:
        # even parity flips the weakest position of each odd row, odd parity of each even one
        odd = parity[..., 0]
        cost = mag.reshape(-1)[weakest].reshape(odd.shape)
        to_even, to_odd = llr_sum(np.where(odd, cost, 0)), llr_sum(np.where(odd, 0, cost))
        target = (to_even > to_odd)[..., None, None]
    flat[weakest] ^= (parity != target).reshape(-1)
    return flat.reshape(bits.shape)


def llr_sum(alpha: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum LLRs along an axis; integer LLRs add in int64 so no partial sum wraps."""
    return np.add.reduce(alpha, axis=axis, dtype=np.int64 if alpha.dtype.kind in "iu" else None)


@dataclass(frozen=True)
class TraversalStats:
    """Decode-tree traversal counters, a pure function of the code layout.

    terminal_nodes counts pattern-matched nodes; edges counts each
    parent-to-child edge entered once; f_ops counts scalar f and g LLR
    evaluations. The histogram maps each pattern tag to its node count.
    """

    terminal_nodes: int
    edges: int
    f_ops: int
    histogram: dict[PatternTag, int]

    def __post_init__(self) -> None:
        if self.terminal_nodes != sum(self.histogram.values()):
            raise ValueError("terminal_nodes must equal the histogram total")

    @property
    def visited_nodes(self) -> int:
        """All nodes entered during traversal, internal plus terminal."""
        return self.edges + 1

    def as_dict(self) -> dict:
        """JSON-friendly view with string pattern keys."""
        return {
            "terminal_nodes": self.terminal_nodes,
            "visited_nodes": self.visited_nodes,
            "edges": self.edges,
            "edges_directed": 2 * self.edges,
            "f_ops": self.f_ops,
            "histogram": {tag.value: count for tag, count in self.histogram.items()},
        }
