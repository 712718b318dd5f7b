"""Reliability orders (GA / PW), rate re-allocation, and layout documents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BCH_TAGS,
    FAST_TAG_BY_K,
    SEGMENT_SIZE,
    CodeSpec,
    PatternTag,
    _is_power_of_two,
    canonical_frozen_mask,
)

DEFAULT_DESIGN_SNR_DB = 4.5

_METHODS = ("ga", "pw")


class InfeasibleConstructionError(ValueError):
    """Raised when rate re-allocation cannot make every segment fast-decodable."""


@dataclass(frozen=True)
class ReliabilityOrder:
    """Permutation of u-domain indices from least to most reliable."""

    N: int
    order: np.ndarray
    method: str
    design_snr_db: float | None

    def __post_init__(self) -> None:
        order = np.asarray(self.order, dtype=np.int64)
        object.__setattr__(self, "order", order)
        if sorted(order.tolist()) != list(range(self.N)):
            raise ValueError("order must be a permutation of 0..N-1")


def _ln_phi(x: np.ndarray) -> np.ndarray:
    """log of the Gaussian-approximation phi function, numerically safe for large x."""
    x = np.asarray(x, dtype=float)
    small = x < 10.0
    xs = np.where(small, x, 1.0)
    out_small = -0.4527 * xs**0.86 + 0.0218
    xl = np.where(small, 10.0, x)
    out_large = 0.5 * np.log(np.pi / xl) + np.log1p(-10.0 / (7.0 * xl)) - xl / 4.0
    return np.where(small, out_small, out_large)


def _phi_inv_ln(ln_y: np.ndarray) -> np.ndarray:
    """Invert phi by bisection in the log domain (phi is monotone decreasing)."""
    ln_y = np.asarray(ln_y, dtype=float)
    lo = np.full_like(ln_y, 1e-12)
    hi = np.full_like(ln_y, 1e7)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = _ln_phi(mid) > ln_y
        new_lo, new_hi = np.where(above, mid, lo), np.where(above, hi, mid)
        # A step that moves neither bound is a fixed point: the remaining
        # steps would repeat it, so stopping here changes no bit.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _ga_means(N: int, design_snr_db: float) -> np.ndarray:
    """Mean bit-channel LLRs in natural order via the two-function GA recursion.

    The all-zero BPSK channel has mean LLR 2/sigma^2 with
    sigma^2 = 1 / (2 * 10^(design_snr_db / 10)).
    """
    m = np.array([4.0 * 10.0 ** (design_snr_db / 10.0)])
    while len(m) < N:
        ln_phi_m = _ln_phi(m)
        phi_m = np.exp(ln_phi_m)
        y = 1.0 - (1.0 - phi_m) ** 2
        with np.errstate(divide="ignore"):
            ln_y = np.where(phi_m < 1e-10, np.log(2.0) + ln_phi_m, np.log(y))
        out = np.empty(2 * len(m))
        out[0::2] = _phi_inv_ln(ln_y)
        out[1::2] = 2.0 * m
        m = out
    return m


def _pw_weights(N: int) -> np.ndarray:
    """Polarization weights: beta-expansion of each index with beta = 2^(1/4)."""
    n = N.bit_length() - 1
    beta = 2.0 ** 0.25
    bits = (np.arange(N)[:, None] >> np.arange(n)[None, :]) & 1
    return bits @ (beta ** np.arange(n))


def _reliability_scores(N: int, method: str, design_snr_db: float) -> np.ndarray:
    if not _is_power_of_two(N) or not 2 <= N <= 1024:
        raise ValueError(f"N must be a power of two in [2, 1024], got {N}")
    if method not in _METHODS:
        raise ValueError(f"unknown construction method: {method!r}")
    if method == "pw":
        return _pw_weights(N)
    if not np.isfinite(design_snr_db):
        raise ValueError(f"GA design SNR must be finite, got {design_snr_db}")
    return _ga_means(N, design_snr_db)


def reliability_sequence(
    N: int, method: str = "ga", design_snr_db: float = DEFAULT_DESIGN_SNR_DB
) -> ReliabilityOrder:
    """Deterministic reliability permutation, least reliable first.

    GA's design_snr_db is Es/N0 per BPSK dimension: the channel's mean LLR,
    the GA recursion's initial mean, is 4 * 10^(design_snr_db / 10). PW
    ignores design_snr_db. Reliability ties break toward the lower index.
    """
    method = method.lower()
    scores = _reliability_scores(N, method, design_snr_db)
    order = np.argsort(scores, kind="stable")
    snr = None if method == "pw" else design_snr_db
    return ReliabilityOrder(N=N, order=order, method=method, design_snr_db=snr)


def construct_polar(
    N: int, K: int, method: str = "ga", design_snr_db: float = DEFAULT_DESIGN_SNR_DB
) -> CodeSpec:
    """Plain polar layout: freeze the N-K least reliable positions.

    design_snr_db is Es/N0 per BPSK dimension (GA initial mean
    4 * 10^(design_snr_db / 10)), as in reliability_sequence.
    """
    if not 0 <= K <= N:
        raise ValueError(f"K out of range: {K}")
    rel = reliability_sequence(N, method, design_snr_db)
    info = frozenset(int(i) for i in rel.order[N - K:])
    return CodeSpec(N=N, K=K, info_set=info)


def _reallocate(N: int, K: int, scores: np.ndarray):
    """Rate re-allocation: adjust per-segment info counts until all are supported.

    Walks segments in order. While segment t has an unsupported count, demote
    its least reliable information bit and promote the most reliable active
    frozen bit j of a later segment, provided the donor segment's count k_j
    satisfies (11 <= k_j < 16) or (k_j < 3); bits failing the gate become
    inactive. When no active later frozen bit remains, fall back to promoting
    the most reliable active frozen bit inside t and demoting the least
    reliable information bit of a later segment. Demoted bits become inactive
    so no bit moves twice. Ties break toward the lower index.

    Returns (info mask, per-segment info counts, move list).
    """
    n_seg = N // SEGMENT_SIZE
    order = np.argsort(scores, kind="stable")
    info = np.zeros(N, dtype=bool)
    info[order[N - K:]] = True
    active = ~info
    moves: list[tuple[str, int, int]] = []
    for t in range(n_seg):
        seg = slice(SEGMENT_SIZE * t, SEGMENT_SIZE * (t + 1))
        while int(info[seg].sum()) not in FAST_TAG_BY_K:
            later = np.flatnonzero(~info & active)
            later = later[later >= SEGMENT_SIZE * (t + 1)]
            if len(later):
                j = later[np.argmax(scores[later])]
                seg_j = j // SEGMENT_SIZE
                k_j = int(info[SEGMENT_SIZE * seg_j:SEGMENT_SIZE * (seg_j + 1)].sum())
                if (11 <= k_j < 16) or (k_j < 3):
                    own_info = np.flatnonzero(info[seg]) + SEGMENT_SIZE * t
                    i = own_info[np.argmin(scores[own_info])]
                    info[i] = False
                    active[i] = False
                    info[j] = True
                    moves.append(("push", int(i), int(j)))
                else:
                    active[j] = False
            else:
                own_frozen = np.flatnonzero(~info[seg] & active[seg]) + SEGMENT_SIZE * t
                donors = np.flatnonzero(info)
                donors = donors[donors >= SEGMENT_SIZE * (t + 1)]
                if not len(own_frozen) or not len(donors):
                    raise InfeasibleConstructionError(
                        f"segment {t} cannot reach a supported pattern: "
                        "no active candidates remain"
                    )
                p = own_frozen[np.argmax(scores[own_frozen])]
                d = donors[np.argmin(scores[donors])]
                info[p] = True
                info[d] = False
                active[d] = False
                moves.append(("pull", int(d), int(p)))
    counts = [int(info[SEGMENT_SIZE * t:SEGMENT_SIZE * (t + 1)].sum()) for t in range(n_seg)]
    return info, counts, moves


def construct_fast_polar(
    N: int, K: int, method: str = "ga", design_snr_db: float = DEFAULT_DESIGN_SNR_DB
) -> CodeSpec:
    """Build a fast-decodable layout via rate re-allocation plus canonicalization:
    every segment gets canonical positions, and those with 7 or 11 info bits
    carry a BCH codeword."""
    if N < 2 * SEGMENT_SIZE:
        raise ValueError(f"N must provide at least two segments, got {N}")
    if not 0 <= K <= N:
        raise ValueError(f"K out of range: {K}")
    method = method.lower()
    scores = _reliability_scores(N, method, design_snr_db)
    _, counts, _ = _reallocate(N, K, scores)
    frozen = np.concatenate([canonical_frozen_mask(k) for k in counts])
    bch = {t for t, k in enumerate(counts) if FAST_TAG_BY_K[k] in BCH_TAGS}
    return CodeSpec(N=N, K=K, info_set=np.flatnonzero(~frozen).tolist(), bch_segments=bch)


def layout_to_dict(
    layout: CodeSpec, method: str | None = None, design_snr_db: float | None = None
) -> dict:
    """JSON-ready description of a layout (N, K, info positions, segment tags).

    The segment tags are written when every segment has a fast pattern, and
    they alone mark the BCH segments, so a layout with BCH segments and a slow
    segment has no description and raises ValueError.
    """
    doc = {
        "N": layout.N,
        "K": layout.K,
        "method": method,
        "design_snr_db": design_snr_db,
        "info_set": sorted(int(i) for i in layout.info_set),
    }
    if layout.segments and PatternTag.SLOW not in layout.segments:
        doc["segments"] = [tag.value for tag in layout.segments]
    elif layout.bch_segments:
        raise ValueError("only a layout whose every segment is fast can list BCH segments")
    return doc


def layout_from_dict(doc: dict) -> CodeSpec:
    """Rebuild a layout from its JSON description. Segment tags, when given,
    must name each segment's fast pattern; their BCH tags mark the BCH segments."""
    if not isinstance(doc, dict):
        raise ValueError(f"a layout document is an object, got {type(doc).__name__}")
    try:
        tags = doc.get("segments")
        bch = {t for t, name in enumerate(tags or ()) if PatternTag(name) in BCH_TAGS}
        if any(isinstance(v, bool) or not isinstance(v, int)
               for v in (doc["N"], doc["K"], *doc["info_set"])):
            raise TypeError("N, K and the info_set entries must be integers")
        layout = CodeSpec(N=doc["N"], K=doc["K"], info_set=doc["info_set"], bch_segments=bch)
    except KeyError as exc:
        raise ValueError(f"layout document missing key: {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"layout document has a field of the wrong type: {exc}") from exc
    if tags is not None and (PatternTag.SLOW.value in tags
                             or list(tags) != [tag.value for tag in layout.segments]):
        raise ValueError("segment tags do not name the fast pattern of every segment")
    return layout
