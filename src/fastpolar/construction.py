"""Reliability orders (GA / PW), rate re-allocation, and layout documents."""

from __future__ import annotations

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


def _ln_phi(x: np.ndarray) -> np.ndarray:
    """log of the Gaussian-approximation phi function, numerically safe for large x.

    This is the Chung-Richardson-Urbanke approximation, not phi itself: it
    exceeds 0 (phi > 1) below x = 0.029 (+0.0132 at x = 0.01), and its two
    branches differ by 0.025 at x = 10. Exact phi would move u-index 274 of
    construct_polar(1024, 896) to 53 and so change the GA traversal that
    REFERENCE_GA_HISTOGRAM pins: that reference belongs to this approximation.

    Each branch sees x clamped to its own side of 10, so every kept lane does
    the arithmetic it would do alone, and NaN takes the large branch.
    """
    x = np.asarray(x, dtype=float)
    xl = np.maximum(x, 10.0)
    out = np.asarray(0.5 * np.log(np.pi / xl) + np.log1p(-10.0 / (7.0 * xl)) - xl / 4.0)
    np.copyto(out, -0.4527 * np.minimum(x, 10.0) ** 0.86 + 0.0218, where=x < 10.0)
    return out


# The GA inverse's bisection bounds and step budget. _BOUNDS holds _HI, the
# first _PREFIX mids every input tests until its first "above" step (GA
# inputs turn within 30), and _LO.
_LO, _HI, _STEPS, _PREFIX = 1e-12, 1e7, 200, 60
_BOUNDS = [_HI]
for _ in range(_PREFIX):
    _BOUNDS.append(0.5 * (_LO + _BOUNDS[-1]))
_BOUNDS = np.array(_BOUNDS + [_LO])
_PREFIX_LN_PHI = _ln_phi(_BOUNDS[1:-1])


def _phi_inv_ln(ln_y: np.ndarray) -> np.ndarray:
    """Invert phi by bisection in the log domain (phi is monotone decreasing
    apart from the jump between its branches at x = 10).

    The result is bit for bit that of _STEPS literal steps from [_LO, _HI].
    Until an input's first "above" step j, lo stays at _LO and hi halves, so
    every input tests the same mids first, and their ln phi is computed
    once. j is the first prefix mid whose ln phi exceeds the input, found by
    comparison (a search would assume ln phi monotone), and the loop starts
    at lo = mid j, hi = mid j-1 (_HI for j = 0); an input that does not turn
    in the prefix starts at its end. The loop stops at the first step that
    moves no bound anywhere: that is a fixed point, and the remaining steps
    would repeat it. Its budget is what the whole prefix leaves, and that is
    enough: an interval from _HI shrinks to one ulp near _LO within about
    116 halvings, so every input reaches its fixed point well within _STEPS.
    """
    ln_y = np.asarray(ln_y, dtype=float)
    hits = _PREFIX_LN_PHI > ln_y[..., None]
    j = np.where(hits.any(axis=-1), hits.argmax(axis=-1), _PREFIX)
    lo, hi = _BOUNDS[j + 1], _BOUNDS[j]
    for _ in range(_STEPS - _PREFIX):
        mid = 0.5 * (lo + hi)
        above = _ln_phi(mid) > ln_y
        if (mid == np.where(above, lo, hi)).all():
            break
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
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
) -> np.ndarray:
    """Deterministic reliability permutation of 0..N-1 (int64), least reliable first.

    GA's design_snr_db is Es/N0 per BPSK dimension: the channel's mean LLR,
    the GA recursion's initial mean, is 4 * 10^(design_snr_db / 10). PW
    ignores design_snr_db. Reliability ties break toward the lower index.
    """
    return np.argsort(_reliability_scores(N, method.lower(), design_snr_db), kind="stable")


def construct_polar(
    N: int, K: int, method: str = "ga", design_snr_db: float = DEFAULT_DESIGN_SNR_DB
) -> CodeSpec:
    """Plain polar layout: freeze the N-K least reliable positions.

    design_snr_db is Es/N0 per BPSK dimension (GA initial mean
    4 * 10^(design_snr_db / 10)), as in reliability_sequence.
    """
    if not 0 <= K <= N:
        raise ValueError(f"K out of range: {K}")
    order = reliability_sequence(N, method, design_snr_db)
    info = frozenset(int(i) for i in order[N - K:])
    return CodeSpec(N=N, K=K, info_set=info)


def _reallocate(N: int, K: int, scores: np.ndarray) -> list[int]:
    """Rate re-allocation: adjust per-segment info counts until all are supported.

    Walks segments in order. While segment t has an unsupported count, demote
    its least reliable information bit and promote the most reliable active
    frozen bit j of a later segment, provided the donor segment's count k_j
    satisfies (11 <= k_j < 16) or (k_j < 3); bits failing the gate become
    inactive. When no active later frozen bit remains, fall back to promoting
    the most reliable active frozen bit inside t and demoting the least
    reliable information bit of a later segment. Demoted bits become inactive
    so no bit moves twice. Ties break toward the lower index.

    Returns the per-segment info counts.
    """
    n_seg = N // SEGMENT_SIZE
    order = np.argsort(scores, kind="stable")
    info = np.zeros(N, dtype=bool)
    info[order[N - K:]] = True
    active = ~info
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
    return [int(info[SEGMENT_SIZE * t:SEGMENT_SIZE * (t + 1)].sum()) for t in range(n_seg)]


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
    counts = _reallocate(N, K, scores)
    frozen = canonical_frozen_mask(counts).ravel()
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
