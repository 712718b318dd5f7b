"""Acceptance gate: one test per release criterion, at pinned tolerances.

Criterion 4's reference histogram (40 terminal nodes for the plain GA layout
at N=1024, K=896) pins the default SPC-2 cap at 32: with a cap of 64 or more
the SPC-2 node at u-index 192 stays whole and the tree has one node fewer.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fastpolar.analysis import reduction_ratios, traversal_stats
from fastpolar.bch import BchVariant, bch_decode_hard, bch_encode, bch_node_decode
from fastpolar.construction import InfeasibleConstructionError, construct_fast_polar, construct_polar
from fastpolar.core import PatternTag
from fastpolar.decoder import (
    SC_EQUIVALENT_LIMITS,
    decode_node,
    fast_sc_decode,
    parallel_min_mask,
)
from fastpolar.encoder import encode
from fastpolar.oracle import enumerate_codebook, ml_decode, sc_decode_baseline
from fastpolar.simulation import BlerRecord, SimConfig, run_bler

TRIALS = 100_000


def test_criterion_1_node_decoders_match_exhaustive_ml():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    tags = (PatternTag.SPC2, PatternTag.REP2, PatternTag.RPC, PatternTag.PCR, PatternTag.SPC)
    for tag in tags:
        for M in (4, 8):
            codebook = enumerate_codebook(tag, M)
            alpha = rng.normal(size=(TRIALS, M))
            fast_metric = ((1.0 - 2.0 * decode_node(tag, alpha)) * alpha).sum(axis=-1)
            best_metric = ((1.0 - 2.0 * ml_decode(codebook, alpha)) * alpha).sum(axis=-1)
            assert np.allclose(fast_metric, best_metric), (tag, M)
    assert time.monotonic() - started < 60


def test_criterion_2_parallel_minimum_matches_argmin():
    started = time.monotonic()
    rng = np.random.default_rng(102)
    for width in (4, 5, 6, 7, 8):
        top = 2 ** (width - 1) - 1
        for M in (4, 16, 128):
            amplitudes = rng.integers(0, top + 1, size=(TRIALS, M))
            mask = parallel_min_mask(amplitudes, width - 1)
            argmin_set = amplitudes == amplitudes.min(axis=-1, keepdims=True)
            assert np.array_equal(mask, argmin_set), (width, M)
    assert time.monotonic() - started < 60


def test_criterion_3_bch_exhaustive_coverage():
    started = time.monotonic()
    for variant in (BchVariant.T1, BchVariant.T2):
        k = variant.k
        messages = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
        codewords = bch_encode(messages, variant)
        inner = codewords[:, :15]
        assert np.array_equal(codewords[:, 15 - k:15], messages)

        decoded, ok = bch_decode_hard(inner, variant)
        assert ok.all() and np.array_equal(decoded, inner)
        error_weights = range(1, variant.t + 1)
        for weight in error_weights:
            for positions in itertools.combinations(range(15), weight):
                word = inner.copy()
                word[:, list(positions)] ^= 1
                decoded, ok = bch_decode_hard(word, variant)
                assert ok.all(), (variant, positions)
                assert np.array_equal(decoded, inner), (variant, positions)

    # T2 two-step: any 3 flips whose unique weakest position is erroneous
    messages = ((np.arange(128)[:, None] >> np.arange(7)) & 1).astype(np.uint8)
    codewords = bch_encode(messages, BchVariant.T2)
    for positions in itertools.combinations(range(16), 3):
        amplitudes = np.full(16, 4.0)
        amplitudes[list(positions)] = (1.0, 2.0, 3.0)
        received = codewords.copy()
        received[:, list(positions)] ^= 1
        alpha = (1.0 - 2.0 * received) * amplitudes
        assert np.array_equal(bch_node_decode(alpha, BchVariant.T2), codewords), positions
    assert time.monotonic() - started < 120


REFERENCE_GA_HISTOGRAM = {
    PatternTag.RATE1: 4,
    PatternTag.SPC: 20,
    PatternTag.SPC2: 2,
    PatternTag.PCR: 1,
    PatternTag.REP2: 1,
    PatternTag.REP: 11,
    PatternTag.RATE0: 1,
}


def test_criterion_4_traversal_statistics():
    ga = traversal_stats(construct_polar(1024, 896, "ga"))
    fast = traversal_stats(construct_fast_polar(1024, 896, "ga"))
    ratios = reduction_ratios(ga, fast)

    failures = []
    if ga.terminal_nodes != 40:
        failures.append(f"ga terminal_nodes {ga.terminal_nodes} != 40")
    if ga.histogram != REFERENCE_GA_HISTOGRAM:
        failures.append(f"ga histogram {_fmt(ga.histogram)} != reference "
                        f"{_fmt(REFERENCE_GA_HISTOGRAM)}")
    if not 21 <= fast.terminal_nodes <= 24:
        failures.append(f"fast terminal_nodes {fast.terminal_nodes} outside [21, 24]")
    if abs(fast.edges - 43) > 0.10 * 43:
        failures.append(f"fast edges {fast.edges} beyond 43 +/- 10%")
    if abs(fast.f_ops - 3792) > 0.10 * 3792:
        failures.append(f"fast f_ops {fast.f_ops} beyond 3792 +/- 10%")
    for counter, floor in (("nodes", 0.40), ("edges", 0.35), ("f_ops", 0.05)):
        if ratios[counter] < floor:
            failures.append(f"{counter} reduction {ratios[counter]:.3f} < {floor}")

    assert not failures, "; ".join(failures)


def _fmt(histogram):
    return {tag.value: count for tag, count in histogram.items()}


# Frozen Monte Carlo setup for the BLER criteria: each grid brackets its own
# curve's 1e-2 crossing and every point accumulates >= 400 frame errors
# within the frame budget.
GA_GRID_DB = (6.8, 7.0, 7.2)
FAST_GRID_DB = (7.0, 7.2, 7.4, 7.6)
MC_SEED = 20260815


def _sweep(grid, layout, arithmetic="float", q_ch=5, q_int=5):
    config = SimConfig(N=1024, K=896, snr_grid_db=grid, layout=layout,
                       modulation="qpsk", arithmetic=arithmetic, q_ch=q_ch,
                       q_int=q_int, max_frames=200_000, target_errors=400,
                       chunk_frames=4096, rng_seed=MC_SEED)
    return run_bler(config)


def _crossing_snr(records: list[BlerRecord], target=1e-2) -> float:
    """SNR where the curve crosses `target`, by log-linear interpolation."""
    points = [(r.snr_db, r.bler) for r in records if r.bler > 0]
    for (s0, b0), (s1, b1) in zip(points, points[1:]):
        if b0 >= target >= b1:
            t = (math.log10(target) - math.log10(b0)) / (math.log10(b1) - math.log10(b0))
            return s0 + t * (s1 - s0)
    raise AssertionError(f"BLER {target} not bracketed by grid: {points}")


@pytest.fixture(scope="module")
def bler_curves():
    started = time.monotonic()
    curves = {
        "ga_float": _sweep(GA_GRID_DB, "ga"),
        "fast_float": _sweep(FAST_GRID_DB, "fast"),
        "fast_6_6": _sweep(FAST_GRID_DB, "fast", "fixed", q_ch=6, q_int=6),
        "fast_5_5": _sweep(FAST_GRID_DB, "fast", "fixed", q_ch=5, q_int=5),
        "fast_4_5": _sweep(FAST_GRID_DB, "fast", "fixed", q_ch=4, q_int=5),
    }
    for records in curves.values():
        assert all(r.frame_errors >= 100 for r in records)
    curves["elapsed"] = time.monotonic() - started
    return curves


def test_criterion_5_construction_bler_gap(bler_curves):
    ga = _crossing_snr(bler_curves["ga_float"])
    fast = _crossing_snr(bler_curves["fast_float"])
    assert abs(fast - ga) <= 0.4, f"gap {fast - ga:+.3f} dB at BLER 1e-2"
    assert bler_curves["elapsed"] < 30 * 60


def test_criterion_6_fixed_point_bler_gaps(bler_curves):
    reference = _crossing_snr(bler_curves["fast_float"])
    gaps = {name: _crossing_snr(bler_curves[name]) - reference
            for name in ("fast_6_6", "fast_5_5", "fast_4_5")}
    # 0.08 dB stands in for "within Monte Carlo noise" at 400 errors/point
    assert abs(gaps["fast_6_6"]) <= 0.08, f"6/6 gap {gaps['fast_6_6']:+.3f} dB"
    assert abs(gaps["fast_5_5"]) <= 0.15, f"5/5 gap {gaps['fast_5_5']:+.3f} dB"
    assert abs(gaps["fast_4_5"]) <= 0.25, f"4/5 gap {gaps['fast_4_5']:+.3f} dB"
    assert bler_curves["elapsed"] < 60 * 60


def test_criterion_7_round_trip_and_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(107)

    # noiseless identity over randomized fast layouts, 1000 frames per N
    for N in (32, 256, 1024):
        layouts = []
        while len(layouts) < 10:
            K = int(rng.integers(N // 2, N + 1))
            try:
                layouts.append(construct_fast_polar(N, K, "ga"))
            except InfeasibleConstructionError:
                continue
        for code in layouts:
            info = rng.integers(0, 2, size=(100, code.K), dtype=np.uint8)
            llr = (1.0 - 2.0 * encode(code, info)) * 10.0
            result = fast_sc_decode(code, llr)
            assert np.array_equal(result.info_bits, info), (N, code.K)

    # ML-only patterns disabled: bit-exact match with the bit-by-bit oracle
    frames = 10_000
    cases = [(32, 16), (32, 26), (64, 32), (64, 57)]
    per_case = frames // len(cases)
    for N, K in cases:
        spec = construct_polar(N, K, "ga")
        alpha = rng.normal(size=(per_case, N)) * 2.0
        fast = fast_sc_decode(spec, alpha, limits=SC_EQUIVALENT_LIMITS)
        assert np.array_equal(fast.info_bits, sc_decode_baseline(spec, alpha)), (N, K)
    assert time.monotonic() - started < 120
