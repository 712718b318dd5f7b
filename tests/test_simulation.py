import concurrent.futures
import dataclasses
import json
import math
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fastpolar import decoder, simulation
from fastpolar.core import QuantizedLLR
from fastpolar.encoder import encode
from fastpolar.simulation import (
    RECORD_CSV_HEADER,
    SimConfig,
    default_llr_scale,
    eb_n0_db,
    noise_variance,
    quantize_channel,
    record_csv_row,
    run_bler,
    transmit,
    write_manifest,
    write_records_csv,
)


def test_noise_variance_per_modulation():
    # at 0 dB: gamma = 1
    assert np.isclose(noise_variance(0.0, "bpsk"), 0.5)
    assert np.isclose(noise_variance(0.0, "qpsk"), 1.0)
    assert np.isclose(noise_variance(3.0103, "qpsk"), 0.5, atol=1e-4)
    with pytest.raises(ValueError):
        noise_variance(0.0, "8psk")


def test_eb_n0_conversion():
    # qpsk at rate 1/2 carries one info bit per symbol
    assert np.isclose(eb_n0_db(5.0, 0.5, "qpsk"), 5.0)
    assert np.isclose(eb_n0_db(5.0, 1.0, "bpsk"), 5.0)
    assert np.isclose(eb_n0_db(5.0, 0.5, "bpsk"), 5.0 + 10 * math.log10(2))
    assert math.isnan(eb_n0_db(5.0, 0.0, "bpsk"))


@pytest.mark.parametrize("modulation", ["16qam", "QPSK", None])
def test_eb_n0_rejects_an_unknown_modulation_like_noise_variance(modulation):
    for convert in (lambda: eb_n0_db(7.2, 0.875, modulation),
                    lambda: noise_variance(7.2, modulation)):
        with pytest.raises(ValueError, match="bpsk"):
            convert()


def test_transmit_zero_noise_is_scaled_antipodal():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    rng = np.random.default_rng(0)
    llr = transmit(bits, 0.0, "qpsk", rng, zero_noise=True)
    assert np.allclose(llr, [2.0, -2.0, -2.0, 2.0])


def test_transmit_noise_statistics():
    rng = np.random.default_rng(1)
    bits = np.zeros(20000, dtype=np.uint8)
    llr = transmit(bits, 4.0, "qpsk", rng)
    sigma2 = noise_variance(4.0, "qpsk")
    # llr ~ N(2/sigma2, 4/sigma2)
    assert abs(llr.mean() - 2 / sigma2) < 0.1
    assert abs(llr.std() - 2 / math.sqrt(sigma2)) < 0.1


def test_default_scale_maps_clean_symbol_to_full_scale():
    for width in (4, 5, 8):
        for snr in (0.0, 7.4):
            scale = default_llr_scale(width, snr, "qpsk")
            clean = 2.0 / noise_variance(snr, "qpsk")
            assert np.isclose(scale * clean, 2 ** (width - 1) - 1)


def test_quantize_channel_examples():
    assert quantize_channel(1000.0, 5, 1.0).value == 15
    assert quantize_channel(-1.4, 5, 2.0).value == -3
    assert quantize_channel(0.0, 5, 1.0).value == 0
    q = quantize_channel(np.array([0.4, -0.6, 100.0]), 4, 1.0)
    assert q.width == 4
    assert list(q.value) == [0, -1, 7]
    for dtype in (np.int8, np.uint8, np.int64, np.float16, np.float32):
        llr = np.array([0, 3, 100, 7]).astype(dtype)
        assert quantize_channel(llr, 5, 0.37).value.tolist() == \
            _reference_quantize(llr, 5, 0.37).tolist()
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            quantize_channel(1.0, 5, scale)


def test_quantize_channel_rejects_nan_and_clips_inf_to_the_rail():
    llr = np.array([[0.4, math.inf, -math.inf, -2.6]] * 3)
    assert quantize_channel(llr, 5, 1.0).value.tolist() == [[0, 15, -15, -3]] * 3
    assert quantize_channel(-math.inf, 6, 0.5).value == -31
    for bad in (math.nan, np.array([0.4, math.nan]), np.full((2, 1 << 16), 1.0)):
        if np.ndim(bad) == 2:
            bad[1, -1] = math.nan   # the last of 2^17 LLRs
        with pytest.raises(ValueError, match="NaN"):
            quantize_channel(bad, 5, 2.0)


@pytest.mark.parametrize("llr", [np.array([True, False]), True, np.array([1.0 + 2.0j]),
                                 np.array(["1.5"]), np.array([1.5], dtype=object)],
                         ids=["bool", "python-bool", "complex", "str", "object"])
def test_quantize_channel_takes_only_float_or_integer_llrs(llr):
    with pytest.raises(ValueError, match=re.escape(f"got dtype {np.asarray(llr).dtype}")):
        quantize_channel(llr, 5, 1.0)


def _reference_transmit(codeword, snr_db, modulation, rng, zero_noise=False):
    """The channel written out as one expression, a new array per step."""
    c = np.asarray(codeword)
    s2 = noise_variance(snr_db, modulation)
    y = 1.0 - 2.0 * c
    if zero_noise:
        return 2.0 * y / s2
    n = rng.standard_normal(c.shape)
    return 2.0 * (y + n * math.sqrt(s2)) / s2


def _reference_quantize(llr, width, scale):
    limit = 2 ** (width - 1) - 1
    return np.clip(np.rint(np.asarray(llr) * scale), -limit, limit).astype(np.int64)


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
@pytest.mark.parametrize("snr_db", [-3.0, 0.0, 4.5, 7.2, -30.0, 40.0, 100.0])
@pytest.mark.parametrize("zero_noise", [False, True])
def test_in_place_channel_matches_the_reference_chain(modulation, snr_db, zero_noise):
    bits_rng = np.random.default_rng(97)
    # (40, 1024): a 40-frame batch at the paper's N
    for shape in ((), (16,), (7, 16), (3, 5, 16), (40, 1024)):
        codeword = bits_rng.integers(0, 2, size=shape, dtype=np.uint8)
        inputs = [codeword, int(codeword)] if shape == () else [codeword]
        for c in inputs:
            llr = transmit(c, snr_db, modulation, np.random.default_rng(5), zero_noise)
            ref = _reference_transmit(c, snr_db, modulation, np.random.default_rng(5),
                                      zero_noise)
            assert np.shape(llr) == shape
            assert np.asarray(llr, dtype=np.float64).tobytes() == ref.tobytes()
            for width in range(4, 9):
                scales = (default_llr_scale(width, snr_db, modulation), 1e-6, 0.37, 1e6)
                for scale in scales:
                    q = quantize_channel(llr, width, scale)
                    assert q.value.dtype == np.int8
                    assert np.shape(q.value) == shape
                    assert np.array_equal(q.value, _reference_quantize(ref, width, scale))
            if shape:
                strided = quantize_channel(llr[..., ::3], 5, 0.37).value
                assert np.array_equal(strided, _reference_quantize(ref[..., ::3], 5, 0.37))


def test_scalar_channel_gives_scalars():
    for zero_noise in (False, True):
        llr = transmit(1, 2.0, "bpsk", np.random.default_rng(3), zero_noise)
        assert isinstance(llr, np.float64)
    for llr in (1000.0, -1.4, np.float64(0.6), np.array(-2.5)):
        q = quantize_channel(llr, 5, 2.0)
        assert isinstance(q.value, np.int8)
        assert q.value == _reference_quantize(llr, 5, 2.0)


@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_run_bler_counts_match_the_reference_channel(monkeypatch, arithmetic):
    config = _tiny_config(arithmetic=arithmetic, snr_grid_db=(1.0, 3.0), target_errors=30)
    records = run_bler(config)
    assert records[0].frame_errors > 0
    monkeypatch.setattr(simulation, "transmit", _reference_transmit)
    monkeypatch.setattr(simulation, "quantize_channel", lambda llr, width, scale:
                        QuantizedLLR(_reference_quantize(llr, width, scale), width))
    assert run_bler(config) == records


def _one_shot_chunk(code, config, snr_db, point_idx, chunk_idx, frames):
    """One chunk as a single chain: the whole chunk through the reference
    channel at once, then one decode."""
    seed = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(point_idx, chunk_idx))
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, size=(frames, code.K), dtype=np.uint8)
    llr = _reference_transmit(encode(code, messages), snr_db, config.modulation, rng)
    width = None
    if config.arithmetic == "fixed":
        scale = simulation.default_llr_scale(config.q_ch, snr_db, config.modulation)
        llr, width = _reference_quantize(llr, config.q_ch, scale), config.q_int
    wrong = decoder.fast_sc_decode(code, llr, width=width).info_bits != messages
    return frames, int(wrong.any(axis=-1).sum()), int(wrong.sum())


@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_run_bler_chunks_spanning_decode_blocks_match_one_shot_chunks(monkeypatch, arithmetic):
    # 2,500-frame chunks: two full decode blocks and a partial one each
    config = _tiny_config(arithmetic=arithmetic, snr_grid_db=(1.0, 3.0), max_frames=5000,
                          target_errors=10 ** 6, chunk_frames=2500)
    assert config.chunk_frames % decoder._BLOCK_FRAMES and \
        config.chunk_frames > decoder._BLOCK_FRAMES
    batches = []
    decode = simulation.fast_sc_decode
    monkeypatch.setattr(simulation, "fast_sc_decode",
                        lambda code, llr, **kw: batches.append(len(llr)) or decode(code, llr, **kw))
    records = run_bler(config)
    assert batches == [1024, 1024, 452] * 4
    assert records[0].frame_errors > 0 and records[1].frames == 5000
    monkeypatch.setattr(simulation, "_chunk_counts", _one_shot_chunk)
    assert run_bler(config) == records


@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_run_bler_blocks_follow_the_byte_budget_and_match_one_shot_chunks(monkeypatch,
                                                                          arithmetic):
    # at N = 1024 the 1 MiB budget holds 128 float64 frames but 1024 int8 ones
    float_block, int8_block = (decoder._block_frames(1024, t) for t in (np.float64, np.int8))
    assert (float_block, int8_block) == (128, 1024)
    config = SimConfig(N=1024, K=896, snr_grid_db=(6.0, 7.0), arithmetic=arithmetic,
                       max_frames=2200, target_errors=10 ** 6, chunk_frames=1100, rng_seed=37)
    batches, channel = [], []
    decode, send = simulation.fast_sc_decode, simulation.transmit
    monkeypatch.setattr(simulation, "fast_sc_decode",
                        lambda code, llr, **kw: batches.append(len(llr)) or decode(code, llr, **kw))
    monkeypatch.setattr(simulation, "transmit",
                        lambda bits, *a, **kw: channel.append(len(bits)) or send(bits, *a, **kw))
    records = run_bler(config)
    # both arithmetics transmit and decode a float64 decode block of frames at a time
    assert channel == batches == ([128] * 8 + [76]) * 4
    assert records[0].frame_errors > 0 and records[1].frames == 2200
    monkeypatch.setattr(simulation, "_chunk_counts", _one_shot_chunk)
    assert run_bler(config) == records


@pytest.mark.parametrize("layout, N, K", [("fast", 64, 45), ("fast", 32, 13),
                                           ("fast", 64, 37), ("ga", 64, 45)])
@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_packed_error_counts_match_one_shot_chunks(monkeypatch, arithmetic, layout, N, K):
    # K not a multiple of 8, N below 64, BCH-T1, BCH-T2 and BCH-free layouts,
    # and 1100-frame chunks: a full 1024-frame decode block and a partial one
    config = SimConfig(N=N, K=K, snr_grid_db=(1.0, 3.0), layout=layout, arithmetic=arithmetic,
                       max_frames=2200, target_errors=10 ** 6, chunk_frames=1100, rng_seed=41)
    assert decoder._block_frames(N, np.float64) == decoder._block_frames(N, np.int8) == 1024
    assert bool(simulation._build_layout(config).bch_segments) == (layout == "fast")
    records = run_bler(config)
    assert all(r.frames == 2200 and 0 < r.frame_errors < r.bit_errors for r in records)
    monkeypatch.setattr(simulation, "_chunk_counts", _one_shot_chunk)
    assert run_bler(config) == records


@pytest.mark.parametrize("N, block", [(1024, 128), (32, 1024), (16, 7)])
def test_noise_drawn_ahead_equals_one_draw_of_the_whole_schedule(N, block):
    # 1100 frames: full decode blocks, then a partial one, one transmit call each
    calls = [block] * (1100 // block) + [1100 % block]
    assert 1100 % block
    whole = np.random.default_rng(59).standard_normal((1100, N))
    draws, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        with simulation._NoiseAhead(np.random.default_rng(59), 1100, block, N) as source:
            for n in calls:
                noise = source.standard_normal((n, N))
                draws.append(noise.copy())
                noise *= 2.0  # transmit builds its LLRs in the returned array
    finally:
        sys.setswitchinterval(interval)
    assert np.concatenate(draws).tobytes() == whole.tobytes()


def test_a_drawn_array_is_left_alone_until_the_next_call():
    # each draw is held while the helper has time to fill the other buffer
    calls = [128] * 10 + [76]
    whole = np.random.default_rng(61).standard_normal((sum(calls), 64))
    lo = 0
    with simulation._NoiseAhead(np.random.default_rng(61), sum(calls), 128, 64) as source:
        for n in calls:
            noise = source.standard_normal((n, 64))
            held = noise.copy()
            time.sleep(0.02)
            assert noise.tobytes() == held.tobytes() == whole[lo:lo + n].tobytes()
            lo += n


@pytest.mark.parametrize("asked, drawn", [([(100, 64)], (128, 64)),
                                          ([(128, 64)] * 3, (44, 64))])
def test_noise_asked_for_off_the_schedule_raises_and_the_helper_ends(asked, drawn):
    # 300 frames in 128-frame blocks: two full draws, then one of 44 frames
    before = threading.active_count()
    with pytest.raises(ValueError, match=re.escape(
            f"noise drawn for shape {drawn}, asked for {asked[-1]}")):
        with simulation._NoiseAhead(np.random.default_rng(67), 300, 128, 64) as source:
            assert threading.active_count() == before + 1
            for shape in asked:
                source.standard_normal(shape)
    assert threading.active_count() == before


@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_a_chunk_draws_its_noise_on_one_thread_that_ends_with_it(monkeypatch, arithmetic):
    config = SimConfig(N=1024, K=896, snr_grid_db=(7.2,), arithmetic=arithmetic)
    code = simulation._build_layout(config)
    before, during = threading.active_count(), []
    decode = simulation.fast_sc_decode

    def counting(code, llr, **kw):
        during.append(threading.active_count())
        return decode(code, llr, **kw)

    monkeypatch.setattr(simulation, "fast_sc_decode", counting)
    simulation._chunk_counts(code, config, 7.2, 0, 0, 300)
    assert during and set(during) == {before + 1}
    assert threading.active_count() == before

    def failing(code, llr, **kw):
        during.append(threading.active_count())
        raise RuntimeError("decode failed")

    monkeypatch.setattr(simulation, "fast_sc_decode", failing)
    with pytest.raises(RuntimeError, match="decode failed"):
        simulation._chunk_counts(code, config, 7.2, 0, 0, 300)
    assert during[-1] == before + 1 and threading.active_count() == before


def test_a_zero_noise_chunk_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    config = _tiny_config(zero_noise=True)
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", no_thread)
    before = threading.active_count()
    assert simulation._chunk_counts(simulation._build_layout(config), config, 2.0, 0, 0, 100) \
        == (100, 0, 0)
    assert threading.active_count() == before


@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_a_chunk_stays_within_its_memory_bound(arithmetic):
    config = SimConfig(N=1024, K=896, snr_grid_db=(7.2,), arithmetic=arithmetic,
                       chunk_frames=4096)
    code = simulation._build_layout(config)
    simulation._chunk_counts(code, config, 7.2, 0, 0, 32)  # compiles the plan first
    tracemalloc.start()
    try:
        simulation._chunk_counts(code, config, 7.2, 0, 1, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 4.5 MB in float and 4.1 MB in fixed point; messages held a byte per bit,
    # a (frames, K) bool error array and 2 MB float64 channel slices took 10.1 and 15.0 MB
    assert peak < 7.5e6


def test_sim_config_validation():
    good = dict(N=64, K=32, snr_grid_db=[1, 2])
    cfg = SimConfig(**good)
    assert cfg.snr_grid_db == (1.0, 2.0)
    for bad in (dict(snr_grid_db=[]), dict(layout="dense"), dict(modulation="fm"),
                dict(arithmetic="posit"), dict(max_frames=0), dict(target_errors=0),
                dict(chunk_frames=0), dict(workers=0), dict(workers=-3),
                dict(q_ch=3, arithmetic="fixed"),
                dict(snr_grid_db=[1, math.nan]), dict(snr_grid_db=[-math.inf]),
                dict(llr_scale=math.nan), dict(llr_scale=math.inf), dict(llr_scale=0.0),
                dict(method="gauss")):
        with pytest.raises(ValueError):
            SimConfig(**{**good, **bad})
    # a string grid would run one point per character; numpy would reject the seed mid-run
    # a bool in a float field would run as 1.0 or 0.0
    for name, value in (("snr_grid_db", "34"), ("snr_grid_db", "7.2"), ("snr_grid_db", b"34"),
                        ("rng_seed", -1), ("snr_grid_db", (True, 2.0)),
                        ("snr_grid_db", [np.bool_(False)]), ("design_snr_db", True),
                        ("design_snr_db", np.bool_(False)), ("llr_scale", True),
                        ("llr_scale", np.bool_(True))):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{**good, name: value})
    for name in ("N", "K", "q_ch", "q_int", "max_frames", "target_errors", "chunk_frames",
                 "rng_seed", "workers"):
        for value in (1000.0, 1.5, True, np.bool_(True), "8"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(**{**good, name: value})
    assert SimConfig(**good, method="PW").method == "PW"
    numpy_ints = SimConfig(N=np.int64(64), K=np.int32(32), snr_grid_db=[1, 2],
                           max_frames=np.uint16(1000), rng_seed=np.int64(7))
    assert numpy_ints == SimConfig(N=64, K=32, snr_grid_db=[1, 2], max_frames=1000, rng_seed=7)
    assert type(numpy_ints.N) is int and type(numpy_ints.max_frames) is int


def test_manifest_takes_numpy_integers(tmp_path):
    write_manifest(SimConfig(N=np.int64(64), K=32, snr_grid_db=[1]), tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["config"]["N"] == 64


def _tiny_config(**overrides):
    base = dict(N=64, K=48, snr_grid_db=(2.0,), layout="fast", modulation="qpsk",
                max_frames=400, target_errors=20, chunk_frames=64, rng_seed=33)
    base.update(overrides)
    return SimConfig(**base)


def test_run_bler_zero_noise_is_error_free():
    records = run_bler(_tiny_config(zero_noise=True, max_frames=100))
    assert len(records) == 1
    assert records[0].frame_errors == 0
    assert records[0].bler == 0.0
    assert records[0].frames == 100


def test_run_bler_is_deterministic():
    a = run_bler(_tiny_config())
    b = run_bler(_tiny_config())
    assert a == b
    c = run_bler(_tiny_config(rng_seed=34))
    assert c != a


# Two points that target_errors stops mid-stream, after 5 and 18 chunks, and one
# frame budget whose last chunk is short: 150 frames in chunks of 64, 64 and 22.
_STOP_CASES = {
    "target_errors": dict(snr_grid_db=(5.0, 6.0), chunk_frames=32, max_frames=4000),
    "short_last_chunk": dict(snr_grid_db=(30.0,), max_frames=150, chunk_frames=64),
}


@pytest.mark.parametrize("case", _STOP_CASES)
@pytest.mark.parametrize("workers", [2, 3])
def test_run_bler_worker_count_does_not_change_results(workers, case):
    serial = run_bler(_tiny_config(**_STOP_CASES[case]))
    if case == "target_errors":
        assert all(20 <= r.frame_errors and 4 * 32 < r.frames < 4000 for r in serial)
    else:
        assert serial[0].frames == 150
    assert run_bler(_tiny_config(workers=workers, **_STOP_CASES[case])) == serial


def test_one_worker_or_one_chunk_creates_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    configs = [_tiny_config(snr_grid_db=(30.0,), max_frames=150),  # one worker, three chunks
               _tiny_config(workers=4, max_frames=64),  # max_frames <= chunk_frames: one chunk
               _tiny_config(workers=4, max_frames=40)]
    expected = [run_bler(dataclasses.replace(config, workers=1)) for config in configs]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert [run_bler(config) for config in configs] == expected


class _ThreadPool(concurrent.futures.ThreadPoolExecutor):
    """A process pool stand-in that runs chunks on threads and records its size,
    the most chunks it ever held submitted but not yet read, and its shutdown."""

    created: list = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.max_workers, self.unread, self.most_unread = max_workers, 0, 0
        self.cancel_futures = None
        _ThreadPool.created.append(self)

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self.unread += 1
        self.most_unread = max(self.most_unread, self.unread)
        result = future.result

        def read(timeout=None):
            self.unread -= 1
            return result(timeout)

        future.result = read
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.cancel_futures = cancel_futures
        super().shutdown(wait, cancel_futures=cancel_futures)


@pytest.mark.parametrize("workers, max_frames", [(2, 4000), (3, 4000), (8, 150), (8, 4000)])
def test_pool_holds_min_of_workers_and_chunks_and_stays_workers_ahead(
        monkeypatch, workers, max_frames):
    config = _tiny_config(snr_grid_db=(5.0, 6.0), chunk_frames=32, max_frames=max_frames)
    serial = run_bler(config)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ThreadPool)
    monkeypatch.setattr(_ThreadPool, "created", [])
    assert run_bler(dataclasses.replace(config, workers=workers)) == serial
    chunks = -(-max_frames // 32)
    assert [pool.max_workers for pool in _ThreadPool.created] == [min(workers, chunks)] * 2
    for pool in _ThreadPool.created:
        assert 1 <= pool.most_unread <= workers
        assert pool.cancel_futures is True


def test_run_bler_stops_after_target_errors():
    record = run_bler(_tiny_config(snr_grid_db=(-2.0,), target_errors=10,
                                   max_frames=100000, chunk_frames=32))[0]
    assert record.frame_errors >= 10
    assert record.frames < 100000
    assert record.frames % 32 == 0


def test_run_bler_respects_frame_budget():
    record = run_bler(_tiny_config(snr_grid_db=(30.0,), max_frames=150,
                                   chunk_frames=64))[0]
    # chunks of 64, 64, 22 cover exactly the budget
    assert record.frames == 150


def test_run_bler_record_fields():
    records = run_bler(_tiny_config(snr_grid_db=(1.0, 3.0)))
    assert [r.snr_db for r in records] == [1.0, 3.0]
    for record in records:
        assert np.isclose(record.eb_n0_db,
                          record.snr_db - 10 * math.log10(2 * 48 / 64))
        assert record.bler == record.frame_errors / record.frames
        assert record.ber == record.bit_errors / (record.frames * 48)
        assert record.bit_errors >= record.frame_errors


def test_run_bler_fixed_point_path():
    record = run_bler(_tiny_config(arithmetic="fixed", q_ch=5, q_int=5,
                                   snr_grid_db=(8.0,), max_frames=200))[0]
    assert record.frames > 0


def test_records_csv_round_trip(tmp_path):
    records = run_bler(_tiny_config())
    path = tmp_path / "out.csv"
    write_records_csv(records, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == RECORD_CSV_HEADER
    assert lines[1] == record_csv_row(records[0])
    fields = lines[1].split(",")
    assert len(fields) == len(RECORD_CSV_HEADER.split(","))
    assert float(fields[0]) == 2.0


def test_manifest_contents_and_stability(tmp_path):
    config = _tiny_config()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_manifest(config, first)
    write_manifest(config, second)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["seed"] == 33
    assert doc["config"]["N"] == 64
    assert doc["config"]["snr_grid_db"] == [2.0]
    assert isinstance(doc["revision"], str) and doc["revision"]


def test_manifest_revision_is_the_package_checkout(tmp_path, monkeypatch):
    package_dir = Path(simulation.__file__).resolve().parent
    try:
        probe = subprocess.run(["git", "-C", str(package_dir), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
        expected = probe.stdout.strip() if probe.returncode == 0 else "unknown"
    except OSError:
        expected = "unknown"
    monkeypatch.chdir(tmp_path)
    write_manifest(_tiny_config(), tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["revision"] == expected


def test_manifest_survives_a_hanging_git(tmp_path, monkeypatch):
    def hang(*args, **kwargs):
        raise subprocess.TimeoutExpired(args[0], kwargs.get("timeout"))

    monkeypatch.setattr(simulation.subprocess, "run", hang)
    write_manifest(_tiny_config(), tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["revision"] == "unknown"
