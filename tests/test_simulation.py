import json
import math
import subprocess
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
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            quantize_channel(1.0, 5, scale)


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
@pytest.mark.parametrize("snr_db", [-3.0, 0.0, 4.5, 7.2])
@pytest.mark.parametrize("zero_noise", [False, True])
def test_in_place_channel_matches_the_reference_chain(modulation, snr_db, zero_noise):
    bits_rng = np.random.default_rng(97)
    # (40, 1024) spans two of quantize_channel's blocks, the second one partial
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


def test_sim_config_validation():
    good = dict(N=64, K=32, snr_grid_db=[1, 2])
    cfg = SimConfig(**good)
    assert cfg.snr_grid_db == (1.0, 2.0)
    for bad in (dict(snr_grid_db=[]), dict(layout="dense"), dict(modulation="fm"),
                dict(arithmetic="posit"), dict(max_frames=0), dict(target_errors=0),
                dict(chunk_frames=0), dict(q_ch=3, arithmetic="fixed"),
                dict(snr_grid_db=[1, math.nan]), dict(snr_grid_db=[-math.inf]),
                dict(llr_scale=math.nan), dict(llr_scale=math.inf), dict(llr_scale=0.0)):
        with pytest.raises(ValueError):
            SimConfig(**{**good, **bad})


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


def test_run_bler_worker_count_does_not_change_results():
    serial = run_bler(_tiny_config())
    parallel = run_bler(_tiny_config(workers=3))
    assert serial == parallel


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
