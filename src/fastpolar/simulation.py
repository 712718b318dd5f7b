"""Modulation, AWGN LLR generation, quantization front-end, and the BLER harness."""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .construction import DEFAULT_DESIGN_SNR_DB, construct_fast_polar, construct_polar
from .core import QuantizedLLR, saturation_limit
from .decoder import _BLOCK_FRAMES, fast_sc_decode
from .encoder import encode

_MODULATIONS = ("bpsk", "qpsk")
_LAYOUTS = ("ga", "fast")
_ARITHMETIC = ("float", "fixed")
# LLRs quantize_channel rounds at a time: a 256 kB float64 block stays in cache.
_QUANTIZE_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: a layout, a channel, and stopping rules."""

    N: int
    K: int
    snr_grid_db: tuple[float, ...]
    layout: str = "fast"
    method: str = "ga"
    design_snr_db: float = DEFAULT_DESIGN_SNR_DB
    modulation: str = "qpsk"
    arithmetic: str = "float"
    q_ch: int = 5
    q_int: int = 5
    llr_scale: float | None = None
    max_frames: int = 1_000_000
    target_errors: int = 100
    chunk_frames: int = 256
    rng_seed: int = 0
    workers: int = 1
    zero_noise: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be non-empty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ValueError(f"snr_grid_db must be finite, got {self.snr_grid_db}")
        if self.llr_scale is not None and not 0 < self.llr_scale < math.inf:
            raise ValueError(f"llr_scale must be finite and positive, got {self.llr_scale}")
        if self.layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {self.layout!r}")
        if self.modulation not in _MODULATIONS:
            raise ValueError(f"modulation must be one of {_MODULATIONS}")
        if self.arithmetic not in _ARITHMETIC:
            raise ValueError(f"arithmetic must be one of {_ARITHMETIC}")
        if self.max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        if self.target_errors < 1:
            raise ValueError("target_errors must be at least 1")
        if self.chunk_frames < 1:
            raise ValueError("chunk_frames must be at least 1")
        if self.arithmetic == "fixed":
            saturation_limit(self.q_ch)
            saturation_limit(self.q_int)


@dataclass(frozen=True)
class BlerRecord:
    """Error statistics for one SNR point."""

    snr_db: float
    eb_n0_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    bler: float
    ber: float


def noise_variance(snr_db: float, modulation: str) -> float:
    """Per-dimension noise variance for unit-amplitude antipodal symbols.

    snr_db is Es/N0 per modulated symbol; a QPSK symbol spreads unit energy
    over two dimensions, which doubles the normalized per-dimension variance.
    """
    if modulation not in _MODULATIONS:
        raise ValueError(f"modulation must be one of {_MODULATIONS}")
    gamma = 10.0 ** (snr_db / 10.0)
    return 1.0 / (2.0 * gamma) if modulation == "bpsk" else 1.0 / gamma


def eb_n0_db(snr_db: float, rate: float, modulation: str) -> float:
    """Convert Es/N0 to Eb/N0 for the given code rate."""
    bits_per_symbol = 1 if modulation == "bpsk" else 2
    if rate <= 0:
        return float("nan")
    return snr_db - 10.0 * math.log10(bits_per_symbol * rate)


def transmit(codeword, snr_db, modulation, rng, zero_noise: bool = False) -> np.ndarray:
    """BPSK/QPSK-modulate bits (..., N) over AWGN and return channel LLRs 2y/sigma^2.

    The LLRs are built in place in one float64 buffer: noise * sqrt(sigma^2),
    plus the symbol 1 - 2c, times 2, over sigma^2. These are the operations of
    2 * ((1 - 2c) + noise * sqrt(sigma^2)) / sigma^2 in the same order, which is
    what keeps the LLRs bit-identical to that expression.
    """
    bits = np.asarray(codeword)
    sigma2 = noise_variance(snr_db, modulation)
    symbols = 1 - 2 * bits.astype(np.int8)
    if zero_noise:
        llr = symbols.astype(np.float64)
    else:
        llr = rng.standard_normal(bits.shape)
        llr *= math.sqrt(sigma2)
        llr += symbols
    llr *= 2.0
    llr /= sigma2
    return llr if llr.ndim else llr[()]


def default_llr_scale(width: int, snr_db: float, modulation: str) -> float:
    """Quantizer scale mapping the noiseless-symbol LLR magnitude 2/sigma^2 to
    full scale, so anything beyond a clean symbol's confidence clips."""
    sigma2 = noise_variance(snr_db, modulation)
    return saturation_limit(width) * sigma2 / 2.0


def quantize_channel(llr, width: int, scale: float) -> QuantizedLLR:
    """Round llr * scale into the symmetric width-bit range, as int8.

    The products are rounded and clipped in place, a cache-sized block at a
    time, and each block is narrowed once; llr is left as it was. A scalar
    llr gives an np.int8 value.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")
    limit = saturation_limit(width)
    llr = np.asarray(llr)
    out = np.empty(llr.shape, dtype=np.int8)
    flat, narrow = llr.reshape(-1), out.reshape(-1)
    buffer = np.empty(min(flat.size, _QUANTIZE_BLOCK))
    for lo in range(0, flat.size, _QUANTIZE_BLOCK):
        block = buffer[:flat.size - lo]
        np.multiply(flat[lo:lo + _QUANTIZE_BLOCK], scale, out=block)
        np.rint(block, out=block)
        np.clip(block, -limit, limit, out=block)
        narrow[lo:lo + _QUANTIZE_BLOCK] = block
    return QuantizedLLR(out[()] if out.ndim == 0 else out, width)


def _build_layout(config: SimConfig):
    if config.layout == "ga":
        return construct_polar(config.N, config.K, config.method, config.design_snr_db)
    return construct_fast_polar(config.N, config.K, config.method, config.design_snr_db)


def _chunk_counts(code, config: SimConfig, snr_db: float, point_idx: int,
                  chunk_idx: int, frames: int):
    """Simulate one deterministic chunk; returns (frames, frame_errors, bit_errors).
    Channel, quantizer and decode run one decoder block at a time, with the
    noise drawn in frame order, so the LLRs are those of a whole-chunk transmit."""
    seed = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(point_idx, chunk_idx))
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, size=(frames, code.K), dtype=np.uint8)
    codewords = encode(code, messages)
    fixed = config.arithmetic == "fixed"
    scale = config.llr_scale
    if fixed and scale is None:
        scale = default_llr_scale(config.q_ch, snr_db, config.modulation)
    errors = np.empty(frames, dtype=np.int64)  # bit errors per frame
    for lo in range(0, frames, _BLOCK_FRAMES):
        block = slice(lo, lo + _BLOCK_FRAMES)
        llr = transmit(codewords[block], snr_db, config.modulation, rng,
                       zero_noise=config.zero_noise)
        if fixed:
            # rebinding llr frees the float block before the decode
            llr = quantize_channel(llr, config.q_ch, scale).value
        decoded = fast_sc_decode(code, llr, width=config.q_int if fixed else None)
        errors[block] = np.count_nonzero(decoded.info_bits != messages[block], axis=-1)
    return frames, int(np.count_nonzero(errors)), int(errors.sum())


def _run_point(code, config: SimConfig, snr_db: float, point_idx: int) -> BlerRecord:
    frames = frame_errors = bit_errors = 0

    def chunk_size(i: int) -> int:
        return max(0, min(config.chunk_frames, config.max_frames - i * config.chunk_frames))

    def stopped() -> bool:
        return frame_errors >= config.target_errors or frames >= config.max_frames

    if config.workers <= 1:
        i = 0
        while not stopped() and chunk_size(i) > 0:
            n, fe, be = _chunk_counts(code, config, snr_db, point_idx, i, chunk_size(i))
            frames += n
            frame_errors += fe
            bit_errors += be
            i += 1
    else:
        from concurrent.futures import ProcessPoolExecutor

        # Chunks are consumed strictly in index order so the included set,
        # and therefore every counter, is independent of the worker count.
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures: dict = {}
            submitted = consumed = 0
            while True:
                while submitted < consumed + config.workers and chunk_size(submitted) > 0:
                    futures[submitted] = pool.submit(
                        _chunk_counts, code, config, snr_db, point_idx,
                        submitted, chunk_size(submitted))
                    submitted += 1
                if consumed not in futures:
                    break
                n, fe, be = futures.pop(consumed).result()
                consumed += 1
                frames += n
                frame_errors += fe
                bit_errors += be
                if stopped():
                    break
            for future in futures.values():
                future.cancel()

    bits = frames * code.K
    return BlerRecord(
        snr_db=snr_db,
        eb_n0_db=eb_n0_db(snr_db, code.K / code.N, config.modulation),
        frames=frames,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        bler=frame_errors / frames,
        ber=bit_errors / bits if bits else 0.0,
    )


def run_bler(config: SimConfig, on_record=None) -> list[BlerRecord]:
    """Monte Carlo BLER sweep over the SNR grid, deterministic for a given seed.

    Each point stops once target_errors frame errors accumulate or max_frames
    are spent. on_record, when given, is called with each finished record.
    """
    code = _build_layout(config)
    records = []
    for point_idx, snr_db in enumerate(config.snr_grid_db):
        record = _run_point(code, config, snr_db, point_idx)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


RECORD_CSV_HEADER = "snr_db,eb_n0_db,frames,frame_errors,bit_errors,bler,ber"


def record_csv_row(record: BlerRecord) -> str:
    return (f"{record.snr_db:g},{record.eb_n0_db:.6g},{record.frames},"
            f"{record.frame_errors},{record.bit_errors},"
            f"{record.bler:.8g},{record.ber:.8g}")


def write_records_csv(records, path) -> None:
    lines = [RECORD_CSV_HEADER] + [record_csv_row(r) for r in records]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _git_revision() -> str:
    """Commit of the checkout holding this package, whatever the caller's directory."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def write_manifest(config: SimConfig, path) -> None:
    """JSON run manifest: full config, revision string, and the seed."""
    doc = {
        "config": asdict(config),
        "revision": _git_revision(),
        "seed": config.rng_seed,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
