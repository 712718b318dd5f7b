"""Modulation, AWGN LLR generation, quantization front-end, and the BLER harness."""

from __future__ import annotations

import json
import math
import subprocess
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from itertools import cycle, islice, starmap
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .construction import _METHODS, DEFAULT_DESIGN_SNR_DB, construct_fast_polar, construct_polar
from .core import QuantizedLLR, _clip, _is_integer, saturation_limit
from .decoder import _block_frames, fast_sc_decode
from .encoder import encode

_MODULATIONS = {"bpsk": 1, "qpsk": 2}  # bits per symbol
_LAYOUTS = ("ga", "fast")
_ARITHMETIC = ("float", "fixed")


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
    # processes that run the chunks; every chunk, in process or in a pool worker, draws its
    # noise on one helper thread, one transmit call ahead, bit-identical to a serial draw
    workers: int = 1
    zero_noise: bool = False

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if isinstance(self.snr_grid_db, (str, bytes)):
            raise ValueError(f"snr_grid_db must be a sequence, not {self.snr_grid_db!r}")
        grid = tuple(self.snr_grid_db)
        for name, value in [("design_snr_db", self.design_snr_db), ("llr_scale", self.llr_scale),
                            *(("snr_grid_db", s) for s in grid)]:
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} takes numbers, not the bool {value!r}")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in grid))
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be non-empty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ValueError(f"snr_grid_db must be finite, got {self.snr_grid_db}")
        if self.llr_scale is not None and not 0 < self.llr_scale < math.inf:
            raise ValueError(f"llr_scale must be finite and positive, got {self.llr_scale}")
        if self.method.lower() not in _METHODS:
            raise ValueError(f"unknown construction method: {self.method!r}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        for name in ("max_frames", "target_errors", "chunk_frames", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.arithmetic == "fixed":
            saturation_limit(self.q_ch)
            saturation_limit(self.q_int)


_INT_FIELDS = tuple(name for name, kind in get_type_hints(SimConfig).items() if kind is int)
_CHOICES = {"layout": _LAYOUTS, "modulation": tuple(_MODULATIONS), "arithmetic": _ARITHMETIC}


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
    return _bits_per_symbol(modulation) / (2.0 * 10.0 ** (snr_db / 10.0))


def eb_n0_db(snr_db: float, rate: float, modulation: str) -> float:
    """Convert Es/N0 to Eb/N0 for the given code rate."""
    bits_per_symbol = _bits_per_symbol(modulation)
    if rate <= 0:
        return float("nan")
    return snr_db - 10.0 * math.log10(bits_per_symbol * rate)


def _bits_per_symbol(modulation: str) -> int:
    try:
        return _MODULATIONS[modulation]
    except (KeyError, TypeError):
        raise ValueError(f"modulation must be one of {tuple(_MODULATIONS)}, "
                         f"got {modulation!r}") from None


def transmit(codeword, snr_db, modulation, rng, zero_noise: bool = False) -> np.ndarray:
    """BPSK/QPSK-modulate bits (..., N) over AWGN and return channel LLRs 2y/sigma^2.

    The LLRs are built in place in one float64 buffer: noise * sqrt(sigma^2),
    plus the symbol 1 - 2c, over sigma^2 / 2. These are the operations of
    2 * ((1 - 2c) + noise * sqrt(sigma^2)) / sigma^2 in the same order, save
    that the doubling moves into the divisor; doubling and halving are exact,
    so the LLRs are bit-identical to that expression. Any nonzero bit value
    counts as a 1, as in encode.
    """
    bits = np.asarray(codeword)
    sigma2 = noise_variance(snr_db, modulation)
    symbols = 1 - 2 * (bits != 0).view(np.int8)
    if zero_noise:
        llr = symbols.astype(np.float64)
    else:
        llr = rng.standard_normal(bits.shape)
        llr *= math.sqrt(sigma2)
        llr += symbols
    llr /= sigma2 / 2.0
    return llr if llr.ndim else llr[()]


def default_llr_scale(width: int, snr_db: float, modulation: str) -> float:
    """Quantizer scale mapping the noiseless-symbol LLR magnitude 2/sigma^2 to
    full scale, so anything beyond a clean symbol's confidence clips."""
    sigma2 = noise_variance(snr_db, modulation)
    return saturation_limit(width) * sigma2 / 2.0


def quantize_channel(llr, width: int, scale: float) -> QuantizedLLR:
    """Round llr * scale into the symmetric width-bit range, as int8; llr is
    left as it was, and a scalar llr gives an np.int8 value. LLRs of any dtype
    but float or integer raise ValueError. +-inf clips to the rail; a NaN,
    whose cast to int8 is the one invalid operation here, raises ValueError."""
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")
    limit = saturation_limit(width)
    llr = np.asarray(llr)
    if llr.dtype.kind not in "fiu":
        raise ValueError(f"LLRs must be float or integer, got dtype {llr.dtype}")
    scaled = np.multiply(llr, scale, out=np.empty(llr.shape))
    np.rint(scaled, out=scaled)
    _clip(scaled, -limit, limit, out=scaled)  # skips np.clip's per-call Python layer
    try:
        with np.errstate(invalid="raise"):
            out = scaled.astype(np.int8)
    except FloatingPointError:
        raise ValueError("LLRs must not be NaN") from None
    return QuantizedLLR(out[()] if out.ndim == 0 else out, width)


def _build_layout(config: SimConfig):
    build = construct_polar if config.layout == "ga" else construct_fast_polar
    return build(config.N, config.K, config.method, config.design_snr_db)


class _NoiseAhead:
    """The chunk Generator's standard_normal for transmit, drawn one call ahead
    on one helper thread. Calls must ask for the (n, N) blocks of frames in
    order, block frames each and the last one partial. Draw i fills buffer
    i mod 2 of two float64 buffers with rng.standard_normal(out=...), which
    runs without the GIL, so the next call's noise is drawn while the caller
    encodes, decodes and counts. Call i submits draw i + 1 into the buffer of
    draw i - 1, so a returned array is overwritten only after the next call.
    The helper draws in call order, so the Generator's stream is read as by
    serial calls, and every value is theirs."""

    def __init__(self, rng, frames: int, block: int, N: int):
        buffers = [np.empty(min(block, frames) * N) for _ in range(2)]
        self._outs = (b[:min(block, frames - lo) * N].reshape(-1, N)
                      for lo, b in zip(range(0, frames, block), cycle(buffers)))
        self._rng = rng

    def __enter__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._submit()
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(cancel_futures=True)

    def _submit(self) -> None:
        out = next(self._outs, None)
        if out is not None:
            self._pending = self._pool.submit(self._rng.standard_normal, out=out)

    def standard_normal(self, shape) -> np.ndarray:
        noise = self._pending.result()
        if noise.shape != tuple(shape):
            raise ValueError(f"noise drawn for shape {noise.shape}, asked for {shape}")
        self._submit()
        return noise


def _chunk_counts(code, config: SimConfig, snr_db: float, point_idx: int,
                  chunk_idx: int, frames: int):
    """Simulate one deterministic chunk; returns (frames, frame_errors, bit_errors).

    The messages are drawn in one call, since drawing them in pieces would
    depend on numpy's byte buffering, and each block unpacks only its own.
    Both arithmetics run one float64 decode block (decoder._block_frames: 128
    frames at N = 1024) per transmit call. The noise is drawn one block ahead
    (_NoiseAhead) from the chunk's one Generator in frame order, so the LLRs
    are bit-identical to those of a whole-chunk transmit, in process and in a
    pool worker alike."""
    seed = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(point_idx, chunk_idx))
    rng = np.random.default_rng(seed)
    messages = np.packbits(rng.integers(0, 2, size=(frames, code.K), dtype=np.uint8), axis=-1)
    fixed = config.arithmetic == "fixed"
    width = config.q_int if fixed else None
    scale = config.llr_scale
    if fixed and scale is None:
        scale = default_llr_scale(config.q_ch, snr_db, config.modulation)
    block_frames = _block_frames(code.N, np.float64)
    errors = np.empty(frames, dtype=np.int64)  # bit errors per frame
    noise = nullcontext(rng) if config.zero_noise else \
        _NoiseAhead(rng, frames, block_frames, code.N)
    with noise as source:
        for lo in range(0, frames, block_frames):
            block = slice(lo, lo + block_frames)
            codewords = encode(code, np.unpackbits(messages[block], axis=-1, count=code.K))
            llr = transmit(codewords, snr_db, config.modulation, source,
                           zero_noise=config.zero_noise)
            del codewords  # the decode needs only the LLRs
            if fixed:
                llr = quantize_channel(llr, config.q_ch, scale).value
            decoded = np.packbits(fast_sc_decode(code, llr, width=width).info_bits, axis=-1)
            errors[block] = np.bitwise_count(decoded ^ messages[block]).sum(axis=-1)
    return frames, int(np.count_nonzero(errors)), int(errors.sum())


def _pooled(jobs, workers: int):
    """Yield _chunk_counts of each job in order from a pool of workers processes kept
    at most workers chunks ahead; dropping the stream shuts the pool down and cancels the rest."""
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        ahead = [pool.submit(_chunk_counts, *job) for job in islice(jobs, workers)]
        while ahead:
            counts = ahead.pop(0).result()
            ahead.extend(pool.submit(_chunk_counts, *job) for job in islice(jobs, 1))
            yield counts
    finally:
        pool.shutdown(cancel_futures=True)


def _run_point(code, config: SimConfig, snr_db: float, point_idx: int) -> BlerRecord:
    # Chunks are consumed in index order, each with its own seed, so every
    # counter is independent of the worker count; the stream ends at max_frames.
    starts = range(0, config.max_frames, config.chunk_frames)
    jobs = ((code, config, snr_db, point_idx, i,
             min(config.chunk_frames, config.max_frames - lo)) for i, lo in enumerate(starts))
    workers = min(config.workers, len(starts))
    stream = _pooled(jobs, workers) if workers > 1 else starmap(_chunk_counts, jobs)
    frames = frame_errors = bit_errors = 0
    for n, fe, be in stream:
        frames += n
        frame_errors += fe
        bit_errors += be
        if frame_errors >= config.target_errors:
            break

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


RECORD_CSV_HEADER = ",".join(f.name for f in fields(BlerRecord))


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
