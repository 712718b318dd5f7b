"""In-memory span tracer that wraps fastpolar functions at their call sites.

Each wrapped function is replaced at the module attribute through which the
program calls it (``decoder.f_check``, ``simulation.encode``, ...), so the
program itself is unchanged; ``Tracer.patched()`` restores every original on
exit. Spans are kept in flat arrays (name id, parent index, start, end) and
aggregated into per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Fast-pattern tags, in the order core.PatternTag lists them.
NODE_TAGS = ("rate0", "rep", "rep2", "pcr", "bch_t2", "bch_t1", "rpc", "spc2", "spc", "rate1")
STAGE_SIZES = tuple(2 ** i for i in range(1, 11))
LAYERS = ("construction", "encoder", "simulation", "decoder", "bch", "core")

# Roots the benchmark opens: only spans under ITERATION count towards the
# per-frame metrics; SETUP and CENSUS spans are kept but set apart.
ITERATION = "bench.iteration"
SETUP = "bench.setup"
CENSUS = "bench.census"
# Largest share of the traced wall time that may sit outside every wrapped
# function below the entry call (run_bler or fast_sc_decode). Measured shares
# are 3-9% on mc_* and about 13% on decode_b1; a wrapper that no longer sees
# its function's work (a renamed or inlined call) pushes them past this.
MAX_UNCOVERED = 0.25


def _nbytes(x) -> int:
    return getattr(x, "nbytes", 8)


def _stage(prefix: str):
    """Span name per stage: the parent node is twice the size of f/g's first input."""
    return lambda args: f"{prefix}{2 * np.shape(args[0])[-1]}"


def _node(args) -> str:
    return f"decoder.node.{getattr(args[0].tag, 'value', args[0].tag)}"


# Census counters: each takes (counters, call args, result).

def _count_fg_bytes(c, args, out):
    c["fg_bytes"] += sum(_nbytes(a) for a in args) + _nbytes(out)


def _count_clips(c, args, out):
    c["sat_values"] += np.size(out)
    c["sat_clipped"] += int(np.count_nonzero(np.asarray(out) != args[0]))


def _count_bch(c, args, out):
    ok = np.asarray(out[1])
    c["bch_words"] += ok.size
    c["bch_ok"] += int(ok.sum())


def _count_frames(c, args, out):
    shape = np.shape(getattr(args[1], "value", args[1]))
    c["frames"] += int(np.prod(shape[:-1], dtype=np.int64))


# (module, attribute, span name or function of the call args, census counter)
PATCHES = (
    ("simulation", "construct_fast_polar", "construction.construct_fast_polar", None),
    ("simulation", "construct_polar", "construction.construct_polar", None),
    ("simulation", "encode", "encoder.encode", None),
    ("simulation", "transmit", "simulation.transmit", None),
    ("simulation", "quantize_channel", "simulation.quantize_channel", None),
    ("simulation", "fast_sc_decode", "decoder.fast_sc_decode", _count_frames),
    ("encoder", "polar_transform", "encoder.polar_transform", None),
    ("encoder", "bch_encode", "bch.bch_encode", None),
    ("decoder", "build_tree", "decoder.build_tree", None),
    ("decoder", "tree_stats", "decoder.tree_stats", None),
    ("decoder", "f_check", _stage("decoder.f_check.m"), _count_fg_bytes),
    ("decoder", "g_bit", _stage("decoder.g_bit.m"), _count_fg_bytes),
    ("decoder", "saturate", "core.saturate", _count_clips),
    ("decoder", "parallel_min_mask", "decoder.parallel_min_mask", None),
    ("decoder", "_decode_terminal", _node, None),
    ("decoder", "polar_transform", "decoder.polar_transform", None),
    ("bch", "bch_decode_hard", "bch.bch_decode_hard", _count_bch),
    ("bch", "saturate", "core.saturate", _count_clips),
)


class Tracer:
    """Records nested spans and, during a census pass, work counters."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.census = False
        self.counters = {"fg_bytes": 0, "frames": 0, "sat_values": 0, "sat_clipped": 0,
                         "bch_words": 0, "bch_ok": 0}
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self.name_ids.setdefault(name, len(self.name_ids)))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """fn inside a span; name is a string or a function of the call args.

        During a census pass, count(counters, args, result) runs after the
        span closes, so counting never adds to a measured time.
        """
        def wrapper(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None and self.census:
                count(self.counters, args, out)
            return out
        return wrapper

    def wrap_decode(self, fn):
        """The fast_sc_decode wrapper, for call sites in the benchmark itself."""
        return self.wrap(fn, "decoder.fast_sc_decode", _count_frames)

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper at its module attribute; restore on exit.

        An attribute the program no longer has is skipped and listed in
        ``missing``; its metrics then read 0.
        """
        saved = []
        try:
            for module_name, attr, name, count in PATCHES:
                module = importlib.import_module(f"fastpolar.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation ------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: names table, name id, parent, start, end, root."""
        names = [None] * len(self.name_ids)
        for name, i in self.name_ids.items():
            names[i] = name
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        root = np.arange(len(parent))
        has_parent = parent >= 0
        root[has_parent] = parent[has_parent]
        while True:
            up = parent[root]
            step = up >= 0
            if not step.any():
                break
            root[step] = up[step]
        return (names, np.frombuffer(self.name_id, dtype=np.int32), parent,
                np.frombuffer(self.start), np.frombuffer(self.end), root)

    def save(self, path) -> None:
        names, name_id, parent, start, end, _ = self.arrays()
        np.savez_compressed(path, names=np.array(names, dtype=str),
                            name_id=name_id, parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the part of it its child spans cover."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def layer_metrics(tracer: Tracer, frames: int, decodes: int, wall_s: float):
    """Per-layer metrics from the spans under iteration roots.

    frames: frames processed in traced iterations (the "s/frame" base);
    decodes: fast_sc_decode calls among them; wall_s: the traced iterations'
    wall time measured outside the tracer. Returns (metrics, check errors).
    """
    names, name_id, parent, start, end, root = tracer.arrays()
    dur = end - start
    own = self_times(parent, dur)
    errors = []
    if np.any(dur < 0) or np.any(own < -1e-6):
        errors.append("span with negative duration or self time")
    child = parent >= 0
    if np.any(start[child] < start[parent[child]]) or np.any(end[child] > end[parent[child]]):
        errors.append("child span outside its parent")

    iteration_id = tracer.name_ids.get(ITERATION, -1)
    in_iter = name_id[root] == iteration_id
    n_names = len(names)
    incl = np.bincount(name_id[in_iter], weights=dur[in_iter], minlength=n_names)
    selfs = np.bincount(name_id[in_iter], weights=own[in_iter], minlength=n_names)
    calls = np.bincount(name_id[in_iter], minlength=n_names)

    def total(name, table=incl):
        i = tracer.name_ids.get(name)
        return float(table[i]) if i is not None else 0.0

    per_frame = 1.0 / max(frames, 1)
    m = {}
    construct = np.isin(name_id, [i for n, i in tracer.name_ids.items()
                                  if n.startswith("construction.")])
    m["construction.construct_s"] = (float(np.median(dur[construct])), "s")
    for name in ("encoder.encode", "encoder.polar_transform", "simulation.transmit",
                 "simulation.quantize_channel", "decoder.fast_sc_decode",
                 "decoder.build_tree", "decoder.tree_stats", "decoder.polar_transform",
                 "core.saturate", "decoder.parallel_min_mask", "bch.bch_decode_hard",
                 "bch.bch_encode"):
        m[f"{name}_s"] = (total(name) * per_frame, "s/frame")
    m["simulation.run_bler_self_s"] = (total("simulation.run_bler", selfs) * per_frame, "s/frame")
    m["decoder.self_s"] = (total("decoder.fast_sc_decode", selfs) * per_frame, "s/frame")
    for size in STAGE_SIZES:
        m[f"decoder.f_check_s.m{size}"] = (total(f"decoder.f_check.m{size}") * per_frame, "s/frame")
        m[f"decoder.g_bit_s.m{size}"] = (total(f"decoder.g_bit.m{size}") * per_frame, "s/frame")
    for tag in NODE_TAGS:
        m[f"decoder.node_s.{tag}"] = (total(f"decoder.node.{tag}") * per_frame, "s/frame")
        m[f"decoder.node_calls.{tag}"] = (total(f"decoder.node.{tag}", calls) / max(decodes, 1),
                                          "count")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, i in tracer.name_ids.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += float(selfs[i])
    for layer, value in layer_self.items():
        m[f"layer_self_s.{layer}"] = (value * per_frame, "s/frame")

    # The iteration span and the entry span directly under it are opened by
    # the benchmark; their self time is work no wrapped inner function saw.
    shallow = in_iter & ((parent < 0) | (parent[np.maximum(parent, 0)] < 0))
    uncovered = float(own[shallow].sum()) / wall_s if wall_s > 0 else 0.0
    m["trace.uncovered_frac"] = (uncovered, "ratio")
    if uncovered > MAX_UNCOVERED:
        errors.append(f"{uncovered:.1%} of the traced time is outside every wrapped inner "
                      f"function, more than {MAX_UNCOVERED:.0%}")

    c = tracer.counters
    m["decoder.fg_bytes_per_frame"] = (c["fg_bytes"] / max(c["frames"], 1), "B/frame")
    m["core.saturate_clip_ratio"] = (c["sat_clipped"] / max(c["sat_values"], 1), "ratio")
    m["bch.decode_ok_ratio"] = (c["bch_ok"] / c["bch_words"] if c["bch_words"] else 0.0, "ratio")
    m["bch.words_per_frame"] = (c["bch_words"] / max(c["frames"], 1), "count")
    return m, errors


def count_python_calls(fn, *args, **kwargs) -> int:
    """Python-level function calls made while running fn once."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count - 1  # the call to fn itself
