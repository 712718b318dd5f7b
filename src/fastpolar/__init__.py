"""Polar codes with fast simplified-SC decoding on 16-bit segments."""

from .analysis import export_pruned_tree, reduction_ratios, traversal_stats
from .bch import bch_decode_hard, bch_encode
from .construction import (
    DEFAULT_DESIGN_SNR_DB,
    InfeasibleConstructionError,
    construct_fast_polar,
    construct_polar,
    layout_from_dict,
    layout_to_dict,
    reliability_sequence,
)
from .core import (
    MAX_WIDTH,
    MIN_WIDTH,
    SEGMENT_SIZE,
    CodeSpec,
    PatternTag,
    QuantizedLLR,
    TraversalStats,
    hard_decision,
    saturate,
    saturation_limit,
)
from .decoder import (
    SC_EQUIVALENT_LIMITS,
    DecodeResult,
    PatternLimits,
    decode_node,
    f_check,
    fast_sc_decode,
    g_bit,
    parallel_min_mask,
)
from .encoder import encode, polar_transform
from .oracle import enumerate_codebook, ml_decode, sc_decode_baseline
from .simulation import (
    BlerRecord,
    SimConfig,
    default_llr_scale,
    eb_n0_db,
    noise_variance,
    quantize_channel,
    run_bler,
    transmit,
    write_manifest,
    write_records_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BlerRecord",
    "CodeSpec",
    "DecodeResult",
    "DEFAULT_DESIGN_SNR_DB",
    "InfeasibleConstructionError",
    "MAX_WIDTH",
    "MIN_WIDTH",
    "PatternLimits",
    "PatternTag",
    "QuantizedLLR",
    "SC_EQUIVALENT_LIMITS",
    "SEGMENT_SIZE",
    "SimConfig",
    "TraversalStats",
    "bch_decode_hard",
    "bch_encode",
    "construct_fast_polar",
    "construct_polar",
    "decode_node",
    "default_llr_scale",
    "eb_n0_db",
    "encode",
    "enumerate_codebook",
    "export_pruned_tree",
    "f_check",
    "fast_sc_decode",
    "g_bit",
    "hard_decision",
    "layout_from_dict",
    "layout_to_dict",
    "ml_decode",
    "noise_variance",
    "parallel_min_mask",
    "polar_transform",
    "quantize_channel",
    "reduction_ratios",
    "reliability_sequence",
    "run_bler",
    "saturate",
    "saturation_limit",
    "sc_decode_baseline",
    "transmit",
    "traversal_stats",
    "write_manifest",
    "write_records_csv",
]
