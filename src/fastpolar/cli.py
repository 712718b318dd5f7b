"""Command line front-end: construct layouts, inspect traversal stats, run BLER sweeps.

Exit codes: 0 success, 1 usage or configuration error, 2 infeasible
construction, 3 file I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .analysis import STATS_CSV_HEADER, reduction_ratios, stats_csv_row, traversal_stats
from .construction import (
    DEFAULT_DESIGN_SNR_DB,
    InfeasibleConstructionError,
    construct_fast_polar,
    construct_polar,
    layout_from_dict,
    layout_to_dict,
)
from .simulation import (
    RECORD_CSV_HEADER,
    SimConfig,
    record_csv_row,
    run_bler,
    write_manifest,
    write_records_csv,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit code 2; reroute them to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fastpolar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a layout and print its summary")
    con.add_argument("--n", type=int, required=True, help="block length (power of two)")
    con.add_argument("--k", type=int, required=True, help="information bits")
    con.add_argument("--method", choices=("ga", "pw"), default="ga")
    con.add_argument("--design-snr", type=float, default=DEFAULT_DESIGN_SNR_DB,
                     help="design SNR in dB (ga method only)")
    con.add_argument("--fast", action="store_true",
                     help="re-allocate bits so every segment is a fast pattern")
    con.add_argument("--out", help="write the layout as JSON to this path")
    con.set_defaults(func=_cmd_construct)

    st = sub.add_parser("stats", help="print traversal statistics for a layout file")
    st.add_argument("layout", help="layout JSON produced by construct --out")
    st.add_argument("--baseline", help="second layout to compute reductions against")
    st.set_defaults(func=_cmd_stats)

    sim = sub.add_parser("simulate", help="run a BLER sweep from a config file")
    sim.add_argument("config", help="flat key=value configuration file")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def _cmd_construct(args) -> int:
    try:
        if args.fast:
            layout = construct_fast_polar(args.n, args.k, args.method, args.design_snr)
        else:
            layout = construct_polar(args.n, args.k, args.method, args.design_snr)
    except InfeasibleConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"N={args.n} K={args.k} method={args.method}")
    if args.fast:
        histogram = Counter(tag.value for tag in layout.segments)
        pairs = " ".join(f"{tag}:{count}" for tag, count in sorted(histogram.items()))
        print(f"segments={layout.segment_count} patterns: {pairs}")

    if args.out:
        doc = layout_to_dict(layout, method=args.method,
                             design_snr_db=args.design_snr if args.method == "ga" else None)
        try:
            with open(args.out, "w") as handle:
                json.dump(doc, handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    return 0


def _load_layout(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
        return layout_from_dict(doc)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise OSError(f"cannot load layout {path}: {exc}") from exc


def _cmd_stats(args) -> int:
    try:
        layout = _load_layout(args.layout)
        baseline = _load_layout(args.baseline) if args.baseline else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    stats = traversal_stats(layout)
    print(STATS_CSV_HEADER)
    print(stats_csv_row(layout, stats))
    if baseline is not None:
        ratios = reduction_ratios(traversal_stats(baseline), stats)
        print("reduction_vs_baseline nodes={nodes:.4f} edges={edges:.4f} "
              "f_ops={f_ops:.4f}".format(**ratios))
    return 0


_CONFIG_SCHEMA = {
    "n": int,
    "k": int,
    "layout": str,
    "method": str,
    "design_snr_db": float,
    "modulation": str,
    "arithmetic": str,
    "q_ch": int,
    "q_int": int,
    "llr_scale": float,
    "max_frames": int,
    "target_errors": int,
    "chunk_frames": int,
    "rng_seed": int,
    "workers": int,
    "zero_noise": bool,
    "snr_grid_db": tuple,
    "out_prefix": str,
}

_REQUIRED_CONFIG_KEYS = ("n", "k", "snr_grid_db")


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_sim_config(text: str) -> tuple[SimConfig, str]:
    """Parse a flat key=value config into (SimConfig, output prefix).

    Blank lines and lines starting with # are skipped; unknown keys are
    rejected by name.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _CONFIG_SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        kind = _CONFIG_SCHEMA[key]
        try:
            if kind is bool:
                values[key] = _parse_bool(rhs)
            elif kind is tuple:
                values[key] = tuple(float(part) for part in rhs.split(",") if part.strip())
            else:
                values[key] = kind(rhs)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in values]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")

    prefix = values.pop("out_prefix", "bler")
    values["N"] = values.pop("n")
    values["K"] = values.pop("k")
    return SimConfig(**values), prefix


def _cmd_simulate(args) -> int:
    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 3

    try:
        config, prefix = parse_sim_config(text)
    except ValueError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1

    print(RECORD_CSV_HEADER)
    try:
        records = run_bler(config, on_record=lambda rec: print(record_csv_row(rec), flush=True))
    except InfeasibleConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1

    try:
        write_records_csv(records, f"{prefix}.csv")
        write_manifest(config, f"{prefix}.manifest.json")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
