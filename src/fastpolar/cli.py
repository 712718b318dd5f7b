"""Command line front-end: construct layouts, inspect traversal stats, run BLER sweeps."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import MISSING, fields
from typing import get_type_hints

from .analysis import STATS_CSV_HEADER, reduction_ratios, stats_csv_row, traversal_stats
from .construction import (
    _METHODS,
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
    con.add_argument("--method", choices=_METHODS, default="ga")
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
    build = construct_fast_polar if args.fast else construct_polar
    layout = build(args.n, args.k, args.method, args.design_snr)
    print(f"N={args.n} K={args.k} method={args.method}")
    if args.fast:
        histogram = Counter(tag.value for tag in layout.segments)
        pairs = " ".join(f"{tag}:{count}" for tag, count in sorted(histogram.items()))
        print(f"segments={layout.segment_count} patterns: {pairs}")

    if args.out:
        doc = layout_to_dict(layout, method=args.method,
                             design_snr_db=args.design_snr if args.method == "ga" else None)
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    return 0


def _load_layout(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
        return layout_from_dict(doc)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise OSError(f"cannot load layout {path}: {exc}") from exc


def _cmd_stats(args) -> int:
    layout = _load_layout(args.layout)
    baseline = _load_layout(args.baseline) if args.baseline else None
    stats = traversal_stats(layout)
    print(STATS_CSV_HEADER)
    print(stats_csv_row(layout, stats))
    if baseline is not None:
        ratios = reduction_ratios(traversal_stats(baseline), stats)
        print("reduction_vs_baseline nodes={nodes:.4f} edges={edges:.4f} "
              "f_ops={f_ops:.4f}".format(**ratios))
    return 0


# Config keys are SimConfig's field names in lower case, plus out_prefix.
_CONFIG_TYPES = {name.lower(): kind for name, kind in get_type_hints(SimConfig).items()}
_CONFIG_TYPES["out_prefix"] = str


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# How a value is parsed by its field type; any other type is called on the text.
_PARSERS = {
    bool: _parse_bool,
    tuple[float, ...]: lambda raw: tuple(float(part) for part in raw.split(",") if part.strip()),
    float | None: float,
}


def parse_sim_config(text: str) -> tuple[SimConfig, str]:
    """Parse a flat key=value config into (SimConfig, output prefix).

    Blank lines and lines starting with # are skipped; unknown and repeated
    keys are rejected by name.
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
        if key not in _CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: repeated config key {key!r}")
        kind = _CONFIG_TYPES[key]
        try:
            values[key] = _PARSERS.get(kind, kind)(rhs.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    config_fields = fields(SimConfig)
    missing = [f.name.lower() for f in config_fields
               if f.default is MISSING and f.name.lower() not in values]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    config = SimConfig(**{f.name: values[f.name.lower()] for f in config_fields
                          if f.name.lower() in values})
    return config, values.get("out_prefix", "bler")


def _cmd_simulate(args) -> int:
    try:
        with open(args.config) as handle:
            config, prefix = parse_sim_config(handle.read())
        print(RECORD_CSV_HEADER)
        records = run_bler(config, on_record=lambda rec: print(record_csv_row(rec), flush=True))
    except InfeasibleConstructionError:
        raise
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from exc
    write_records_csv(records, f"{prefix}.csv")
    write_manifest(config, f"{prefix}.manifest.json")
    return 0


# Exit code by error type, first match wins; success is 0 and a usage error 1.
_EXIT_CODES = {InfeasibleConstructionError: 2, ValueError: 1, OSError: 3}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
