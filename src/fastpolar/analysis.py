"""Static traversal-cost accounting and pruned-tree export."""

from __future__ import annotations

import math

from .core import CodeSpec, PatternTag, TraversalStats
from .decoder import _F, PatternLimits, decode_plan


def _csv_fields(stats: TraversalStats) -> dict:
    """stats.as_dict() flattened: its counters, then a node count per fast tag."""
    fields = stats.as_dict()
    histogram = fields.pop("histogram")
    return fields | {tag.value: histogram.get(tag.value, 0)
                     for tag in PatternTag if tag is not PatternTag.SLOW}


STATS_CSV_HEADER = ",".join(["N", "K", *_csv_fields(TraversalStats(0, 0, 0, {}))])


def traversal_stats(layout: CodeSpec, limits: PatternLimits | None = None) -> TraversalStats:
    """Count the traversal of the layout's decode plan, without decoding anything."""
    return decode_plan(layout, limits).stats


def _node_doc(steps, start: int = 0) -> dict:
    """The subtree at u-index start whose first step is the next one of steps,
    an iterator over a plan's steps: F opens a branch, its left subtree
    follows, then G moves to its right child; a node step is a leaf."""
    kind, stage, terminal = next(steps)
    doc = {
        "stage": stage,
        "span": [start, start + (1 << stage)],
        "tag": "branch" if kind == _F else terminal.tag.value,
    }
    if kind == _F:
        left = _node_doc(steps, start)
        next(steps)
        doc["children"] = [left, _node_doc(steps, start + (1 << stage - 1))]
    return doc


def export_pruned_tree(layout: CodeSpec, limits: PatternLimits | None = None) -> dict:
    """Hierarchical JSON-ready document of the pruned tree plus its counters.

    Both edge conventions are included: "edges" counts each parent-to-child
    edge once, "edges_directed" counts the down and up traversals separately.
    """
    plan = decode_plan(layout, limits)
    return {
        "N": layout.N,
        "K": layout.K,
        "stats": plan.stats.as_dict(),
        "root": _node_doc(iter(plan.steps)),
    }


def reduction_ratios(baseline: TraversalStats, other: TraversalStats) -> dict:
    """Fractional savings of `other` relative to `baseline` per counter.

    A counter the baseline does not have (0, as edges and f_ops are when the
    baseline decodes as one node) gives nan: there is nothing to save from.
    """
    pairs = {"nodes": (other.terminal_nodes, baseline.terminal_nodes),
             "edges": (other.edges, baseline.edges),
             "f_ops": (other.f_ops, baseline.f_ops)}
    return {name: 1.0 - value / base if base else math.nan
            for name, (value, base) in pairs.items()}


def stats_csv_row(layout: CodeSpec, stats: TraversalStats) -> str:
    """One CSV row matching STATS_CSV_HEADER."""
    return ",".join(map(str, [layout.N, layout.K, *_csv_fields(stats).values()]))
