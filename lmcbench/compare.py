#!/usr/bin/env python3
"""Per-layer deltas between two sets of traced benchmark outputs.

Usage (from the repository root)::

    python3 lmcbench/compare.py OLD NEW

``OLD`` and ``NEW`` are each a traced output (``*.trace.json``, written by
``lmcbench/run.py --trace 1``) or a directory of them.  For every workload
present on both sides the view prints, per layer, the entry counts and self
seconds of each side and their difference; with several outputs of one
workload on a side (several seeds) it uses the median per layer.  A change
that claims a gain shows here which layer the saving came from.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Optional

Table = Dict[str, Dict[str, float]]


def load(path: str) -> Dict[str, List[Table]]:
    """Per-layer tables of every traced output under ``path``, by workload."""
    files = sorted(glob.glob(os.path.join(path, "*.trace.json"))) if os.path.isdir(path) else [path]
    if not files:
        raise SystemExit(f"error: no traced outputs (*.trace.json) in {path}")
    tables: Dict[str, List[Table]] = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            payload = json.load(handle)
        tables.setdefault(payload["workload"], []).append(payload["layers"])
    return tables


def median_table(tables: List[Table]) -> Table:
    return {
        layer: {
            field: statistics.median(table[layer][field] for table in tables)
            for field in ("calls", "self_s")
        }
        for layer in tables[0]
    }


def _percent(old: float, new: float) -> str:
    return f"{100.0 * (new - old) / old:+7.1f}%" if old else "      -"


def render(workload: str, old: Table, new: Table, sides: str) -> List[str]:
    lines = [
        f"{workload} ({sides})",
        f"  {'layer':<20} {'calls old':>10} {'calls new':>10} {'delta':>9}"
        f" {'self_s old':>11} {'self_s new':>11} {'delta':>10} {'change':>8}",
    ]
    for layer in old:
        before, after = old[layer], new.get(layer, {"calls": 0, "self_s": 0.0})
        lines.append(
            f"  {layer:<20} {before['calls']:>10.0f} {after['calls']:>10.0f}"
            f" {after['calls'] - before['calls']:>+9.0f}"
            f" {before['self_s']:>11.4f} {after['self_s']:>11.4f}"
            f" {after['self_s'] - before['self_s']:>+10.4f} {_percent(before['self_s'], after['self_s'])}"
        )
    total_old = sum(row["self_s"] for row in old.values())
    total_new = sum(row["self_s"] for row in new.values())
    lines.append(
        f"  {'total':<20} {'':>10} {'':>10} {'':>9} {total_old:>11.4f} {total_new:>11.4f}"
        f" {total_new - total_old:>+10.4f} {_percent(total_old, total_new)}"
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="traced output or directory of them (before)")
    parser.add_argument("new", help="traced output or directory of them (after)")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    shared = sorted(set(old) & set(new))
    if not shared:
        print("error: the two sides share no workload", file=sys.stderr)
        return 2
    for workload in shared:
        sides = f"{len(old[workload])} old / {len(new[workload])} new output(s)"
        print("\n".join(render(workload, median_table(old[workload]), median_table(new[workload]), sides)))
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload}: only on the {'old' if workload in old else 'new'} side, not compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
