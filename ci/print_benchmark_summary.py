#!/usr/bin/env python3
"""Summarise the archived ``BENCH_*.json`` records — and gate regressions.

Usage::

    python ci/print_benchmark_summary.py [RESULTS_DIR] [BASELINE_DIR]
    python ci/print_benchmark_summary.py RESULTS_DIR --gate [--tolerance 0.2]

Reads every ``BENCH_*.json`` in ``RESULTS_DIR`` and prints its headline
numbers, the numbers of its stats blocks (``service_stats``,
``supervision``, the ``*_stats`` blocks: one ``block.name`` line each,
nested blocks joined with dots) and the span breakdown the telemetry
subsystem attached to the record.  When a baseline directory holds records
of the same names, a delta column shows how each number moved against the
baseline.  The stats blocks are trend-only: the gate reads headlines alone.

Without ``--gate`` the step is a trend report and always exits 0, even on
missing directories or malformed records.  It also prints the line count of
the library's sources (``src/**/*.py`` plus ``*.c``), the code-size figure
of merit; that line is never gated.

With ``--gate`` the script becomes the benchmark regression gate: the
committed records under ``benchmarks/baselines/`` (override with
``--baselines``) are floors for the dimensionless speedup ratios
in :data:`GATED_KEYS`.  A measured ratio may dip up to ``--tolerance``
(relative, default 0.20) below its floor before the gate fails; anything
past that exits non-zero with a per-metric verdict table.  Ratios are
gated rather than raw seconds so the gate is stable across runner
hardware.  Missing records or metrics — a benchmark that did not run, or
``native_speedup``/``build_speedup``/``romdd_speedup``/``fanout_speedup:
null`` on a host without a C compiler — only warn: the
gate must not fail hosts where an optional backend is legitimately
unavailable.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Headline keys never worth a delta line (identities, not measurements).
_SKIP_KEYS = {"benchmark", "numpy_path_available", "native_available"}

#: Higher-is-better ratio metrics the ``--gate`` mode enforces floors on.
#: All are dimensionless (speedup over an in-run reference, build threads
#: against serial on cold multi-structure batches), so a committed floor
#: transfers between machines; absolute seconds deliberately stay
#: trend-only.
GATED_KEYS = (
    "native_speedup",
    "native_backward_speedup",
    "build_speedup",
    "romdd_speedup",
    "speedup",
    "fanout_speedup",
)


def src_line_count(root=None):
    """Lines of ``*.py`` and ``*.c`` files under the repository's ``src/``."""
    if root is None:
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    total = 0
    for directory, _, names in os.walk(root):
        for name in names:
            if name.endswith((".py", ".c")):
                with open(os.path.join(directory, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def _load_records(directory):
    records = {}
    if not directory:
        return records
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_") : -len(".json")]
        try:
            with open(path) as handle:
                records[name] = json.load(handle)
        except (OSError, ValueError) as exc:
            print("  ! cannot read %s: %s" % (path, exc))
    return records


def _numeric_items(record):
    for key in sorted(record):
        value = record[key]
        if key in _SKIP_KEYS or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            yield key, value


def _block_items(record):
    """``(block.name, value)`` for every number inside the record's dict
    blocks, nested blocks joined with dots; ``spans`` has its own table."""
    for key in sorted(record):
        if key != "spans" and isinstance(record[key], dict):
            yield from _flattened(key, record[key])


def _flattened(prefix, block):
    for key in sorted(block, key=str):
        value, name = block[key], "%s.%s" % (prefix, key)
        if isinstance(value, dict):
            yield from _flattened(name, value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield name, value


def _format_number(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def _delta(value, base):
    if base in (None, 0):
        return ""
    try:
        change = (value - base) / abs(base)
    except TypeError:
        return ""
    if abs(change) < 0.005:
        return "  (=)"
    return "  (%+.1f%% vs baseline)" % (100.0 * change)


def print_record(name, record, baseline):
    print("%s" % name)
    base = baseline or {}
    for key, value in _numeric_items(record):
        print(
            "  %-26s %12s%s"
            % (key, _format_number(value), _delta(value, base.get(key)))
        )
    base_blocks = dict(_block_items(base))
    for key, value in _block_items(record):
        print(
            "  %-44s %12s%s"
            % (key, _format_number(value), _delta(value, base_blocks.get(key)))
        )
    spans = record.get("spans") or {}
    if spans:
        base_spans = base.get("spans") or {}
        print("  span breakdown:")
        ordered = sorted(
            spans.items(), key=lambda item: item[1].get("seconds", 0.0), reverse=True
        )
        for span_name, entry in ordered:
            base_entry = base_spans.get(span_name) or {}
            print(
                "    %-28s %4dx %10.4fs%s"
                % (
                    span_name,
                    entry.get("count", 0),
                    entry.get("seconds", 0.0),
                    _delta(entry.get("seconds", 0.0), base_entry.get("seconds")),
                )
            )
    print()


def run_gate(records, baselines, tolerance):
    """Compare gated ratios against the committed floors; return exit code."""
    if not baselines:
        print("gate: no baseline records — nothing to enforce (warning)")
        return 0
    failures = []
    rows = []
    for name in sorted(baselines):
        baseline = baselines[name]
        record = records.get(name)
        if record is None:
            rows.append((name, "-", "missing", "WARN (did not run)"))
            continue
        gated = False
        for key in GATED_KEYS:
            floor = baseline.get(key)
            if not isinstance(floor, (int, float)) or isinstance(floor, bool):
                continue
            gated = True
            metric = "%s.%s" % (name, key)
            value = record.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                rows.append((metric, "%.3f" % floor, "n/a", "WARN (not measured)"))
                continue
            required = floor * (1.0 - tolerance)
            verdict = "ok" if value >= required else "FAIL"
            rows.append(
                (
                    metric,
                    "%.3f" % floor,
                    "%.3f" % value,
                    "%s (min %.3f)" % (verdict, required),
                )
            )
            if value < required:
                failures.append(metric)
        if not gated:
            rows.append((name, "-", "-", "ok (no gated ratios)"))
    title = "Benchmark regression gate (tolerance %.0f%% below floor)" % (
        100.0 * tolerance
    )
    print(title)
    print("=" * len(title))
    width = max(len(row[0]) for row in rows) if rows else 10
    for metric, floor, value, verdict in rows:
        print(
            "  %-*s  floor %-10s measured %-10s %s"
            % (width, metric, floor, value, verdict)
        )
    print()
    if failures:
        print("gate FAILED: %d metric(s) regressed past tolerance:" % len(failures))
        for metric in failures:
            print("  - %s" % metric)
        return 1
    print("gate OK: no gated ratio regressed past tolerance")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Summarise BENCH_*.json records; optionally gate regressions."
    )
    parser.add_argument("results_dir", nargs="?", default="benchmarks/results")
    parser.add_argument(
        "baseline_dir",
        nargs="?",
        default=None,
        help="records to diff against (defaults to --baselines when --gate is on)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (exit 1) when a gated ratio drops past tolerance below its floor",
    )
    parser.add_argument(
        "--baselines",
        default=os.path.join("benchmarks", "baselines"),
        help="committed floor records (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative dip below a floor before failing (default: 0.20)",
    )
    args = parser.parse_args(argv[1:])

    baseline_dir = args.baseline_dir
    if baseline_dir is None and args.gate:
        baseline_dir = args.baselines

    print("src/ lines (*.py + *.c, trend only): %d" % src_line_count())
    records = _load_records(args.results_dir)
    baselines = _load_records(baseline_dir)
    if not records:
        print("no BENCH_*.json records under %s" % args.results_dir)
        if args.gate:
            print("gate: nothing ran — treating as a warning, not a failure")
        return 0
    title = "Benchmark summary (%d records)" % len(records)
    if baselines:
        title += " vs baseline %s" % baseline_dir
    print(title)
    print("=" * len(title))
    for name in sorted(records):
        print_record(name, records[name], baselines.get(name))
    if args.gate:
        return run_gate(records, baselines, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
