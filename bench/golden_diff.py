#!/usr/bin/env python3
# Copyright 2026 the pdblb authors. MIT license.
"""Compares two golden output sets (bench/golden_outputs.sh) file by file.

Usage: golden_diff.py OLD NEW

Prints one line per file of either set:
  * "identical" when the bytes agree;
  * for a CSV that differs, each column that differs and in how many rows;
  * for an event trace (fig5_trace.<i>.csv), whether NEW is a prefix of
    OLD, as it is when a change only stops simulating work after the
    measurement window.

Exits 1 when a CSV column other than kernel_events or kernel_handoffs
differs (or a CSV's header or row count does), when any other output
(fig4_parameters and the examples' .out files) differs or is in one set
only.  The traces, the attribution table and the two kernel columns
record the simulator's own work, not a simulated result, so they are
reported but never fail the comparison: a change that only cuts simulator
work proves itself with an exit status of 0.
"""

import csv
import os
import sys

KERNEL_COLUMNS = {"kernel_events", "kernel_handoffs"}


def is_report_only(name):
    return name.startswith("fig5_trace")


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().splitlines(keepends=True)


def compare_trace(old, new):
    """Returns the report for two differing trace files."""
    old_lines, new_lines = read_lines(old), read_lines(new)
    if len(new_lines) < len(old_lines) and \
            old_lines[:len(new_lines)] == new_lines:
        return "NEW is a prefix of OLD (%d of %d lines)" % (
            len(new_lines), len(old_lines))
    return "differs, NEW is not a prefix of OLD (%d vs %d lines)" % (
        len(old_lines), len(new_lines))


def compare_csv(old, new):
    """Returns (report, failed) for two result CSVs, column by column."""
    with open(old, newline="") as f:
        old_rows = list(csv.reader(f))
    with open(new, newline="") as f:
        new_rows = list(csv.reader(f))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return "header differs", True
    if len(old_rows) != len(new_rows):
        return "row count differs (%d vs %d)" % (
            len(old_rows) - 1, len(new_rows) - 1), True
    header = old_rows[0]
    differing = {}
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for i, column in enumerate(header):
            old_cell = old_row[i] if i < len(old_row) else None
            new_cell = new_row[i] if i < len(new_row) else None
            if old_cell != new_cell:
                differing[column] = differing.get(column, 0) + 1
    rows = len(old_rows) - 1
    parts = ["%s (%d of %d rows)" % (c, n, rows)
             for c, n in differing.items()]
    failed = any(c not in KERNEL_COLUMNS for c in differing)
    return "differs in " + ", ".join(parts), failed


def compare(old_dir, new_dir, name):
    """Returns (report, failed) for one file present in both sets."""
    old, new = os.path.join(old_dir, name), os.path.join(new_dir, name)
    with open(old, "rb") as f:
        old_bytes = f.read()
    with open(new, "rb") as f:
        new_bytes = f.read()
    if old_bytes == new_bytes:
        return "identical", False
    if is_report_only(name):
        if name.endswith(".csv"):
            return compare_trace(old, new) + " [report only]", False
        return "differs [report only]", False
    if name.endswith(".csv"):
        return compare_csv(old, new)
    return "differs", True


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: golden_diff.py OLD NEW\n")
        return 2
    old_dir, new_dir = argv[1], argv[2]
    old_names, new_names = set(os.listdir(old_dir)), set(os.listdir(new_dir))
    failures = 0
    for name in sorted(old_names | new_names):
        if name not in new_names or name not in old_names:
            side = "OLD" if name in old_names else "NEW"
            report, failed = "only in " + side, not is_report_only(name)
        else:
            report, failed = compare(old_dir, new_dir, name)
        failures += failed
        print("%s: %s%s" % (name, report, "  <- FAIL" if failed else ""))
    print("%d files, %d failing" % (len(old_names | new_names), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
