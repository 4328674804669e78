#!/usr/bin/env python3
# Copyright 2026 the pdblb authors. MIT license.
"""Prints the self-time shares of a profile written by the SIGPROF sampler.

Usage: symbolize.py PROFILE [--annotate SUBSTRING]

PROFILE holds the sampler's "pc <hex>" lines and the profiled process's
/proc/self/maps ("map <line>").  Each program counter is mapped to its
object file, moved to the file's link-time addresses (position-independent
objects are shifted by their load base) and looked up in `nm -C` of that
file.  GCC's coroutine bodies keep their own names: each is reported as
"<function> [clone .actor]", all its template instantiations together.
Samples in perfbench's CalibrationLoopSeconds, the benchmark's own
calibration loop, are left out of the total.  The ROWS symbols with the
largest shares are printed.

With --annotate SUBSTRING, the function with the most samples among those
whose name (as the table prints it) contains SUBSTRING is disassembled
instead (`objdump -d -C`), each instruction prefixed with the number of
samples taken at its address.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

EXCLUDED = "CalibrationLoopSeconds"
ROWS = 30
ACTOR = " [clone .actor]"


def read_profile(path):
    pcs, maps = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "map":
                fields = rest.split(maxsplit=5)
                start, end = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) == 6 else ""
                maps.append((start, end, int(fields[2], 16), name))
    maps.sort()
    return pcs, maps


def is_position_independent(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return header[:4] == b"\x7fELF" and header[16] == 3  # e_type == ET_DYN


def text_symbols(path):
    """Sorted (address, size, name) of the functions `nm -C` lists."""
    for extra in ([], ["-D"]):  # stripped shared libraries keep -D only
        out = subprocess.run(
            ["nm", "-C", "-n", "-S", "--defined-only", *extra, path],
            capture_output=True, text=True).stdout
        symbols = []
        for line in out.splitlines():
            fields = line.split(maxsplit=3)
            if len(fields) == 4 and fields[2] in "TtWw":
                symbols.append((int(fields[0], 16), int(fields[1], 16),
                                fields[3]))
        if symbols:
            return symbols
    return []


def short_name(name):
    """GCC demangles a coroutine body as "f(f(args)::_Z...Frame*) [clone
    .actor]"; keep "f [clone .actor]"."""
    if not name.endswith(ACTOR):
        return name
    head = name[:-len(ACTOR)]
    depth = 0
    for i in range(len(head) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(head[i], 0)
        if depth == 0:
            return head[:i] + ACTOR
    return name


class Symbolizer:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.objects = {}

    def _object(self, path):
        if path not in self.objects:
            base = 0
            if os.path.isfile(path) and is_position_independent(path):
                base = min(s - off for s, _, off, name in self.maps
                           if name == path)
            symbols = text_symbols(path) if os.path.isfile(path) else []
            self.objects[path] = (base, symbols, [s[0] for s in symbols])
        return self.objects[path]

    def locate(self, pc):
        """(object file, link-time address, (address, size, name) of the
        enclosing function) of `pc`: all None if unmapped, the function
        None if `nm` lists none there."""
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1] or not self.maps[i][3]:
            return None, None, None
        path = self.maps[i][3]
        base, symbols, addrs = self._object(path)
        addr = pc - base
        j = bisect.bisect_right(addrs, addr) - 1
        if j >= 0 and addr < symbols[j][0] + max(symbols[j][1], 1):
            return path, addr, symbols[j]
        return path, addr, None

    def name(self, pc):
        path, _, symbol = self.locate(pc)
        if path is None:
            return "[unmapped]"
        if symbol is None:
            return "[" + os.path.basename(path) + "]"
        return short_name(symbol[2])


INSTRUCTION = re.compile(r"^\s*([0-9a-f]+):\t")


def annotate(symbolizer, pcs, substring):
    """Prints the objdump listing of the sampled function matching
    `substring` with the most samples, a sample count per instruction."""
    per_function = collections.Counter()
    per_address = collections.Counter()
    for pc in pcs:
        path, addr, symbol = symbolizer.locate(pc)
        if symbol is not None and substring in short_name(symbol[2]):
            per_function[(path, symbol)] += 1
            per_address[(path, addr)] += 1
    if not per_function:
        print(f"no samples in a function matching '{substring}'")
        return 1
    (path, (start, size, name)), n = min(
        per_function.items(), key=lambda x: (-x[1], x[0]))
    print(f"{n} samples in {name}")
    listing = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn",
         f"--start-address={start:#x}", f"--stop-address={start + size:#x}",
         path], capture_output=True, text=True).stdout
    for line in listing.splitlines():
        match = INSTRUCTION.match(line)
        if match:
            count = per_address[(path, int(match.group(1), 16))]
            print(f"{count:7d}  {line}")
        elif line.startswith(f"{start:016x} <"):
            print(line)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--annotate", metavar="SUBSTRING")
    args = parser.parse_args()

    pcs, maps = read_profile(args.profile)
    symbolizer = Symbolizer(maps)
    if args.annotate is not None:
        return annotate(symbolizer, pcs, args.annotate)
    counts = collections.Counter(symbolizer.name(pc) for pc in pcs)
    excluded = sum(n for name, n in counts.items() if EXCLUDED in name)
    total = len(pcs) - excluded
    print(f"{total} samples ({excluded} in {EXCLUDED} left out)")
    if total == 0:
        return 1
    kept = [(n, name) for name, n in counts.items() if EXCLUDED not in name]
    for n, name in sorted(kept, key=lambda x: (-x[0], x[1]))[:ROWS]:
        print(f"{100.0 * n / total:6.2f} %  {n:7d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
