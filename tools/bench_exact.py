#!/usr/bin/env python3
"""Exact gate for the deterministic (virtual-time) bench exports.

usage: bench_exact.py BASELINE.json CURRENT.json [SECTION ...] [--claims-only]

Compares the named top-level sections of two servescope-telemetry-v1 files
for exact equality; with no SECTION, every section of either file. With
--claims-only, "checks" is compared on each entry's (claim, pass) only, for
exports whose check details quote wall-clock measurements. Exits 1 and names
the drifted sections on any difference.
"""
import json
import sys


def main(argv):
    claims_only = "--claims-only" in argv
    args = [a for a in argv if a != "--claims-only"]
    if len(args) < 2:
        sys.exit(__doc__)
    base, cur = (json.load(open(path)) for path in args[:2])
    sections = args[2:] or sorted(set(base) | set(cur))

    def view(doc, key):
        value = doc.get(key)
        if key == "checks" and claims_only and value is not None:
            return [(c["claim"], c["pass"]) for c in value]
        return value

    drift = [k for k in sections if view(base, k) != view(cur, k)]
    if drift:
        sys.exit(f"{args[1]} drifted from {args[0]}: sections {drift}")
    print(f"{args[1]}: {len(sections)} section(s) match {args[0]} exactly")


if __name__ == "__main__":
    main(sys.argv[1:])
