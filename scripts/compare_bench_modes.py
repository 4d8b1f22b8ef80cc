#!/usr/bin/env python3
"""Diffs the work-class counters of two or more bench JSON sidecars.

Usage: compare_bench_modes.py [--require-nonzero COUNTER ...]
           REFERENCE.json OTHER.json [OTHER2.json ...]

Each input is the JSONL sidecar a bench binary writes (one object per case:
name, real_ms, counters, classes). "classes" gives the declared
CounterClass of each counter (src/core/counters.h, plus the bench-local
work products in bench/bench_util.h): "work" counters are byte-identical
across join mode, thread count and the solver fast path, so for every case
present in both files each counter classed "work" must match bit-for-bit.
"strategy" and "thread" counters, and undeclared ones, are not compared.
The first file is the reference; every other file is diffed against it.
Exits non-zero on any mismatch, when a sidecar carries no class
information (written by an older bench binary), and when nothing
comparable was found (a silently empty comparison would defeat the check).

--require-nonzero COUNTER (repeatable) asserts the named counter is
NONZERO in at least one case of at least one sidecar — the CI gate for
"this machinery actually engaged" invariants like the solver fast path's
screens: they must refute something on a solver-bound workload, or the
whole tier is dead code. A counter that never appears fails too: a
filter change silently dropping the guarded cases would otherwise defeat
the gate.
"""

import json
import sys


def load(path):
    cases = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            name = obj["name"]
            # Manually-timed cases carry a reporting suffix; strip it so
            # the trailing mode arg stays comparable (".../0" vs ".../1").
            if name.endswith("/manual_time"):
                name = name[: -len("/manual_time")]
            if "classes" not in obj:
                sys.exit(
                    f"{path}: case {name!r} carries no counter classes —"
                    " rebuild the bench binary that wrote it"
                )
            cases[name] = (obj.get("counters", {}), obj["classes"])
    return cases


def diff(failures, label, a, b):
    (a_counters, a_classes), (b_counters, _) = a, b
    compared = 0
    for key in sorted(a_counters):
        if a_classes.get(key) == "work" and key in b_counters:
            compared += 1
            if a_counters[key] != b_counters[key]:
                failures.append(
                    f"{label}: {key} {a_counters[key]} != {b_counters[key]}"
                )
    return compared


def main():
    argv = sys.argv[1:]
    require_nonzero = []
    paths = []
    i = 0
    while i < len(argv):
        if argv[i] == "--require-nonzero":
            if i + 1 >= len(argv):
                sys.exit("--require-nonzero needs a counter name")
            require_nonzero.append(argv[i + 1])
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) < 2:
        sys.exit(__doc__)
    reference_path = paths[0]
    reference = load(reference_path)
    others = [(path, load(path)) for path in paths[1:]]
    compared = 0
    failures = []
    # Env-driven cases: same name across the reference and each other file.
    for path, cases in others:
        for name in sorted(set(reference) & set(cases)):
            compared += diff(
                failures, f"{name} [{reference_path} vs {path}]",
                reference[name], cases[name]
            )
    # Mode-paired cases pin their mode via a trailing arg and ignore the
    # environment, so the cross-file diff above compares them against
    # themselves; compare .../0 (naive join, or one thread for the
    # thread-paired cases) against .../1 WITHIN each file instead.
    for path, cases in [(reference_path, reference)] + others:
        for name in sorted(cases):
            if not name.endswith("/0"):
                continue
            twin = name[:-2] + "/1"
            if twin in cases:
                compared += diff(
                    failures, f"{name} vs {twin} [{path}]",
                    cases[name], cases[twin]
                )
    # The nonzero gates: the counter must appear AND fire somewhere.
    for counter in require_nonzero:
        seen = 0
        fired = 0
        for path, cases in [(reference_path, reference)] + others:
            for name in sorted(cases):
                counters, _ = cases[name]
                if counter in counters:
                    seen += 1
                    if counters[counter] != 0:
                        fired += 1
        if seen == 0:
            failures.append(
                f"required-nonzero counter {counter!r} never appeared in"
                " any sidecar — check the bench filters"
            )
        elif fired == 0:
            failures.append(
                f"required-nonzero counter {counter!r} is zero in all"
                f" {seen} cases reporting it — the guarded machinery never"
                " engaged"
            )
        compared += seen
    if failures:
        print("mode counter mismatches:")
        print("\n".join(failures))
        sys.exit(1)
    if compared == 0:
        print("no comparable counters found — check the bench filters")
        sys.exit(1)
    print(f"OK: {compared} counters identical across modes")


if __name__ == "__main__":
    main()
