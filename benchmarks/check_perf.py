"""CI perf-regression gate over the ATPG engine benchmark record.

Compares a freshly produced ``BENCH_atpg.json`` (see
``bench_atpg_engine.py`` / ``common.record_bench``) against the
committed baseline::

    python benchmarks/check_perf.py BENCH_atpg.json BENCH_atpg_current.json

Two kinds of checks, per benchmark label:

* **Exact** — ``patterns``, ``fault_coverage`` and ``gates`` must match
  the baseline bit-for-bit.  The engine is deterministic; any drift
  here is a correctness regression, not noise.
* **Throughput band** — ``patterns_per_second`` and
  ``faults_simulated_per_second`` must stay above ``--min-ratio``
  (default 0.5) of the baseline.  The wide band absorbs the machine
  difference between the baseline host and CI runners plus scheduler
  jitter; it exists to catch algorithmic regressions (a kernel going
  quadratic), not percent-level noise.
* **Phase band** — the per-phase wall times (``random_seconds``,
  ``podem_seconds``, ``verify_seconds``) must stay *below*
  ``1/min-ratio`` times the baseline (lower is better, same tolerance
  band inverted).  A failure names the phase and its delta, so a
  regression points at the guilty engine phase instead of a bare
  end-to-end slowdown.  Baselines recorded before the phase fields
  existed simply skip these checks.

Exit status is non-zero on any violation, with one line per failure —
each names the benchmark label, the metric, both values, and which
check (determinism vs throughput band) tripped.

``--update-baseline`` rewrites the baseline file in place from the
current record (after printing what moved), for ratcheting committed
numbers from a trusted machine::

    python benchmarks/check_perf.py BENCH_atpg.json BENCH_atpg_current.json \
        --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

EXACT_KEYS = ("patterns", "fault_coverage", "gates")
THROUGHPUT_KEYS = ("patterns_per_second", "faults_simulated_per_second")
PHASE_KEYS = ("random_seconds", "podem_seconds", "verify_seconds")


def compare(baseline: dict, current: dict, min_ratio: float) -> List[str]:
    """All violations of ``current`` against ``baseline``, as messages."""
    problems: List[str] = []
    for label, base_entry in sorted(baseline.items()):
        entry = current.get(label)
        if entry is None:
            problems.append(f"{label}: missing from current record")
            continue
        for key in EXACT_KEYS:
            if key in base_entry and entry.get(key) != base_entry[key]:
                problems.append(
                    f"{label}.{key}: expected {base_entry[key]!r} exactly, "
                    f"got {entry.get(key)!r} (determinism regression)"
                )
        for key in THROUGHPUT_KEYS:
            if key not in base_entry:
                continue
            floor = min_ratio * base_entry[key]
            value = entry.get(key, 0.0)
            if value < floor:
                problems.append(
                    f"{label}.{key}: {value:.1f} is below {floor:.1f} "
                    f"({min_ratio:.0%} of baseline {base_entry[key]:.1f})"
                )
        for key in PHASE_KEYS:
            # Wall seconds: lower is better, so the tolerance band is
            # the throughput band inverted.  Entries missing the field
            # on either side (pre-phase baselines, reduced records)
            # skip the check rather than fail it.
            base_value = base_entry.get(key)
            value = entry.get(key)
            if base_value is None or value is None or base_value <= 0:
                continue
            ceiling = base_value / min_ratio
            if value > ceiling:
                problems.append(
                    f"{label}.{key}: {value:.3f}s is {value / base_value:.1f}x "
                    f"the baseline {base_value:.3f}s (ceiling {ceiling:.3f}s "
                    f"at min-ratio {min_ratio}) — the "
                    f"{key.replace('_seconds', '')} phase regressed"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument(
        "--min-ratio", type=float, default=0.5, metavar="R",
        help="throughput floor as a fraction of baseline (default: 0.5)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file in place from the current "
             "record (prints every metric that moved; skips the gate)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)
    if args.update_baseline:
        for label in sorted(set(baseline) | set(current)):
            before, after = baseline.get(label), current.get(label)
            if before == after:
                continue
            if after is None:
                print(f"update: {label} kept (not in current record)")
                continue
            for key in sorted(set(before or {}) | set(after)):
                old_value = (before or {}).get(key)
                if old_value != after.get(key):
                    print(f"update: {label}.{key}: "
                          f"{old_value!r} -> {after.get(key)!r}")
        merged = dict(baseline)
        merged.update(current)
        with open(args.baseline, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline {args.baseline} updated "
              f"({len(current)} labels from {args.current})")
        return 0
    problems = compare(baseline, current, args.min_ratio)
    for problem in problems:
        print(f"PERF GATE: {problem}", file=sys.stderr)
    if problems:
        return 1
    labels = ", ".join(sorted(baseline))
    print(f"perf gate OK ({labels}; min-ratio {args.min_ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
