"""Gate engine throughput against a committed benchmark baseline.

Compares a freshly generated ``BENCH_engine.json`` (typically from
``benchmarks/bench_engine.py --smoke`` in CI) against the baseline file
committed at the repo root.  Cases are matched on
``(workload, backend, n)`` and the ``"count"`` and ``"agent"`` entries
are gated — they carry the engine's performance claims across every
workload (including the ``igt-observed`` / ``igt-action`` count cases,
the ``igt-weighted`` heterogeneous-activity cases on both backends,
the ``igt-topology`` graph-restricted cases on both backends, and
the ``logit`` / ``imitation`` generic-model cases); seed-loop and
per-step entries are baselines by construction, and ``auto`` rows
duplicate whichever gated case the dispatcher resolved to.  A case fails when its throughput drops below
``baseline / factor``; the default factor 2 absorbs the gap between CI
runners and the machine that committed the baseline while still
catching real regressions (the work this guards delivered 5x-600x).

Usage::

    python scripts/check_bench_regression.py CURRENT BASELINE [--factor F]

Exits 1 on any regression (or when the files share no comparable cases,
which would make the gate vacuous).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

GATED_BACKENDS = ("agent", "count")

#: Cases that must be present in BOTH files for the gate to pass at all
#: — the headline performance claims whose silent disappearance from
#: either matrix would otherwise un-gate them.  The weighted pair sits
#: at the proxy ceiling (n = 10^6), the largest size the smoke matrix
#: measures; the topology pair sits at n = 10^5, the largest size its
#: smoke matrix shares with the full run.
REQUIRED_CASES = (
    ("igt-weighted", "agent", 1_000_000),
    ("igt-weighted", "count", 1_000_000),
    ("igt-topology", "agent", 100_000),
    ("igt-topology", "count", 100_000),
)


def load_cases(path: pathlib.Path) -> dict:
    """Map ``(workload, backend, n) -> interactions_per_sec`` of a file."""
    payload = json.loads(path.read_text())
    return {
        (case["workload"], case["backend"], case["n"]): case[
            "interactions_per_sec"
        ]
        for case in payload["cases"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="allowed slowdown factor before failing (default 2.0)",
    )
    args = parser.parse_args(argv)

    current = load_cases(args.current)
    baseline = load_cases(args.baseline)
    compared = 0
    regressions = 0
    for key in sorted(current):
        workload, backend, n = key
        if backend not in GATED_BACKENDS or key not in baseline:
            continue
        compared += 1
        floor = baseline[key] / args.factor
        verdict = "ok"
        if current[key] < floor:
            verdict = f"REGRESSION (floor {floor:,.0f}/s)"
            regressions += 1
        print(
            f"{workload:>14} {backend:>8} n={n:<10} "
            f"baseline {baseline[key]:>12,}/s  current "
            f"{current[key]:>12,}/s  {verdict}"
        )
    if compared == 0:
        print("no comparable gated cases; the gate would be vacuous")
        return 1
    missing = [key for key in REQUIRED_CASES
               if key not in current or key not in baseline]
    if missing:
        for workload, backend, n in missing:
            print(f"required case missing: {workload}/{backend} n={n}")
        return 1
    if regressions:
        print(f"{regressions}/{compared} gated case(s) regressed")
        return 1
    print(f"all {compared} gated case(s) within {args.factor}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
