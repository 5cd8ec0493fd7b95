#!/usr/bin/env python
"""CI regression gate for the ``BENCH_*.json`` perf artifacts.

Compares a freshly generated artifact against the committed baseline at the
repository root and fails (exit 1) when a tracked metric regresses by more
than the tolerance (default 15%).

Every artifact declares what it gates under a top-level ``"gate"`` key —
``{"deterministic_modes": [...], "wall_clock_modes": [...],
"ratio_metrics": [[key, "min"|"max"], ...]}`` — and an artifact without
one is an error.  The *baseline's* block is authoritative, so a current
artifact cannot un-gate a metric: a gated mode, per-N key or ratio missing
from the current artifact fails the gate.  Two classes of metric are gated
differently:

* **Deterministic modes** (e.g. the paper metric, commands per unit
  per-node field operation): pure functions of the configuration, so they
  are compared *raw* across machines and must not drop beyond tolerance.
* **Wall-clock modes** (commands/sec, decisions/sec): machine-dependent, so
  by default only the *self-normalised* ratio metrics recorded inside each
  artifact are compared — ``"min"`` ratios must not shrink beyond
  tolerance, ``"max"`` ratios must not grow beyond it.  Pass ``--raw`` to
  additionally gate the absolute rates when both artifacts were produced on
  the same machine.

Usage::

    python benchmarks/check_throughput_regression.py CURRENT.json \
        [--baseline BENCH_throughput.json] [--tolerance 0.15] [--raw]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATE_KEYS = ("deterministic_modes", "wall_clock_modes", "ratio_metrics")


def _compare_value(name, baseline, current, tolerance, direction, failures):
    if baseline is None:
        failures.append(f"{name}: gated by the baseline but has no baseline value")
        return
    if current is None:
        failures.append(f"{name}: gated by the baseline but missing from the current artifact")
        return
    baseline = float(baseline)
    current = float(current)
    if baseline <= 0:
        return
    if direction == "min" and current < baseline * (1.0 - tolerance):
        failures.append(
            f"{name}: {current:.4g} fell more than {tolerance:.0%} below "
            f"baseline {baseline:.4g}"
        )
    elif direction == "max" and current > baseline * (1.0 + tolerance):
        failures.append(
            f"{name}: {current:.4g} rose more than {tolerance:.0%} above "
            f"baseline {baseline:.4g}"
        )


def gate_config(artifact: dict) -> tuple[tuple, tuple, tuple]:
    """The (deterministic, wall-clock, ratio) gate lists an artifact declares.

    Raises ``ValueError`` when the artifact carries no complete ``"gate"``
    block: an undeclared gate would silently check nothing.
    """
    gate = artifact.get("gate")
    name = artifact.get("artifact", "artifact")
    if not isinstance(gate, dict):
        raise ValueError(f"{name} has no 'gate' block declaring its gated metrics")
    missing = [key for key in GATE_KEYS if key not in gate]
    if missing:
        raise ValueError(f"{name} gate block lacks {', '.join(missing)}")
    return (
        tuple(gate["deterministic_modes"]),
        tuple(gate["wall_clock_modes"]),
        tuple((str(key), str(direction)) for key, direction in gate["ratio_metrics"]),
    )


def compare(baseline: dict, current: dict, tolerance: float, raw: bool) -> list[str]:
    """Return the list of regression messages (empty when the gate passes)."""
    failures: list[str] = []
    # The *baseline* declares what is gated: a current artifact cannot
    # un-gate a metric by dropping it from its own metadata.
    deterministic, wall_clock, ratios = gate_config(baseline)
    modes = deterministic + (wall_clock if raw else ())
    for mode in modes:
        base_mode = baseline.get("modes", {}).get(mode)
        if not base_mode:
            failures.append(f"modes[{mode}]: gated but absent from the baseline")
            continue
        cur_mode = current.get("modes", {}).get(mode)
        if cur_mode is None:
            failures.append(f"modes[{mode}]: gated but missing from the current artifact")
            continue
        for key, base_value in base_mode.items():
            _compare_value(
                f"modes[{mode}][{key}]",
                base_value,
                cur_mode.get(key),
                tolerance,
                "min",
                failures,
            )
    for key, direction in ratios:
        _compare_value(
            key, baseline.get(key), current.get(key), tolerance, direction, failures
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated BENCH_throughput.json")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_throughput.json"),
        help="committed baseline artifact (default: repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression before the gate fails (default 0.15)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help=(
            "also gate the machine-dependent wall-clock rates (only meaningful "
            "when baseline and current ran on the same machine)"
        ),
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    name = baseline.get("artifact", "throughput")
    try:
        deterministic, wall_clock, ratios = gate_config(baseline)
    except ValueError as exc:
        print(f"{name} REGRESSION GATE MISCONFIGURED: {exc}")
        return 1
    failures = compare(baseline, current, args.tolerance, args.raw)
    if failures:
        print(f"{name} REGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    checked = len(deterministic) + len(ratios) + (
        len(wall_clock) if args.raw else 0
    )
    print(
        f"{name} gate passed: {checked} metric groups within "
        f"{args.tolerance:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
