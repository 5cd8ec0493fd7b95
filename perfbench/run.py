"""The repository benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sync-saturate-n128 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end metrics;
``--trace 1`` runs it with spans around every layer's entry points and
reports the per-layer metrics.  Both check every delivered output against a
plain replay and print one metric per line (name, value, unit) followed by
a final JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--write-manifest`` regenerates ``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
RUN_SECONDS = 30
#: Set-ups per untraced run (this process plus fresh probe processes).
SETUP_SAMPLES = 3
#: Traced-vs-untraced replay pairs behind ``trace.overhead``.
REPLAY_PAIRS = 3

clock = time.perf_counter

# (name, unit, better, bound)
END_TO_END = (
    ("cmds_per_s", "cmd/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("executed_share", "ratio", "higher", 0.05),
    ("paper_lambda", "cmd/op", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("service.plan_s", "s", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.fill_ratio", "ratio", "higher"),
    ("service.rounds_per_drive", "count", "higher"),
    ("service.throttled", "count", "lower"),
    ("service.retried_commands", "count", "lower"),
    ("service.exhausted_tickets", "count", "lower"),
    ("faults.self_s", "s", "lower"),
    ("faults.applied_events", "count", "higher"),
    ("faults.dropped_messages", "count", "higher"),
    ("consensus.decide_s_per_round", "s", "lower"),
    ("consensus.share", "ratio", "lower"),
    ("consensus.msgs_per_cmd", "count", "lower"),
    ("consensus.view_changes", "count", "lower"),
    ("consensus.slow_path_rounds", "count", "lower"),
    ("consensus.rejected_signatures", "count", "lower"),
    ("net.sign_s", "s", "lower"),
    ("net.verify_s", "s", "lower"),
    ("net.sign_calls", "count", "lower"),
    ("net.verify_calls", "count", "lower"),
    ("execution.execute_s_per_round", "s", "lower"),
    ("execution.ops_per_node_per_round", "count", "lower"),
    ("execution.failed_rounds", "count", "lower"),
    ("lcc.encode_s", "s", "lower"),
    ("lcc.decode_s", "s", "lower"),
    ("intermix.encode_s", "s", "lower"),
    ("intermix.decode_s", "s", "lower"),
    ("intermix.update_s", "s", "lower"),
    ("intermix.worker_ops_per_round", "count", "lower"),
    ("intermix.max_non_worker_ops_per_round", "count", "lower"),
    ("intermix.fraud_rounds", "count", "lower"),
    ("machine.step_batch_s", "s", "lower"),
    ("gf.matmul_s", "s", "lower"),
    ("gf.matmul_calls", "count", "lower"),
    ("gen_late_p99_ms", "ms", "lower"),
    ("trace.rounds", "count", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def manifest(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; ``inf`` marks a command that missed every limit."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def setup(workload, seed: int, seconds: float):
    """Backend and service construction plus warm-up, timed."""
    start = clock()
    loop = workload.build(seed, seconds)
    loop.warm_up()
    return loop, clock() - start


def probe_setup(workload, seed: int, seconds: float) -> float:
    """Set-up time measured in a fresh process (cold process-global caches)."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds),
        ],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def trace_overhead(workload, seed: int, seconds: float, Tracer) -> float:
    """Median traced/untraced wall ratio over replays of the same drives."""
    ratios = []
    for _ in range(REPLAY_PAIRS):
        walls = []
        for traced in (False, True):
            loop = workload.build(seed, seconds)
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install(loop)
            start = clock()
            loop.replay()
            walls.append(clock() - start)
            if tracer is not None:
                tracer.uninstall()
        ratios.append(walls[1] / walls[0])
    return statistics.median(ratios)


def end_to_end(loop, latencies, setup_s: float) -> dict[str, float]:
    """End-to-end metrics; timings are medians over the measurement windows."""
    from repro.service import TicketState

    executed_at = Counter(
        ticket.resolved_tick
        for ticket in loop.service.tickets()
        if ticket.state is TicketState.EXECUTED
    )
    rates, p50s, p99s = [], [], []
    for ticks, start, end in loop.windows:
        rates.append(sum(executed_at[tick] for tick in ticks) / (end - start))
        window = [
            latency
            for latency, (_, submitted) in zip(latencies, loop.samples)
            if start <= submitted < end
        ]
        p50s.append(percentile(window, 50))
        p99s.append(percentile(window, 99))
    print("windows: " + " ".join(
        f"[{rate:.1f} cmd/s, p50 {p50:.1f} ms, p99 {p99:.1f} ms]"
        for rate, p50, p99 in zip(rates, p50s, p99s)
    ))
    return {
        "cmds_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50s),
        "latency_p99_ms": statistics.median(p99s),
        "executed_share": sum(1 for v in latencies if v != math.inf) / len(latencies),
        "paper_lambda": loop.counters["paper_lambda"],
        "setup_s": setup_s,
        "peak_rss_mb": loop.peak_rss_mb,
    }


def per_layer(loop, tracer, before: dict, after: dict) -> dict[str, float]:
    """Per-layer metrics over the timed phase, from its spans and counters."""
    from checks import fill_ratio, timed_rounds
    from repro.service import TicketState

    duration, self_time, calls = tracer.totals()
    rounds = timed_rounds(loop)
    count = max(len(rounds), 1)
    ticks = {tick for window, _, _ in loop.windows for tick in window}
    executed = sum(
        1
        for ticket in loop.service.tickets()
        if ticket.state is TicketState.EXECUTED and ticket.resolved_tick in ticks
    )
    waits = [
        (loop.drive_start[ticket.committed_tick] - start) * 1000
        for ticket, start in loop.samples
        if ticket.state is TicketState.EXECUTED
    ]
    diagnostics = [r.result.diagnostics for r in rounds]
    worker_ops = [
        r.result.ops_per_node.get(d["worker"], 0)
        for r, d in zip(rounds, diagnostics)
        if "worker" in d
    ]
    faults = loop.service.fault_report()
    return {
        "service.plan_s": duration["service.plan"],
        "service.self_s": self_time["service.drive"],
        "service.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "service.fill_ratio": fill_ratio(loop),
        "service.rounds_per_drive": len(rounds) / max(len(ticks), 1),
        "service.throttled": sum(
            1 for t, _ in loop.samples if t.state is TicketState.THROTTLED
        ),
        "service.retried_commands": loop.service.retried_commands,
        "service.exhausted_tickets": loop.service.exhausted_tickets,
        "faults.self_s": self_time["faults.run"],
        "faults.applied_events": faults.applied_events,
        "faults.dropped_messages": faults.dropped_messages,
        "consensus.decide_s_per_round": duration["consensus.decide_rounds"] / count,
        "consensus.share": duration["consensus.decide_rounds"]
        / max(duration["service.drive"], 1e-12),
        "consensus.msgs_per_cmd": (after["messages"] - before["messages"]) / max(executed, 1),
        "consensus.view_changes": sum(1 for r in rounds if r.consensus_views > 0),
        "consensus.slow_path_rounds": after["slow_path_rounds"] - before["slow_path_rounds"],
        "consensus.rejected_signatures": after["rejected_signatures"]
        - before["rejected_signatures"],
        "net.sign_s": tracer.outermost({"net.sign", "net.sign_batch"}),
        "net.verify_s": tracer.outermost({"net.verify", "net.verify_batch"}),
        "net.sign_calls": calls["net.sign"] + calls["net.sign_batch"],
        "net.verify_calls": calls["net.verify"] + calls["net.verify_batch"],
        "execution.execute_s_per_round": tracer.outermost(
            {"execution.execute_rounds", "execution.execute_rounds_pipelined"}
        )
        / count,
        "execution.ops_per_node_per_round": statistics.fmean(
            sum(r.result.ops_per_node.values()) / max(len(r.result.ops_per_node), 1)
            for r in rounds
        )
        if rounds
        else 0.0,
        "execution.failed_rounds": sum(1 for r in rounds if not r.correct),
        "lcc.encode_s": duration["lcc.encode_batch"],
        "lcc.decode_s": tracer.outermost({"lcc.decode_fast", "lcc.decode_batch"}),
        "intermix.encode_s": duration["intermix.encode"],
        "intermix.decode_s": duration["intermix.decode"],
        "intermix.update_s": duration["intermix.update"],
        "intermix.worker_ops_per_round": statistics.fmean(worker_ops) if worker_ops else 0.0,
        "intermix.max_non_worker_ops_per_round": max(
            (d.get("max_non_worker_operations", 0) for d in diagnostics), default=0
        ),
        "intermix.fraud_rounds": sum(1 for d in diagnostics if d.get("confirmed_fraud")),
        "machine.step_batch_s": tracer.outermost({"machine.step_batch"}),
        "gf.matmul_s": tracer.outermost({"gf.matmul"}),
        "gf.matmul_calls": calls["gf.matmul"],
        "gen_late_p99_ms": percentile(loop.gen_late, 99) * 1000 if loop.gen_late else 0.0,
        "trace.rounds": len(rounds),
    }


def ticket_table(loop) -> list[dict]:
    return [
        {
            "cmd": ticket.sequence,
            "client": ticket.client_id,
            "state": ticket.state.value,
            "attempts": ticket.attempts,
            "submitted_tick": ticket.submitted_tick,
            "committed_tick": ticket.committed_tick,
            "resolved_tick": ticket.resolved_tick,
            "start": start,
        }
        for ticket, start in loop.samples
    ]


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    from checks import check_outputs, fingerprint
    from repro.service import TicketState
    from tracing import Tracer

    loop, setup_s = setup(workload, seed, seconds)
    tracer = Tracer() if trace else None
    before = fingerprint(loop)
    if tracer is not None:
        tracer.install(loop)

    def snapshot() -> None:
        loop.counters = fingerprint(loop)
        # Peak memory at the same fixed-work point: how many closed-loop
        # cycles fit in the run depends on the machine's speed.
        loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    loop.run_timed(seconds, snapshot)
    if tracer is not None:
        tracer.uninstall()
    timed = fingerprint(loop)
    loop.finish()

    final = fingerprint(loop)
    errors = check_outputs(loop)
    workload.guard(loop, final)
    latencies = [
        (loop.drive_end[ticket.resolved_tick] - start) * 1000
        if ticket.state is TicketState.EXECUTED
        else math.inf
        for ticket, start in loop.samples
    ]
    print("fingerprint " + json.dumps(loop.counters, sort_keys=True))
    if tracer is None:
        probes = [probe_setup(workload, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(loop, latencies, statistics.median([setup_s, *probes]))
        table = END_TO_END
    else:
        metrics = per_layer(loop, tracer, before, timed)
        tracer.write(HERE / "out" / f"{workload.name}-seed{seed}.jsonl", ticket_table(loop))
        metrics["trace.overhead"] = trace_overhead(workload, seed, seconds, Tracer)
        table = PER_LAYER
    for error in errors[:10]:
        print(f"output mismatch: {error}")
    print(f"latency samples = {len(latencies)}")
    units = {row[0]: row[1] for row in table}
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    failed = sum(1 for v in latencies if v == math.inf)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(latencies),
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(WORKLOADS), indent=2) + "\n")
        return 0
    by_name = {w.name: w for w in WORKLOADS}
    if args.workload not in by_name:
        parser.error(f"--workload must be one of {sorted(by_name)}")
    workload = by_name[args.workload]
    if args.setup_probe:
        _, setup_s = setup(workload, args.seed, args.seconds)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    return run(workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
