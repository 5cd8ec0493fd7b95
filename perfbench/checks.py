"""Output check, deterministic fingerprint and exercise guards."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.service import NOOP_CLIENT, TicketState


class GuardError(RuntimeError):
    """The workload did not exercise the mechanism it was chosen for."""


def check_outputs(loop) -> list[str]:
    """Replay verified rounds on plain states and compare every EXECUTED ticket.

    Each machine's state advances through :meth:`StateMachine.step` over the
    verified rounds only: with retry (or a fault plane) a failed round is
    frozen and leaves state unadvanced.  Returns the mismatches found.
    """
    backend, service = loop.backend, loop.service
    machine = backend.machine
    states = [machine.initial_state for _ in range(backend.num_machines)]
    expected: dict[tuple[int, int], np.ndarray] = {}
    for record in backend.history:
        if not record.correct:
            continue
        for k in range(backend.num_machines):
            states[k], output = machine.step(states[k], record.commands[k])
            expected[(record.round_index, k)] = output
    errors = []
    for ticket in service.tickets():
        if ticket.state is not TicketState.EXECUTED:
            continue
        want = expected.get((ticket.round_index, ticket.machine_index))
        if want is None:
            errors.append(f"ticket {ticket.sequence} executed from unverified round")
        elif not np.array_equal(np.asarray(ticket.output, dtype=np.int64), want):
            errors.append(
                f"ticket {ticket.sequence} output {ticket.output} != replay {want}"
            )
    return errors


def fingerprint(loop) -> dict[str, object]:
    """Exact counters of the run so far; a pure function of the seed."""
    backend, service = loop.backend, loop.service
    history = backend.history
    network = getattr(backend, "network", None)
    digest = hashlib.sha256()
    for record in history:
        digest.update(np.asarray(record.commands, dtype=np.int64).tobytes())
        digest.update(np.asarray(record.result.outputs, dtype=np.int64).tobytes())
        digest.update(bytes([record.correct]))
    return {
        "rounds": len(history),
        "messages": 0 if network is None else network.messages_sent,
        "rejected_signatures": 0 if network is None else network.rejected_signatures,
        "dropped_messages": service.fault_report().dropped_messages,
        "view_changes": sum(1 for r in history if r.consensus_views > 0),
        "slow_path_rounds": backend.consensus_fast_path_disabled,
        "failed_rounds": backend.failed_rounds,
        "retried_commands": service.retried_commands,
        "ops": sum(sum(r.result.ops_per_node.values()) for r in history),
        "paper_lambda": backend.measured_throughput(),
        "history_sha256": digest.hexdigest(),
    }


def timed_rounds(loop):
    return loop.backend.history[loop.timed_first_round : loop.timed_last_round]


def fill_ratio(loop) -> float:
    rounds = timed_rounds(loop)
    slots = sum(len(r.clients) for r in rounds)
    real = sum(1 for r in rounds for c in r.clients if c != NOOP_CLIENT)
    return real / slots if slots else 0.0


def _raise(name: str, problems: list[str]) -> None:
    if problems:
        raise GuardError(f"{name} did not exercise its mechanism: " + "; ".join(problems))


def guard_sync_saturate(loop, counters: dict) -> None:
    """Consensus stays on the fast path and every round is full."""
    problems = []
    if counters["slow_path_rounds"] != 0:
        problems.append(f"{counters['slow_path_rounds']} slow-path rounds")
    if fill_ratio(loop) != 1.0:
        problems.append(f"fill ratio {fill_ratio(loop)} is not 1")
    _raise("sync-saturate-n128", problems)


def guard_psync_open(loop, counters: dict) -> None:
    """View changes, failed rounds whose retries all execute, slow-path rounds."""
    problems = []
    if counters["view_changes"] == 0:
        problems.append("no view change")
    if counters["failed_rounds"] == 0:
        problems.append("no failed round")
    if counters["slow_path_rounds"] == 0:
        problems.append("no slow-path round")
    pending = loop.service.fault_report().pending_events
    if pending:
        problems.append(f"{pending} fault events never fired")
    retried = [t for t in loop.service.tickets() if t.attempts > 1]
    if not retried:
        problems.append("no retried ticket")
    if any(t.state is not TicketState.EXECUTED for t in retried):
        problems.append("a retried ticket did not execute")
    _raise("psync-open-faults-n64", problems)


def guard_delegated_saturate(loop, counters: dict) -> None:
    """No network messages and no fraud rounds."""
    problems = []
    if counters["messages"] != 0:
        problems.append(f"{counters['messages']} network messages")
    fraud = sum(
        1 for r in loop.backend.history if r.result.diagnostics.get("confirmed_fraud")
    )
    if fraud:
        problems.append(f"{fraud} fraud rounds")
    _raise("delegated-saturate-n128", problems)
