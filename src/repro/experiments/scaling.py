"""Experiment: the Theorem 1 / Theorem 2 scaling laws and the throughput figure.

Two sweeps are produced:

* ``scaling_law_rows`` — for increasing ``N`` (at fixed ``mu`` and ``d``),
  the largest ``K`` that actually decodes under injected faults, side by side
  with the closed-form ``floor((1 - 2mu) N / d + 1 - 1/d)``; the security
  ``beta = mu N``; and partial replication's collapsed security ``N / (2K)``.
  This is the executable content of Table 1's scaling claims and of Figure 2.
* ``throughput_rows`` — measured per-node field operations per round for CSM
  with and without delegated coding, against the ``N log^2 N log log N``
  model curve (the Section 6.3 claim behind
  ``lambda = Theta(N / log^2 N log log N)``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.complexity import quasilinear_coding_cost
from repro.analysis.measurement import measure_csm, wall_clock
from repro.analysis.metrics import csm_supported_machines
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.core.protocol import CSMProtocol
from repro.experiments.report import consensus_diagnostics, format_table
from repro.gf.prime_field import PrimeField
from repro.intermix.delegation import DelegatedCodingService
from repro.lcc.scheme import LagrangeScheme
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior
from repro.rng import default_stream


def scaling_law_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24, 32, 48),
    fault_fraction: float = 0.25,
    degree: int = 1,
    seed: int = 0,
) -> list[dict]:
    """Measured max K and security versus the Theorem 1 formulas."""
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rows = []
    for num_nodes in network_sizes:
        num_faults = int(fault_fraction * num_nodes)
        formula_k = csm_supported_machines(num_nodes, fault_fraction, degree)
        # Find the largest K that actually decodes with num_faults garbage nodes.
        measured_k = 0
        for k in range(1, num_nodes + 1):
            bound = (num_nodes - degree * (k - 1) - 1) // 2
            if bound < num_faults:
                break
            outcome = measure_csm(
                machine, num_nodes, k, num_faults, rounds=1, seed=seed
            )
            if outcome.all_correct:
                measured_k = k
        rows.append(
            {
                "N": num_nodes,
                "b=muN": num_faults,
                "K_formula": formula_k,
                "K_measured": measured_k,
                "csm_security": num_faults,
                "partial_replication_security": (num_nodes // max(formula_k, 1) - 1) // 2,
                "full_replication_storage": 1,
                "csm_storage": measured_k,
            }
        )
    return rows


def throughput_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24, 32),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 1,
    batched: bool = True,
) -> list[dict]:
    """Per-node execution-phase cost: distributed coding vs delegated coding.

    ``batched`` selects the cached-matrix ``execute_rounds`` pipeline (the
    production path); ``batched=False`` measures the scalar round-by-round
    protocol for comparison.  Outputs are bit-identical either way — only the
    operation counts (encode/decode amortisation) differ.
    """
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rng = default_stream(seed)
    rows = []
    for num_nodes in network_sizes:
        num_faults = int(fault_fraction * num_nodes)
        k = max(csm_supported_machines(num_nodes, fault_fraction, machine.degree) // 2, 1)
        config = CSMConfig(
            field=field,
            num_nodes=num_nodes,
            num_machines=k,
            degree=machine.degree,
            num_faults=num_faults,
        )
        engine = CodedExecutionEngine(config, machine, rng=default_stream(seed))
        commands = rng.integers(1, 100, size=(rounds, k, machine.command_dim))
        if batched:
            results = engine.execute_rounds(commands)
        else:
            results = [engine.execute_round(commands[b]) for b in range(rounds)]
        distributed_ops = float(np.mean([r.mean_ops_per_node for r in results]))

        scheme = LagrangeScheme(field, k, num_nodes)
        service = DelegatedCodingService(
            scheme,
            machine.degree,
            [f"node-{i}" for i in range(num_nodes)],
            fault_fraction=fault_fraction,
            rng=default_stream(seed),
        )
        coded, encode_report = service.encode_vectors_verified(commands[0])
        non_worker_ops = encode_report.max_commoner_operations
        worker_ops = encode_report.worker_operations
        rows.append(
            {
                "N": num_nodes,
                "K": k,
                "distributed_ops_per_node": distributed_ops,
                "delegated_worker_ops": worker_ops,
                "delegated_commoner_ops": non_worker_ops,
                "model_quasilinear": quasilinear_coding_cost(num_nodes),
                "throughput_distributed": k / distributed_ops if distributed_ops else float("inf"),
                "throughput_delegated_model": num_nodes
                / quasilinear_coding_cost(num_nodes)
                * k
                / max(k, 1),
            }
        )
    return rows


def pipelined_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24, 32),
    fault_fraction: float = 0.0,
    seed: int = 0,
    rounds: int = 32,
    verify_window: int = 16,
) -> list[dict]:
    """Execution-phase cost of the speculative pipeline versus the batched path.

    For each network size the *same* command stream runs twice through
    identically-built engines: mode ``"batched"`` decodes every round on the
    critical path (:meth:`CodedExecutionEngine.execute_rounds`), mode
    ``"pipelined"`` advances state speculatively and verifies per window
    (:meth:`~CodedExecutionEngine.execute_rounds_pipelined`).  Rows report
    executed commands per wall-clock second, the paper-metric throughput and
    the failure counts; ``identical`` records that the two modes produced
    bit-identical outputs/states/correctness for that size (the property the
    benchmark suite gates on).

    The default sweep is fault-free — the workload the ≥ 1.5× speedup target
    is defined on; ``fault_fraction > 0`` measures graceful degradation (the
    suspect set is learnt once, after which speculation confirms every
    window even though the faulty nodes keep erring).
    """
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rows = []
    for num_nodes in network_sizes:
        num_faults = int(fault_fraction * num_nodes)
        k = csm_supported_machines(num_nodes, max(fault_fraction, 0.2), machine.degree)
        config = CSMConfig(
            field=field,
            num_nodes=num_nodes,
            num_machines=k,
            degree=machine.degree,
            num_faults=num_faults,
        )
        node_ids = [f"node-{i}" for i in range(num_nodes)]
        behaviors = {
            node_ids[i]: RandomGarbageBehavior() for i in range(num_faults)
        }
        commands = default_stream(seed).integers(
            1, 1000, size=(rounds, k, machine.command_dim)
        )

        per_mode: dict[str, list] = {}
        timings: dict[str, float] = {}
        warmup = commands[: min(2, rounds)]
        for mode in ("batched", "pipelined"):
            # Warm the process-global matrix caches on a throwaway engine so
            # neither mode is billed the one-off construction cost.
            scratch = CodedExecutionEngine(
                config, machine, node_ids, dict(behaviors), default_stream(seed)
            )
            if mode == "pipelined":
                scratch.execute_rounds_pipelined(warmup, verify_window=verify_window)
            else:
                scratch.execute_rounds(warmup)
            engine = CodedExecutionEngine(
                config, machine, node_ids, dict(behaviors), default_stream(seed)
            )
            start = wall_clock()
            if mode == "pipelined":
                results = engine.execute_rounds_pipelined(
                    commands, verify_window=verify_window
                )
            else:
                results = engine.execute_rounds(commands)
            timings[mode] = wall_clock() - start
            per_mode[mode] = results
        identical = all(
            np.array_equal(a.outputs, b.outputs)
            and np.array_equal(a.states, b.states)
            and a.correct == b.correct
            for a, b in zip(per_mode["batched"], per_mode["pipelined"])
        )
        for mode in ("batched", "pipelined"):
            results = per_mode[mode]
            elapsed = timings[mode]
            failed = sum(1 for r in results if not r.correct)
            executed = k * (rounds - failed)
            rows.append(
                {
                    "N": num_nodes,
                    "K": k,
                    "rounds": rounds,
                    "mode": mode,
                    "commands_per_sec": executed / elapsed if elapsed else 0.0,
                    "throughput": float(
                        np.mean(
                            [
                                k / r.mean_ops_per_node
                                for r in results
                                if r.correct and r.mean_ops_per_node
                            ]
                        )
                    )
                    if any(r.correct for r in results)
                    else 0.0,
                    "failed_rounds": failed,
                    "identical": identical,
                    "wall_seconds": elapsed,
                }
            )
    return rows


def delegation_rows(
    network_sizes: tuple[int, ...] = (8, 16, 32),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 8,
    failure_probability: float = 1e-6,
) -> list[dict]:
    """Delegated-verification rounds: batched INTERMIX versus the scalar oracle.

    For each network size the *same* command stream runs twice through
    identically-seeded :class:`~repro.intermix.rounds.DelegationRoundProtocol`
    backends — mode ``"batched"`` verifies every delegated coding operation
    through :meth:`IntermixProtocol.run_batch` (one stacked matrix product
    shared by the worker and all auditors), mode ``"scalar"`` pins the
    column-at-a-time reference oracle.  Rows report delegated rounds and
    commands per wall-clock second, the paper-metric throughput, and
    ``identical`` — whether the two modes produced bit-identical
    outputs/states/operation counts (the property the benchmark suite gates
    on, alongside the batched-mode speedup).
    """
    from repro.intermix.committee import required_committee_size
    from repro.intermix.rounds import DelegationRoundProtocol

    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    committee_size = required_committee_size(fault_fraction, failure_probability)
    rows = []
    for num_nodes in network_sizes:
        k = max(num_nodes // 4, 2)
        commands = default_stream(seed).integers(
            1, 1000, size=(rounds, k, machine.command_dim)
        )
        per_mode: dict[str, DelegationRoundProtocol] = {}
        timings: dict[str, float] = {}
        for mode, batched in (("batched", True), ("scalar", False)):
            protocol = DelegationRoundProtocol(
                machine,
                k,
                [f"node-{i}" for i in range(num_nodes)],
                fault_fraction=fault_fraction,
                rng=default_stream(seed),
                failure_probability=failure_probability,
                batched=batched,
            )
            start = wall_clock()
            protocol.run_rounds_batched(list(commands))
            timings[mode] = wall_clock() - start
            per_mode[mode] = protocol
        identical = all(
            np.array_equal(a.result.outputs, b.result.outputs)
            and np.array_equal(a.result.states, b.result.states)
            and a.result.correct == b.result.correct
            and a.result.ops_per_node == b.result.ops_per_node
            for a, b in zip(per_mode["batched"].history, per_mode["scalar"].history)
        )
        for mode in ("batched", "scalar"):
            protocol = per_mode[mode]
            elapsed = timings[mode]
            failed = protocol.failed_rounds
            rows.append(
                {
                    "N": num_nodes,
                    "K": k,
                    "J": committee_size,
                    "rounds": rounds,
                    "mode": mode,
                    "rounds_per_sec": rounds / elapsed if elapsed else 0.0,
                    "commands_per_sec": k * (rounds - failed) / elapsed
                    if elapsed
                    else 0.0,
                    "throughput": protocol.measured_throughput(),
                    "failed_rounds": failed,
                    "identical": identical,
                    "wall_seconds": elapsed,
                }
            )
    return rows


def _build_protocol(
    field, machine, num_nodes, fault_fraction, seed, vectorised_consensus=True
):
    """One CSMProtocol sized for the sweep (faults on the highest node ids)."""
    num_faults = int(fault_fraction * num_nodes)
    k = max(csm_supported_machines(num_nodes, fault_fraction, machine.degree) // 2, 1)
    config = CSMConfig(
        field=field,
        num_nodes=num_nodes,
        num_machines=k,
        degree=machine.degree,
        num_faults=num_faults,
    )
    # Faults on the highest-indexed nodes keep round 0's leader honest.
    behaviors = {
        f"node-{num_nodes - 1 - i}": RandomGarbageBehavior()
        for i in range(num_faults)
    }
    return CSMProtocol(
        config,
        machine,
        behaviors,
        rng=default_stream(seed),
        vectorised_consensus=vectorised_consensus,
    )


def protocol_rows(
    network_sizes: tuple[int, ...] = (8, 12, 16),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 4,
    batched_protocol: bool = True,
    service: bool = False,
    vectorised_consensus: bool = True,
) -> list[dict]:
    """End-to-end CSMProtocol cost per network size: consensus + execution.

    Unlike :func:`throughput_rows` (which drives the execution engine
    directly), this sweep runs the *full* protocol — client submission,
    consensus, network simulation, coded execution, verified delivery.
    ``batched_protocol`` selects :meth:`CSMProtocol.run_rounds_batched`
    (consensus ``decide_rounds`` + one speculative ``execute_rounds_pipelined``
    batch); ``batched_protocol=False`` runs the sequential ``run_round``
    loop.  ``service=True`` submits the same traffic through
    :class:`~repro.service.service.CSMService` sessions and lets the round
    scheduler drain it into batches (the production client path).
    ``vectorised_consensus=False`` pins the event-driven consensus oracle
    instead of the message-plane fast path.  The recorded round histories
    are bit-identical across all modes.
    """
    from repro.service import CSMService

    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rng = default_stream(seed)
    rows = []
    for num_nodes in network_sizes:
        protocol = _build_protocol(
            field, machine, num_nodes, fault_fraction, seed, vectorised_consensus
        )
        k = protocol.num_machines
        batches = [
            rng.integers(1, 1000, size=(k, machine.command_dim))
            for _ in range(rounds)
        ]
        start = wall_clock()
        if service:
            mode = "service"
            svc = CSMService(protocol, max_batch_rounds=rounds, min_fill=k)
            sessions = [svc.connect(f"client:{i}") for i in range(k)]
            for batch in batches:
                for i in range(k):
                    sessions[i].submit(i, batch[i])
            svc.drain()
        elif batched_protocol:
            mode = "batched"
            protocol.run_rounds_batched(batches)
        else:
            mode = "sequential"
            protocol.run_rounds(batches)
        elapsed = wall_clock() - start
        rows.append(
            {
                "N": num_nodes,
                "K": k,
                "rounds": rounds,
                "mode": mode,
                "batched_protocol": batched_protocol,
                "throughput": protocol.measured_throughput(),
                "failed_rounds": protocol.failed_rounds,
                "messages_sent": protocol.network.messages_sent,
                "wall_seconds": elapsed,
                **consensus_diagnostics(protocol),
            }
        )
    return rows


def consensus_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24, 32),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 8,
) -> list[dict]:
    """Consensus-phase micro-benchmark: decisions per second, plane vs oracle.

    Each network size runs the *same* command stream through two
    identically-seeded protocols — one with the vectorised message plane,
    one pinned to the event-driven oracle — and times **only** the
    consensus phase (:meth:`ConsensusProtocol.decide_rounds` with lazy
    per-round submission), then the execution phase alone for the decided
    command matrix.  Rows report decided rounds and agreed commands per
    wall-clock second, the plane/oracle speedup denominator
    (``wall_seconds``) and ``consensus_over_execution`` — how many times
    more wall-clock the consensus phase costs than coded execution for the
    same rounds, the gap the message plane exists to close.

    ``fast_path_disabled`` in each row confirms which path actually ran:
    ``0`` for the vectorised rows, ``rounds`` for the oracle rows.
    """
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rows = []
    for num_nodes in network_sizes:
        for plane in (True, False):
            protocol = _build_protocol(
                field, machine, num_nodes, fault_fraction, seed, plane
            )
            k = protocol.num_machines
            command_rng = default_stream(seed)
            batches = [
                command_rng.integers(1, 1000, size=(k, machine.command_dim))
                for _ in range(rounds)
            ]
            client_rounds = [
                [f"client:{i}" for i in range(k)] for _ in range(rounds)
            ]
            start = wall_clock()
            decisions = protocol.consensus.decide_rounds(
                0,
                rounds,
                prepare_round=lambda offset: protocol._submit_round(
                    batches[offset], client_rounds[offset]
                ),
            )
            consensus_elapsed = wall_clock() - start
            sample = protocol._select_decision(decisions[0])
            commands_matrix = np.stack(
                [protocol._select_decision(d).commands for d in decisions]
            )
            start = wall_clock()
            protocol.engine.execute_rounds(commands_matrix)
            execution_elapsed = wall_clock() - start
            rows.append(
                {
                    "N": num_nodes,
                    "K": k,
                    "rounds": rounds,
                    "decisions_per_sec": rounds / consensus_elapsed
                    if consensus_elapsed
                    else 0.0,
                    "commands_per_sec": rounds * k / consensus_elapsed
                    if consensus_elapsed
                    else 0.0,
                    "consensus_over_execution": consensus_elapsed
                    / execution_elapsed
                    if execution_elapsed
                    else float("inf"),
                    "wall_seconds": consensus_elapsed,
                    "execution_seconds": execution_elapsed,
                    "first_round_view": sample.view,
                    **consensus_diagnostics(protocol),
                }
            )
    return rows


def service_rows(
    network_sizes: tuple[int, ...] = (8, 12, 16),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 4,
    fill_probability: float = 0.6,
    min_fill: int = 1,
) -> list[dict]:
    """Ragged client traffic served through the session/ticket API.

    Every scheduler tick, each machine independently has a pending command
    with probability ``fill_probability`` (one bursty client also queues a
    second command for machine 0), so rounds carry noop padding and queues
    of uneven depth — the workload shape the lockstep harnesses cannot
    express.  Reports how many scheduled slots were real commands versus
    padding, and the ticket outcome counts.
    """
    from repro.service import CSMService, TicketState

    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rng = default_stream(seed)
    rows = []
    for num_nodes in network_sizes:
        protocol = _build_protocol(field, machine, num_nodes, fault_fraction, seed)
        k = protocol.num_machines
        service = CSMService(
            protocol, max_batch_rounds=rounds, min_fill=min(min_fill, k)
        )
        sessions = [service.connect(f"client:{i}") for i in range(k)]
        burst = service.connect("client:burst")
        submitted = 0
        start = wall_clock()
        for _ in range(rounds):
            for i in range(k):
                if rng.random() < fill_probability:
                    sessions[i].submit(
                        i, rng.integers(1, 1000, size=machine.command_dim)
                    )
                    submitted += 1
            burst.submit(0, rng.integers(1, 1000, size=machine.command_dim))
            submitted += 1
            service.drive()
        service.drain()
        elapsed = wall_clock() - start
        tickets = service.tickets()
        executed = sum(1 for t in tickets if t.state is TicketState.EXECUTED)
        failed = sum(1 for t in tickets if t.state is TicketState.FAILED)
        scheduled_slots = len(protocol.history) * k
        rows.append(
            {
                "N": num_nodes,
                "K": k,
                "rounds_run": len(protocol.history),
                "tickets": submitted,
                "executed": executed,
                "failed": failed,
                "noop_slots": scheduled_slots - submitted,
                "throughput": protocol.measured_throughput(),
                "wall_seconds": elapsed,
            }
        )
    return rows


def _build_shard_backends(
    field, machine, num_nodes, fault_fraction, seed, shards, vectorised_consensus=True
):
    """One CSMProtocol per shard over a balanced partition of the nodes.

    Sharding the *consensus* means sharding the node set too: shard ``s``
    runs its own consensus instance over ``~N/S`` nodes (its own simulated
    network), hosting the machine count that node group supports.  Per-shard
    rounds then cost ``O((N/S)^2)`` consensus messages instead of
    ``O(N^2)`` — the axis the sharded service opens.
    """
    from repro.service.sharding import partition_machines

    sizes = partition_machines(num_nodes, shards)
    return [
        _build_protocol(
            field, machine, size, fault_fraction, seed + s, vectorised_consensus
        )
        for s, size in enumerate(sizes)
    ]


def sharded_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 4,
    shards: int = 2,
    min_fill: int = 1,
    vectorised_consensus: bool = True,
) -> list[dict]:
    """Sharded versus unsharded serving at matched node budgets.

    For each network size ``N``, the same lockstep-dense traffic (every
    machine receives ``rounds`` commands) is served twice: once through an
    unsharded :class:`~repro.service.service.CSMService` over one
    ``N``-node consensus instance, and once through a
    :class:`~repro.service.sharding.ShardedCSMService` whose ``shards``
    consensus instances partition the same ``N`` nodes.  Each mode reports
    the executed-command rate (commands per wall-clock second), the
    paper-metric throughput (commands per unit per-node field operation)
    and the failure counts, one row per ``(N, mode)``.

    ``vectorised_consensus`` applies to both deployments; pinning the
    event-driven oracle (``False``) isolates the sharding axis from the
    message-plane speedup, which compresses the consensus share of the
    round enough to change which deployment wins at a given ``N``.
    """
    from repro.service import CSMService, ShardedCSMService, TicketState

    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rows = []
    for num_nodes in network_sizes:
        unsharded_backend = _build_protocol(
            field, machine, num_nodes, fault_fraction, seed, vectorised_consensus
        )
        unsharded = CSMService(
            unsharded_backend,
            max_batch_rounds=rounds,
            min_fill=min(min_fill, unsharded_backend.num_machines),
        )
        shard_backends = _build_shard_backends(
            field, machine, num_nodes, fault_fraction, seed, shards,
            vectorised_consensus,
        )
        sharded = ShardedCSMService(
            shard_backends,
            max_batch_rounds=rounds,
            min_fill=min_fill,
        )

        for mode, service in (
            ("unsharded", unsharded),
            (f"sharded:{shards}", sharded),
        ):
            # Fresh generator per mode: both modes draw the same command
            # stream, so the rows compare deployments, not workloads.
            command_rng = default_stream(seed)
            k_total = service.num_machines
            sessions = [service.connect(f"client:{i}") for i in range(k_total)]
            start = wall_clock()
            for _ in range(rounds):
                for i in range(k_total):
                    sessions[i].submit(
                        i, command_rng.integers(1, 1000, size=machine.command_dim)
                    )
                service.drive()
            service.drain()
            elapsed = wall_clock() - start
            tickets = service.tickets()
            executed = sum(1 for t in tickets if t.state is TicketState.EXECUTED)
            failed = sum(1 for t in tickets if t.state is TicketState.FAILED)
            reporting = service if mode.startswith("sharded") else unsharded_backend
            rows.append(
                {
                    "N": num_nodes,
                    "mode": mode,
                    "shards": shards if mode.startswith("sharded") else 1,
                    "K_total": k_total,
                    "rounds_run": len(reporting.history),
                    "tickets": len(tickets),
                    "executed": executed,
                    "failed": failed,
                    "commands_per_sec": executed / elapsed if elapsed else 0.0,
                    "throughput": reporting.measured_throughput(),
                    "failed_rounds": reporting.failed_rounds,
                    "wall_seconds": elapsed,
                    "fast_path_disabled": service.consensus_fast_path_disabled,
                }
            )
    return rows


def traffic_rows(
    network_sizes: tuple[int, ...] = (8, 12, 16),
    fault_fraction: float = 0.2,
    seed: int = 0,
    ticks: int = 24,
    num_sessions: int = 16,
    rate: float = 0.5,
    max_session_pending: int = 8,
    admission_watermark: int | None = None,
    weighted: bool = True,
) -> list[dict]:
    """Open-loop Poisson and bursty traffic under a live QoS policy.

    For each network size the same service configuration is driven by two
    open-loop arrival processes — i.i.d. Poisson and on/off bursty — over
    ``num_sessions`` sessions, with a per-session queue cap (and optionally
    an admission watermark) bounding the backlog and, when ``weighted``,
    session 0 carrying stride weight 2 so its slot share under saturation is
    measurable.  One row per ``(N, process)``: delivered/throttled counts,
    the peak ingress backlog, and p50/p90/p99 commit and execute latency in
    *logical scheduler ticks* — fully deterministic, unlike the wall-clock
    columns of the other sweeps.
    """
    from repro.rng import derived_stream
    from repro.service import (
        BurstyProcess,
        CSMService,
        OpenLoopDriver,
        PoissonProcess,
        QosPolicy,
    )

    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rows = []
    for num_nodes in network_sizes:
        for process_name in ("poisson", "bursty"):
            protocol = _build_protocol(
                field, machine, num_nodes, fault_fraction, seed
            )
            qos = QosPolicy(
                max_session_pending=max_session_pending,
                admission_watermark=admission_watermark,
                selection="weighted_fair" if weighted else "fifo",
                session_weights={"traffic:0": 2} if weighted else {},
            )
            service = CSMService(protocol, qos=qos)
            process = (
                PoissonProcess(rate=rate)
                if process_name == "poisson"
                else BurstyProcess(on_rate=2 * rate, p_on_off=0.25, p_off_on=0.25)
            )
            driver = OpenLoopDriver(
                service,
                process,
                num_sessions=num_sessions,
                rng=derived_stream(default_stream(seed)),
            )
            report = driver.run(ticks)
            rows.append(
                {
                    "N": num_nodes,
                    "K": protocol.num_machines,
                    "process": process_name,
                    "sessions": num_sessions,
                    "ticks": report.ticks,
                    "submitted": report.submitted,
                    "executed": report.executed,
                    "throttled": report.throttled,
                    "max_pending": report.max_pending,
                    "p50_commit": report.commit_latency["p50"],
                    "p90_commit": report.commit_latency["p90"],
                    "p99_commit": report.commit_latency["p99"],
                    "p50_execute": report.execute_latency["p50"],
                    "p90_execute": report.execute_latency["p90"],
                    "p99_execute": report.execute_latency["p99"],
                    "weighted_session_share": (
                        report.executed_by_session.get("traffic:0", 0)
                        / report.executed
                        if report.executed
                        else 0.0
                    ),
                }
            )
    return rows


def run(**kwargs) -> dict:
    return {
        "scaling_laws": scaling_law_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "degree", "seed")}),
        "throughput": throughput_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds", "batched")}),
        "protocol": protocol_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds", "batched_protocol",
            "service", "vectorised_consensus")}),
        "consensus": consensus_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds")}),
        "pipelined": pipelined_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds",
            "verify_window")}),
        "delegation": delegation_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds",
            "failure_probability")}),
        "service": service_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds",
            "fill_probability", "min_fill")}),
        "sharded": sharded_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds", "shards",
            "min_fill", "vectorised_consensus")}),
        "traffic": traffic_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "ticks", "num_sessions",
            "rate", "max_session_pending", "admission_watermark", "weighted")}),
    }


def main() -> None:  # pragma: no cover - exercised via CLI
    result = run()
    print("Theorem 1 scaling laws (measured vs formula)")
    print(format_table(result["scaling_laws"]))
    print()
    print("Throughput scaling (Section 6.3): distributed vs delegated coding")
    print(format_table(result["throughput"]))
    print()
    print("End-to-end protocol (consensus + coded execution, batched path)")
    print(format_table(result["protocol"]))
    print()
    print("Consensus phase only: vectorised message plane vs event-driven oracle")
    print(format_table(result["consensus"]))
    print()
    print("Speculative pipeline vs batched decode (execution phase, fault-free)")
    print(format_table(result["pipelined"]))
    print()
    print("Delegated-verification rounds: batched INTERMIX vs scalar oracle")
    print(format_table(result["delegation"]))
    print()
    print("Ragged client traffic through the session/ticket service API")
    print(format_table(result["service"]))
    print()
    print("Sharded vs unsharded serving (partitioned pools + per-shard consensus)")
    print(format_table(result["sharded"]))
    print()
    print("Open-loop traffic under QoS (logical-tick latency percentiles)")
    print(format_table(result["traffic"]))


if __name__ == "__main__":  # pragma: no cover
    main()
