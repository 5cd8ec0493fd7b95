"""Sharded serving: partitioned command pools and per-shard consensus.

A single :class:`~repro.service.service.CSMService` funnels every machine
through one consensus instance and one ingress pool, so throughput stops
scaling once that instance saturates.  The paper's machines are *logically
independent* — machine ``k``'s transition never reads machine ``j``'s state
— so disjoint machine groups can advance through disjoint consensus
instances concurrently.  :class:`ShardedCSMService` is that deployment
shape: the ``K`` machines are partitioned into ``S`` contiguous shards,
each shard owning its *own* :class:`~repro.consensus.command_pool.\
CommandPool`, :class:`~repro.service.scheduler.RoundScheduler` and
:class:`~repro.rounds.RoundProtocol` backend (a coded
:class:`~repro.core.protocol.CSMProtocol` over the shard's node group, or a
replication baseline), behind one façade that preserves the unsharded
``connect() / submit() / drive() / drain()`` client surface:

* ``submit(machine_index, ...)`` routes the *global* machine index to the
  owning shard's local slot; the returned ticket reports the global index.
* Ticket ``sequence`` numbers stay globally unique (and globally ordered by
  submission) — every shard's ingress pool draws from one shared
  :class:`~repro.consensus.command_pool.SequenceAllocator`.
* Each :meth:`ShardedCSMService.drive` tick advances the shards
  independently — all shards per tick by default, or one shard per tick
  under ``tick_mode="round_robin"``.
* The merged reporting view (:attr:`~ShardedCSMService.history`,
  :attr:`~ShardedCSMService.delivered_outputs`,
  :attr:`~ShardedCSMService.failed_rounds`,
  :meth:`~ShardedCSMService.measured_throughput`) presents the union of the
  shard histories under deterministic *global* round indices (completion
  order; shard index, then shard-local order, within a tick), so the
  experiment harnesses read a sharded deployment exactly like an unsharded
  protocol.

With ``S = 1`` the façade is a pass-through over a single
:class:`~repro.service.service.CSMService` and is bit-identical to it on any
submission trace (property-tested).  Failure isolation is structural: a
shard's failed round fails only tickets scheduled on that shard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.consensus.command_pool import SequenceAllocator
from repro.exceptions import ConfigurationError, ServiceError
from repro.faults import FaultReport, FaultSchedule
from repro.rounds import ProtocolRound, RoundProtocol
from repro.service.qos import QosPolicy
from repro.service.retry import RetryPolicy
from repro.service.scheduler import RoundScheduler
from repro.service.service import ClientSession, CSMService
from repro.service.tickets import CommandTicket, LogicalClock, ThrottleReason

__all__ = [
    "ShardHealth",
    "ShardedClientSession",
    "ShardedCSMService",
    "ShardedRound",
    "partition_machines",
]


class ShardHealth(enum.Enum):
    """Per-shard health the façade tracks from the shards' round outcomes.

    A shard is ``DEGRADED`` after ``degraded_after`` consecutive failed
    rounds; while degraded (and still backlogged) new submissions to its
    machines are shed as ``ADMISSION_SHED`` throttles.  The backlogged
    traffic keeps being driven as probe rounds, and the first verified
    round restores the shard to ``HEALTHY``.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"


def partition_machines(num_machines: int, num_shards: int) -> list[int]:
    """Balanced contiguous partition sizes: ``K`` machines into ``S`` shards.

    The first ``K mod S`` shards take one extra machine, so sizes differ by
    at most one and shard boundaries are deterministic.
    """
    if num_shards < 1:
        raise ConfigurationError(f"need at least one shard, got {num_shards}")
    if num_machines < num_shards:
        raise ConfigurationError(
            f"cannot split {num_machines} machines into {num_shards} shards "
            "(every shard needs at least one machine)"
        )
    base, extra = divmod(num_machines, num_shards)
    return [base + (1 if s < extra else 0) for s in range(num_shards)]


@dataclass
class ShardedRound(ProtocolRound):
    """A shard's round re-indexed into the façade's global history.

    ``round_index`` is the *global* index (position in the merged history);
    ``shard_index`` / ``shard_round_index`` locate the underlying record in
    its shard, and ``shard_num_machines`` carries the shard's ``K_s`` so the
    merged throughput report charges each round at its own width.
    """

    shard_index: int = 0
    shard_round_index: int = 0
    shard_num_machines: int = 0


class ShardedClientSession(ClientSession):
    """A client connected to the sharded façade: one session, all shards.

    Identical to :class:`~repro.service.service.ClientSession` — ``submit``
    only needs the service's ``_submit``, which the façade provides with
    *global* machine indices — but named so a session's type says which
    deployment shape it talks to.
    """


class ShardedCSMService:
    """One client surface over ``S`` independently-advancing shards.

    Parameters
    ----------
    backends:
        One :class:`~repro.rounds.RoundProtocol` per shard, in shard order.
        Shard ``s`` owns the contiguous global machine range starting at the
        sum of the earlier shards' ``num_machines``.
    max_batch_rounds / min_fill / max_wait_ticks:
        Per-shard scheduling knobs, forwarded to each shard's
        :class:`~repro.service.service.CSMService` (``min_fill`` is clamped
        to the shard's machine count).
    tick_mode:
        ``"all"`` (default) drives every shard on each :meth:`drive` tick;
        ``"round_robin"`` drives one shard per tick, cycling in shard order.
    qos:
        Optional :class:`~repro.service.qos.QosPolicy`, forwarded to every
        shard.  ``admission_watermark`` and the selection policy apply
        per shard (each shard has its own ingress pool and scheduler);
        ``max_session_pending`` bounds a session's unresolved tickets
        *across* shards — the façade checks the global count before routing,
        so a session cannot multiply its cap by spreading over shards.
    retry:
        Optional :class:`~repro.service.retry.RetryPolicy`, forwarded to
        every shard (each shard retries its own failed rounds).
    faults:
        Optional fault plane: a single :class:`~repro.faults.FaultSchedule`
        applied to *every* shard (shard backends share the node naming, so
        one schedule models correlated faults across shards), or a mapping
        ``{shard_index: FaultSchedule}`` targeting specific shards.
    degraded_after:
        Consecutive failed rounds before a shard is marked
        :attr:`ShardHealth.DEGRADED` and starts shedding new admissions.
    """

    def __init__(
        self,
        backends: Sequence[RoundProtocol],
        max_batch_rounds: int = 8,
        min_fill: int = 1,
        max_wait_ticks: int | None = RoundScheduler.DEFAULT_MAX_WAIT_TICKS,
        tick_mode: str = "all",
        qos: QosPolicy | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultSchedule | Mapping[int, FaultSchedule] | None = None,
        degraded_after: int = 3,
    ) -> None:
        backends = list(backends)
        if not backends:
            raise ConfigurationError("need at least one shard backend")
        if tick_mode not in ("all", "round_robin"):
            raise ConfigurationError(
                f"tick_mode must be 'all' or 'round_robin', got {tick_mode!r}"
            )
        for backend in backends:
            if not isinstance(backend, RoundProtocol):
                raise ConfigurationError(
                    f"shard backend {type(backend).__name__} does not "
                    "implement RoundProtocol"
                )
        if qos is not None and not isinstance(qos, QosPolicy):
            raise ConfigurationError(
                f"qos {type(qos).__name__} is not a QosPolicy"
            )
        if degraded_after < 1:
            raise ConfigurationError(
                f"degraded_after must be at least 1, got {degraded_after}"
            )
        if faults is None or isinstance(faults, FaultSchedule):
            shard_faults: dict[int, FaultSchedule] = (
                {} if faults is None else {s: faults for s in range(len(backends))}
            )
        else:
            shard_faults = {int(s): schedule for s, schedule in faults.items()}
            for shard_index in shard_faults:
                if not 0 <= shard_index < len(backends):
                    raise ConfigurationError(
                        f"fault schedule targets shard {shard_index}, but "
                        f"there are only {len(backends)} shards"
                    )
        self.tick_mode = tick_mode
        self.qos = qos
        self.retry = retry
        self.degraded_after = int(degraded_after)
        self.sequence_source = SequenceAllocator()
        # One logical clock across the shards (like the sequence allocator):
        # the façade advances it once per façade tick, so per-ticket latencies
        # are measured in façade ticks and comparable across shards.
        self.clock = LogicalClock()
        self.shards: list[CSMService] = [
            CSMService(
                backend,
                max_batch_rounds=max_batch_rounds,
                # A façade-level min_fill wider than a small shard would make
                # that shard unschedulable; clamp to the shard's width.
                min_fill=min(int(min_fill), backend.num_machines),
                max_wait_ticks=max_wait_ticks,
                sequence_source=self.sequence_source,
                qos=qos,
                clock=self.clock,
                retry=retry,
                faults=shard_faults.get(shard_index),
            )
            for shard_index, backend in enumerate(backends)
        ]
        # Global machine index -> (shard, local index): shard s owns the
        # contiguous range [offset_s, offset_s + K_s).
        self._offsets: list[int] = []
        offset = 0
        for shard in self.shards:
            self._offsets.append(offset)
            offset += shard.num_machines
        self._num_machines = offset
        self._sessions: dict[str, ShardedClientSession] = {}
        self._history: list[ShardedRound] = []
        self._next_shard = 0  # round-robin cursor
        self._consecutive_failures = [0] * len(self.shards)
        self._health = [ShardHealth.HEALTHY] * len(self.shards)
        self._health_timeline: list[dict[str, object]] = []

    @classmethod
    def from_partition(
        cls,
        num_machines: int,
        num_shards: int,
        backend_factory: Callable[[int, int], RoundProtocol],
        **kwargs,
    ) -> "ShardedCSMService":
        """Build a service whose shards partition ``num_machines`` evenly.

        ``backend_factory(shard_index, shard_machines)`` must return a
        backend hosting exactly ``shard_machines`` machines; a factory that
        returns a different width is a configuration error.
        """
        sizes = partition_machines(num_machines, num_shards)
        backends = []
        for shard_index, size in enumerate(sizes):
            backend = backend_factory(shard_index, size)
            if backend.num_machines != size:
                raise ConfigurationError(
                    f"shard {shard_index} backend hosts {backend.num_machines} "
                    f"machines, partition requires {size}"
                )
            backends.append(backend)
        return cls(backends, **kwargs)

    # -- client surface -----------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        """Total machines across all shards (the global index space)."""
        return self._num_machines

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, machine_index: int) -> tuple[int, int]:
        """Map a global machine index to ``(shard_index, local_index)``."""
        index = int(machine_index)
        if not 0 <= index < self._num_machines:
            raise ConfigurationError(
                f"machine index {index} out of range for {self._num_machines} "
                "machines"
            )
        for shard_index in range(len(self.shards) - 1, -1, -1):
            if index >= self._offsets[shard_index]:
                return shard_index, index - self._offsets[shard_index]
        raise AssertionError("unreachable: offsets start at 0")

    def connect(self, client_id: str) -> ShardedClientSession:
        """Open (or re-join) the session for ``client_id``."""
        client_id = str(client_id)
        session = self._sessions.get(client_id)
        if session is None:
            session = ShardedClientSession(self, client_id)
            self._sessions[client_id] = session
        return session

    def tickets(self) -> list[CommandTicket]:
        """Every ticket across all shards, in global submission order."""
        merged = [
            ticket for shard in self.shards for ticket in shard.tickets()
        ]
        merged.sort(key=lambda ticket: ticket.sequence)
        return merged

    def pending_commands(self) -> int:
        """Commands queued (any shard) but not yet scheduled into a round."""
        return sum(shard.pending_commands() for shard in self.shards)

    @property
    def command_dim(self) -> int:
        """Width of one command row (identical across shard machines)."""
        return self.shards[0].command_dim

    def open_tickets(self, client_id: str) -> int:
        """A session's unresolved tickets summed across every shard —
        the quantity the façade's global per-session queue cap bounds."""
        return sum(shard.open_tickets(client_id) for shard in self.shards)

    def qos_report(self) -> dict[str, object]:
        """Merged QoS snapshot: façade totals plus the per-shard reports.

        ``shards[s]`` is shard ``s``'s own
        :meth:`~repro.service.service.CSMService.qos_report` (its pending
        depth is what that shard's admission watermark watches); the
        top-level counters are the sums the client surface observes.
        """
        shard_reports = [shard.qos_report() for shard in self.shards]
        policy = self.qos.describe() if self.qos is not None else QosPolicy().describe()
        retry = (
            self.retry.describe() if self.retry is not None else RetryPolicy().describe()
        )
        return {
            "policy": policy,
            "pending": sum(int(r["pending"]) for r in shard_reports),
            "open_tickets": sum(int(r["open_tickets"]) for r in shard_reports),
            "throttled_session": sum(
                int(r["throttled_session"]) for r in shard_reports
            ),
            "throttled_admission": sum(
                int(r["throttled_admission"]) for r in shard_reports
            ),
            "tick": self.clock.now,
            "shards": shard_reports,
            "retry": retry,
            "retried_commands": sum(
                int(r["retried_commands"]) for r in shard_reports
            ),
            "recovered_tickets": sum(
                int(r["recovered_tickets"]) for r in shard_reports
            ),
            "exhausted_tickets": sum(
                int(r["exhausted_tickets"]) for r in shard_reports
            ),
            "retry_backlog": sum(int(r["retry_backlog"]) for r in shard_reports),
            "shard_health": [state.value for state in self._health],
            "health_timeline": list(self._health_timeline),
            "faults": self.fault_report().to_dict(),
        }

    def fault_report(self) -> FaultReport:
        """The per-shard fault reports merged into one façade-level record."""
        return FaultReport.merge(shard.fault_report() for shard in self.shards)

    def shard_health(self, shard_index: int) -> ShardHealth:
        """Current health of one shard (see :class:`ShardHealth`)."""
        return self._health[int(shard_index)]

    # -- scheduling / driving -----------------------------------------------------------
    def drive(self, flush: bool = False) -> list[ProtocolRound]:
        """One façade tick: advance the shards and merge their new rounds.

        Under ``tick_mode="all"`` every shard plans and runs its own batches
        this tick (shards with nothing to schedule contribute nothing);
        under ``"round_robin"`` exactly one shard is driven and the cursor
        advances.  Returns the tick's new rounds as :class:`ShardedRound`
        records carrying their global indices, in the order they were
        appended to the merged history.  Every façade tick advances the
        shared logical clock exactly once (the shards never advance it —
        they don't own it), so latencies are measured in façade ticks.
        """
        self.clock.advance()
        if self.tick_mode == "round_robin":
            shard_order = [self._next_shard]
            self._next_shard = (self._next_shard + 1) % len(self.shards)
        else:
            shard_order = range(len(self.shards))
        driven: list[ProtocolRound] = []
        for shard_index in shard_order:
            records = self.shards[shard_index].drive(flush=flush)
            self._observe_shard(shard_index, records)
            driven.extend(self._merge_records(shard_index, records))
        return driven

    def drain(self) -> list[ProtocolRound]:
        """Drive until every queued command and retry backlog has resolved.

        Under ``round_robin`` a tick may land on an idle shard while
        another shard still has traffic, so "no progress" only means a
        stall once a *full cycle* of ticks has drained nothing.  Ticks that
        only wait out a retry backoff are always progress — the shared
        clock advances toward the backlog's (finite) ready ticks.
        """
        records: list[ProtocolRound] = []
        stalled = 0
        stall_limit = len(self.shards) if self.tick_mode == "round_robin" else 1
        while self.pending_commands() or self._retry_backlog():
            before = self.pending_commands()
            records.extend(self.drive(flush=True))
            if before and self.pending_commands() >= before:
                stalled += 1
                if stalled >= stall_limit:  # pragma: no cover - defensive
                    raise ServiceError("sharded drain made no progress")
            else:
                stalled = 0
        return records

    def _retry_backlog(self) -> int:
        """Tickets across all shards waiting out a retry backoff."""
        return sum(len(shard._retry_queue) for shard in self.shards)

    def _observe_shard(
        self, shard_index: int, records: Sequence[ProtocolRound]
    ) -> None:
        """Update the shard's health from its newly completed rounds."""
        for record in records:
            if record.correct:
                self._consecutive_failures[shard_index] = 0
                if self._health[shard_index] is ShardHealth.DEGRADED:
                    self._health[shard_index] = ShardHealth.HEALTHY
                    self._health_timeline.append(
                        {
                            "tick": self.clock.now,
                            "shard": shard_index,
                            "state": ShardHealth.HEALTHY.value,
                        }
                    )
            else:
                self._consecutive_failures[shard_index] += 1
                if (
                    self._health[shard_index] is ShardHealth.HEALTHY
                    and self._consecutive_failures[shard_index]
                    >= self.degraded_after
                ):
                    self._health[shard_index] = ShardHealth.DEGRADED
                    self._health_timeline.append(
                        {
                            "tick": self.clock.now,
                            "shard": shard_index,
                            "state": ShardHealth.DEGRADED.value,
                        }
                    )

    def _merge_records(
        self, shard_index: int, records: Sequence[ProtocolRound]
    ) -> list[ShardedRound]:
        """Append a shard's new rounds to the global history, in order."""
        shard_k = self.shards[shard_index].num_machines
        merged = []
        for record in records:
            merged.append(
                ShardedRound(
                    round_index=len(self._history),
                    commands=record.commands,
                    clients=list(record.clients),
                    result=record.result,
                    consensus_views=record.consensus_views,
                    shard_index=shard_index,
                    shard_round_index=record.round_index,
                    shard_num_machines=shard_k,
                )
            )
            self._history.append(merged[-1])
        return merged

    # -- merged reporting ---------------------------------------------------------------
    @property
    def history(self) -> list[ShardedRound]:
        """The union of the shard histories under global round indices."""
        return list(self._history)

    @property
    def all_rounds_correct(self) -> bool:
        return all(record.correct for record in self._history)

    @property
    def failed_rounds(self) -> int:
        """Completed rounds (any shard) whose verification failed."""
        return sum(1 for record in self._history if not record.correct)

    @property
    def consensus_fast_path_disabled(self) -> int:
        """Slow-path consensus rounds summed across every shard backend."""
        return sum(shard.consensus_fast_path_disabled for shard in self.shards)

    @property
    def delivered_outputs(self) -> dict[str, list[np.ndarray]]:
        """Per-client delivered outputs, in global round order.

        Rebuilt from the merged history so the ordering matches the global
        round indices (the per-shard ``delivered_outputs`` dicts interleave
        nondeterministically once shards advance at different rates).
        """
        merged: dict[str, list[np.ndarray]] = {}
        for record in self._history:
            if record.correct:
                for k, client_id in enumerate(record.clients):
                    merged.setdefault(client_id, []).append(
                        record.result.outputs[k].copy()
                    )
        return merged

    @property
    def failed_deliveries(self) -> dict[str, list[int]]:
        """Per-client failed rounds, keyed by *global* round indices."""
        merged: dict[str, list[int]] = {}
        for record in self._history:
            if not record.correct:
                for client_id in record.clients:
                    merged.setdefault(client_id, []).append(record.round_index)
        return merged

    def measured_throughput(self) -> float:
        """Merged commands-per-op mean over the global history.

        Same semantics as :meth:`repro.rounds.RoundProtocol.\
measured_throughput` — failed rounds contribute ``0.0``, degenerate
        zero-operation verified rounds are excluded — except each round is
        charged at its own shard's width ``K_s``, since that is how many
        commands the round carried.
        """
        if not self._history:
            return 0.0
        throughputs: list[float] = []
        for record in self._history:
            if not record.correct:
                throughputs.append(0.0)
                continue
            value = record.result.throughput(record.shard_num_machines)
            if np.isfinite(value):
                throughputs.append(value)
        return float(np.mean(throughputs)) if throughputs else 0.0

    # -- internals ----------------------------------------------------------------------
    def _submit(self, client_id: str, machine_index: int, command) -> CommandTicket:
        shard_index, local_index = self.shard_of(machine_index)
        shard = self.shards[shard_index]
        # The per-session queue cap is global: a session's unresolved tickets
        # are summed across shards before routing, so spreading submissions
        # over shards cannot multiply the cap.  (The shard re-checks its own
        # local count, which is <= the global sum, so it never double-fires.)
        if self.qos is not None and self.qos.max_session_pending is not None:
            cap = self.qos.max_session_pending
            if self.open_tickets(client_id) >= cap:
                row = shard._canonical_command(command)
                ticket = shard._make_throttled(
                    client_id,
                    local_index,
                    row,
                    f"session {client_id!r} already holds {cap} unresolved "
                    "tickets across shards (per-session queue cap); retry "
                    "after they resolve",
                    ThrottleReason.SESSION_QUEUE_FULL,
                )
                ticket.machine_index = int(machine_index)
                return ticket
        # A degraded shard that still has a backlog (pending pool or retry
        # queue — its probe traffic) sheds new admissions; once the backlog
        # is gone, new submissions are admitted as probes so a verified
        # round can restore the shard (no permanent degradation).
        if self._health[shard_index] is ShardHealth.DEGRADED and (
            shard.pool.total_pending() or shard._retry_queue
        ):
            row = shard._canonical_command(command)
            ticket = shard._make_throttled(
                client_id,
                local_index,
                row,
                f"shard {shard_index} is degraded "
                f"({self._consecutive_failures[shard_index]} consecutive "
                "failed rounds) and is shedding load while its backlog "
                "probes for recovery",
                ThrottleReason.ADMISSION_SHED,
            )
            ticket.machine_index = int(machine_index)
            return ticket
        ticket = shard._submit(client_id, local_index, command)
        # The shard pool sees its local slot; the client-facing ticket
        # reports the global machine index it submitted against.
        ticket.machine_index = int(machine_index)
        return ticket
