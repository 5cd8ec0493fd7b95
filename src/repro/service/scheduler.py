"""Adaptive round scheduling: draining ragged traffic into batched rounds.

The paper's protocol is client-driven — commands arrive whenever clients
have them — but the batched round pipeline wants dense ``(K, command_dim)``
rounds.  :class:`RoundScheduler` bridges the two: it drains the service's
ingress :class:`~repro.consensus.command_pool.CommandPool` FIFO into up to
``max_batch_rounds`` rounds per tick, padding machines with empty queues
with the machine's :meth:`~repro.machine.interface.StateMachine.noop_command`
(an identity transition for the library machines), so idle machines, bursty
multi-command clients and partially-filled rounds are all first-class.

``min_fill`` makes the batching adaptive: a round is only formed once at
least that many machines have a real pending command, so a nearly-idle
system waits for traffic to accumulate instead of burning consensus rounds
on noop padding — except under ``flush=True``, which drains every pending
command regardless of fill.

``max_wait_ticks`` bounds how long that deferral can starve a command: if
below-``min_fill`` traffic sits in the pool for that many consecutive
:meth:`RoundScheduler.plan` ticks without a ``flush`` ever arriving, the
scheduler flushes it anyway.  Without the override, a trickle of traffic
that never reaches ``min_fill`` machines would leave its tickets ``PENDING``
forever — a liveness hole, not a policy.  The deferral age follows the
*oldest still-pending command*: a tick that plans rounds but leaves
commands behind (``max_batch_rounds`` exhausted) ages the leftovers rather
than resetting their starvation clock.

``selector`` opens the slot-filling choice to a
:class:`~repro.service.qos.SelectionPolicy`: instead of the implicit
FIFO-per-machine ``dequeue_next``, the scheduler offers the policy the
machine's pending queue and dequeues whichever entry it picks — weighted
fair shares across sessions, priority lanes.  With ``selector=None`` (the
default) the original FIFO fast path runs unchanged, bit-identically.

The scheduler only *plans* rounds; the service hands each planned batch to
the backend's :meth:`~repro.rounds.RoundProtocol.run_rounds_batched`, which
for the coded backend speculates over the batch whenever it can while every
planned round resolves to the bit-identical history and ticket outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.consensus.command_pool import CommandPool, SubmittedCommand
from repro.exceptions import ConfigurationError
from repro.machine.interface import StateMachine
from repro.service.qos import SelectionPolicy

#: Client label attached to noop padding slots in the backend's round record.
NOOP_CLIENT = "service:noop"


@dataclass
class ScheduledRound:
    """One planned round: dense commands, per-slot clients, per-slot tickets.

    ``entries[k]`` is the dequeued pool entry whose ticket owns machine
    ``k``'s slot, or ``None`` where the slot is noop padding.
    """

    commands: np.ndarray
    clients: list[str]
    entries: list[SubmittedCommand | None]

    @property
    def fill(self) -> int:
        """Number of real (non-padding) commands in the round."""
        return sum(1 for entry in self.entries if entry is not None)


class RoundScheduler:
    """Drains a command pool into adaptive batches of dense rounds."""

    #: Default bound on consecutive below-``min_fill`` deferrals before the
    #: scheduler flushes stale traffic anyway (the starvation override).
    DEFAULT_MAX_WAIT_TICKS = 16

    def __init__(
        self,
        pool: CommandPool,
        machine: StateMachine,
        max_batch_rounds: int = 8,
        min_fill: int = 1,
        max_wait_ticks: int | None = DEFAULT_MAX_WAIT_TICKS,
        selector: SelectionPolicy | None = None,
    ) -> None:
        if max_batch_rounds < 1:
            raise ConfigurationError(
                f"max_batch_rounds must be positive, got {max_batch_rounds}"
            )
        if not 1 <= min_fill <= pool.num_machines:
            raise ConfigurationError(
                f"min_fill must be in [1, {pool.num_machines}], got {min_fill}"
            )
        if max_wait_ticks is not None and max_wait_ticks < 1:
            raise ConfigurationError(
                f"max_wait_ticks must be positive (or None to disable), "
                f"got {max_wait_ticks}"
            )
        self.pool = pool
        self.machine = machine
        self.max_batch_rounds = int(max_batch_rounds)
        self.min_fill = int(min_fill)
        self.max_wait_ticks = None if max_wait_ticks is None else int(max_wait_ticks)
        self.selector = selector
        self._deferred_ticks = 0
        self._noop_row = [int(v) for v in machine.noop_command()]

    def plan(self, flush: bool = False) -> list[ScheduledRound]:
        """Dequeue up to ``max_batch_rounds`` rounds of pending commands.

        Each planned round fills every machine that has a pending command —
        with its FIFO-next entry, or whichever entry the ``selector`` picks
        from the machine's queue — and pads the rest with the machine's noop
        command.  Planning stops when the pool is empty, the batch is full,
        or the next round would fall below ``min_fill`` real commands
        (unless ``flush``).  An empty tick returns ``[]`` without touching
        the pool.

        A tick that defers below-``min_fill`` traffic counts toward
        ``max_wait_ticks``; once the oldest pending command has waited that
        many consecutive ticks, the tick proceeds as if flushed, so no
        ticket waits forever for traffic that never comes.  The deferral age
        is only reset by a tick that fully drains the pool: leftovers from a
        ``max_batch_rounds``-capped tick keep (and grow) their accrued age.
        """
        if self.pool.pending_machines() == 0:
            # An empty pool has nothing to starve; deferral age restarts
            # when the next command arrives.
            self._deferred_ticks = 0
            return []
        if self.pool.pending_machines() < self.min_fill and not flush:
            if (
                self.max_wait_ticks is not None
                and self._deferred_ticks + 1 >= self.max_wait_ticks
            ):
                flush = True  # stale traffic: override min_fill this tick
            else:
                self._deferred_ticks += 1
                return []
        rounds: list[ScheduledRound] = []
        while len(rounds) < self.max_batch_rounds:
            filled = self.pool.pending_machines()
            if filled == 0:
                break
            if filled < self.min_fill and not flush:
                break
            commands: list[list[int]] = []
            clients: list[str] = []
            entries: list[SubmittedCommand | None] = []
            for k in range(self.pool.num_machines):
                entry = self._dequeue(k)
                entries.append(entry)
                if entry is None:
                    commands.append(self._noop_row)
                    clients.append(NOOP_CLIENT)
                else:
                    commands.append(list(entry.command))
                    clients.append(entry.client_id)
            rounds.append(
                ScheduledRound(
                    commands=np.array(commands, dtype=np.int64),
                    clients=clients,
                    entries=entries,
                )
            )
        # Deferral age follows the oldest still-pending command: only a tick
        # that leaves the pool empty resets it.  A capped tick's leftovers
        # have now waited one more tick (this was the regression: resetting
        # here forgot their starvation age).
        if self.pool.total_pending() == 0:
            self._deferred_ticks = 0
        else:
            self._deferred_ticks += 1
        return rounds

    def _dequeue(self, machine_index: int) -> SubmittedCommand | None:
        """One slot fill: FIFO fast path, or the selection policy's pick."""
        if self.selector is None:
            return self.pool.dequeue_next(machine_index)
        candidates = self.pool.pending_entries(machine_index)
        if not candidates:
            return None
        chosen = self.selector.select(machine_index, candidates)
        return self.pool.dequeue_sequence(machine_index, chosen.sequence)
