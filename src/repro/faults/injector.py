"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a round backend.

The injector sits between the service and the round backend: it
splits every driven batch at the schedule's event boundaries so each
executed segment sees a constant fault state, applies the due events at
each boundary (behaviour swaps, crash/recover with state transfer, link
switchboard mutations), and keeps the books for the
:class:`~repro.faults.report.FaultReport`.

Events are keyed by the backend's *global* round index (``len(history)``),
so one schedule spans multiple ``drive()`` batches; events beyond the
rounds actually driven stay pending and are counted as such in the report.
Applying events draws no randomness — behaviour swaps are map updates and
the network switchboard is consulted after each delay draw — so an empty
schedule is bit-identical to running without the injector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.report import FaultReport
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.byzantine import CrashedBehavior, behavior_from_name


class FaultInjector:
    """Drives a backend through a schedule of fault transitions.

    ``backend`` must be a round backend (``run_rounds_batched`` plus the
    ``history`` list).  Schedules with node events additionally need the
    behaviour plane (``set_node_behavior`` / ``resync_node`` — the coded
    :class:`~repro.core.protocol.CSMProtocol` has it); schedules with
    network events need ``backend.network.faults`` (a
    :class:`~repro.net.network.NetworkFaultState`).  Capabilities are
    validated eagerly so a mismatched pairing fails at construction, not
    mid-run.
    """

    def __init__(self, backend, schedule: FaultSchedule) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ConfigurationError(
                f"schedule must be a FaultSchedule, got {type(schedule).__name__}"
            )
        if schedule.has_node_events() and not (
            hasattr(backend, "set_node_behavior") and hasattr(backend, "resync_node")
        ):
            raise ConfigurationError(
                f"{type(backend).__name__} has no node-behaviour plane; "
                "crash/recover and behaviour events need a backend with "
                "set_node_behavior/resync_node (the coded CSMProtocol)"
            )
        if schedule.has_network_events() and self._network_faults(backend) is None:
            raise ConfigurationError(
                f"{type(backend).__name__} has no network fault switchboard; "
                "drop/delay/partition events need backend.network.faults"
            )
        self.backend = backend
        self.schedule = schedule
        self._pending: tuple[FaultEvent, ...] = schedule.events
        self._cursor = 0
        # Original behaviour of each node we overrode (None == honest),
        # captured lazily at first override so recover/restore can undo it.
        self._baseline: dict[str, object] = {}
        self.crashed: set[str] = set()
        self.applied: list[dict[str, object]] = []

    @staticmethod
    def _network_faults(backend):
        network = getattr(backend, "network", None)
        return getattr(network, "faults", None)

    # -- driving ------------------------------------------------------------------------
    def run(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
    ) -> list:
        """Run ``command_batches`` through the backend, injecting due events.

        The batch is split at every pending event's round so events fire
        exactly at their round boundary; each segment between boundaries
        runs unbroken through ``backend.run_rounds_batched``, keeping the
        backend's own batching (and its vectorised paths) intact.
        """
        first = len(self.backend.history)
        total = len(command_batches)
        if total == 0:
            return []
        records: list = []
        start = 0
        while start < total:
            self._apply_due(first + start)
            end = total
            if self._cursor < len(self._pending):
                boundary = self._pending[self._cursor].round_index - first
                if boundary < end:
                    end = max(boundary, start + 1)
            segment_clients = (
                None if client_rounds is None else client_rounds[start:end]
            )
            records.extend(
                self.backend.run_rounds_batched(
                    command_batches[start:end], client_rounds=segment_clients
                )
            )
            start = end
        return records

    def _apply_due(self, round_index: int) -> None:
        """Apply every pending event scheduled at or before ``round_index``."""
        while (
            self._cursor < len(self._pending)
            and self._pending[self._cursor].round_index <= round_index
        ):
            event = self._pending[self._cursor]
            self._cursor += 1
            self._apply(event)

    # -- event application --------------------------------------------------------------
    def _resolve(self, event: FaultEvent) -> str:
        target = event.target
        if target is None:
            raise ConfigurationError(f"{event.kind} event needs a target node")
        resolver = getattr(self.backend, "resolve_fault_target", None)
        if resolver is not None:
            return resolver(target, event.round_index)
        if target.startswith("@"):
            raise ConfigurationError(
                f"backend {type(self.backend).__name__} cannot resolve the "
                f"adaptive target {target!r}"
            )
        return target

    def _apply(self, event: FaultEvent) -> None:
        if event.kind in ("crash", "behavior"):
            node = self._resolve(event)
            self._baseline.setdefault(node, self.backend.node_behavior(node))
            if event.kind == "crash":
                self.backend.set_node_behavior(node, CrashedBehavior())
                self.crashed.add(node)
            else:
                self.backend.set_node_behavior(node, behavior_from_name(event.spec))
        elif event.kind in ("recover", "restore"):
            node = self._resolve(event)
            self.backend.set_node_behavior(node, self._baseline.pop(node, None))
            # The node's coded row went stale while it was down/misbehaving:
            # a recovery is only complete after the state transfer.
            self.backend.resync_node(node)
            self.crashed.discard(node)
        else:
            faults = self._network_faults(self.backend)
            if event.kind == "drop-node":
                faults.dropped_nodes.add(self._resolve(event))
            elif event.kind == "undrop-node":
                faults.dropped_nodes.discard(self._resolve(event))
            elif event.kind == "drop-link":
                faults.dropped_links.add(event.link)
            elif event.kind == "undrop-link":
                faults.dropped_links.discard(event.link)
            elif event.kind == "delay":
                faults.extra_delay = event.extra_delay
            elif event.kind == "undelay":
                faults.extra_delay = 0.0
            elif event.kind == "partition":
                faults.set_partition(event.groups)
            else:  # "heal" — FaultEvent validated the kind at construction
                faults.set_partition(None)
        self.applied.append(event.describe())

    # -- observability ------------------------------------------------------------------
    def report(self) -> FaultReport:
        """Injected vs. applied events plus the network drop counter."""
        faults = self._network_faults(self.backend)
        return FaultReport(
            injected_events=len(self._pending),
            applied_events=len(self.applied),
            pending_events=len(self._pending) - len(self.applied),
            events=list(self.applied),
            crashed_nodes=sorted(self.crashed),
            dropped_messages=0 if faults is None else faults.dropped_messages,
        )
