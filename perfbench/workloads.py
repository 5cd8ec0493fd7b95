"""The benchmark's workloads, driven only through the public client API.

Every workload builds its backend and a :class:`~repro.service.CSMService`
from the seed, warms up, and then runs a timed phase whose commands are the
latency sample.  Two load shapes exist:

* :class:`ClosedLoop` — a fixed population of clients per machine, each
  holding one outstanding ticket and submitting its next command as soon as
  that ticket resolves.  The timed phase runs whole *cycles* of
  ``CYCLE_DRIVES`` drives (128 rounds of 8), so at N=128 every timed cycle
  contains the same number of rounds led by the Byzantine high-id nodes.
* :class:`OpenLoop` — an :class:`~repro.service.traffic.OpenLoopDriver`
  stepped once per fixed wall-clock tick.  A late tick starts at once, and
  latency counts from each tick's due time, so a stall is charged to every
  command it delays.  Arrivals are bucketed per tick, so the logical run
  (rounds, retries, counters) does not depend on the machine's speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import checks
from repro.analysis.metrics import csm_supported_machines
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.faults import FaultSchedule
from repro.gf.prime_field import PrimeField
from repro.intermix.rounds import DelegationRoundProtocol
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior
from repro.rng import default_stream, derived_stream
from repro.service import CSMService, QosPolicy, RetryPolicy
from repro.service.traffic import OpenLoopDriver, PoissonProcess

clock = time.perf_counter

#: Fault fraction mu the CSM backends are sized for (Theorem 1).
MU = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build(seed, seconds)`` makes the backend, service and load.
    build: Callable[[int, float], "Loop"]
    #: Raises :class:`checks.GuardError` unless the run hit the mechanism.
    guard: Callable[["Loop", dict], None]


class Loop:
    """Shared book-keeping: per-drive wall times keyed by service tick."""

    #: Drive calls of the traced-vs-untraced replay behind ``trace.overhead``.
    REPLAY_DRIVES = 0

    def __init__(self, service: CSMService) -> None:
        self.service = service
        self.backend = service.backend
        self.drive_start: dict[int, float] = {}
        self.drive_end: dict[int, float] = {}
        #: ``(ticket, start)`` for every command of the timed phase; start is
        #: the submit time (closed loop) or the tick's due time (open loop).
        self.samples: list[tuple[object, float]] = []
        #: ``(ticks, wall start, wall end)`` of each measurement window: the
        #: closed loop's cycles, or the open loop's whole timed phase.
        self.windows: list[tuple[range, float, float]] = []
        self.timed_first_round = 0
        self.timed_last_round = 0
        #: How late each paced tick started (open loop only), in seconds.
        self.gen_late: list[float] = []
        #: :func:`checks.fingerprint` at a fixed-work point of the timed phase.
        self.counters: dict[str, object] = {}
        self.peak_rss_mb = 0.0

    def drive(self, method: Callable[[], object]) -> None:
        start = clock()
        method()
        end = clock()
        tick = self.service.clock.now
        self.drive_start[tick] = start
        self.drive_end[tick] = end

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_timed(self, seconds: float, on_fingerprint: Callable[[], None]) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Resolve what the timed phase left in flight (untimed, untraced)."""

    @property
    def sessions(self) -> list:
        raise NotImplementedError

    def replay(self) -> None:
        """Run the first ``REPLAY_DRIVES`` drive calls of the workload unpaced."""
        raise NotImplementedError


class ClosedLoop(Loop):
    CYCLE_DRIVES = 16
    WARMUP_DRIVES = 2
    REPLAY_DRIVES = 4
    MAX_DRAIN_DRIVES = 64

    def __init__(self, service: CSMService, clients_per_machine: int, rng) -> None:
        super().__init__(service)
        self._rng = rng
        self._dim = service.command_dim
        self.slots = [
            (k, service.connect(f"client:{k}:{c}"))
            for k in range(service.num_machines)
            for c in range(clients_per_machine)
        ]
        self.outstanding: list = [None] * len(self.slots)
        self._recording = False

    def _refill(self) -> None:
        now = clock()
        for index, (machine, session) in enumerate(self.slots):
            ticket = self.outstanding[index]
            if ticket is None or ticket.done:
                ticket = session.submit(
                    machine, self._rng.integers(1, 1000, size=self._dim)
                )
                self.outstanding[index] = ticket
                if self._recording:
                    self.samples.append((ticket, now))

    def _step(self) -> None:
        self.drive(self.service.drive)
        self._refill()

    def warm_up(self) -> None:
        self._refill()
        for _ in range(self.WARMUP_DRIVES):
            self._step()

    def run_timed(self, seconds: float, on_fingerprint: Callable[[], None]) -> None:
        self.timed_first_round = len(self.backend.history)
        self._recording = True
        start = clock()
        while not self.windows or clock() - start < seconds:
            first_tick, cycle_start = self.service.clock.now + 1, clock()
            for _ in range(self.CYCLE_DRIVES):
                self._step()
            ticks = range(first_tick, self.service.clock.now + 1)
            self.windows.append((ticks, cycle_start, clock()))
            if len(self.windows) == 1:
                on_fingerprint()
        self.timed_last_round = len(self.backend.history)
        self._recording = False

    def finish(self) -> None:
        for _ in range(self.MAX_DRAIN_DRIVES):
            if all(ticket.done for ticket in self.outstanding):
                break
            self.drive(self.service.drive)

    @property
    def sessions(self) -> list:
        return [session for _, session in self.slots]

    def replay(self) -> None:
        self._refill()
        for _ in range(self.REPLAY_DRIVES):
            self._step()


class OpenLoop(Loop):
    WARMUP_TICKS = 8
    MAX_DRAIN_TICKS = 400
    REPLAY_DRIVES = 80
    #: Fault episodes are keyed by backend round: episode ``e`` starts at
    #: round ``FIRST_EPISODE_ROUND + e * EPISODE_ROUNDS``.  The warm-up runs
    #: fewer rounds than FIRST_EPISODE_ROUND (a tick runs a handful at most).
    FIRST_EPISODE_ROUND = 4 * WARMUP_TICKS
    EPISODE_ROUNDS = 150
    #: Rounds per tick assumed when sizing episodes (about 2.2 are run).
    ROUNDS_PER_TICK = 2

    def __init__(
        self,
        service: CSMService,
        traffic: OpenLoopDriver,
        tick_s: float,
        ticks: int,
    ) -> None:
        super().__init__(service)
        self.traffic = traffic
        self.tick_s = tick_s
        self.ticks = ticks
        self.due: dict[int, float] = {}

    @classmethod
    def plan(cls, seconds: float, tick_s: float) -> tuple[int, int]:
        """``(ticks, fault episodes)`` for a timed phase of ``seconds``."""
        ticks = max(int(round(seconds / tick_s)), 1)
        rounds = cls.ROUNDS_PER_TICK * ticks - cls.FIRST_EPISODE_ROUND
        episodes = max(rounds // cls.EPISODE_ROUNDS, 1)
        min_ticks = (
            cls.FIRST_EPISODE_ROUND + episodes * cls.EPISODE_ROUNDS
        ) // cls.ROUNDS_PER_TICK
        return max(ticks, min_ticks), episodes

    def warm_up(self) -> None:
        for _ in range(self.WARMUP_TICKS):
            self.drive(self.traffic.step)

    def run_timed(self, seconds: float, on_fingerprint: Callable[[], None]) -> None:
        self.timed_first_round = len(self.backend.history)
        first_tick = self.service.clock.now
        start = clock()
        for index in range(self.ticks):
            self._paced(start + index * self.tick_s, self.traffic.step)
        self.samples = [
            (ticket, self.due[ticket.submitted_tick])
            for session in self.sessions
            for ticket in session.tickets
            if ticket.submitted_tick >= first_tick
        ]
        # Keep ticking, without arrivals, until the backlog and retries drain.
        index = self.ticks
        while index < self.ticks + self.MAX_DRAIN_TICKS and not all(
            ticket.done for ticket, _ in self.samples
        ):
            self._paced(start + index * self.tick_s, self.service.drive)
            index += 1
        # One measurement window: the fault episodes make the latency
        # distribution a mixture (own-tick drives, stall backlog), and only
        # the whole run holds a steady share of each.
        self.windows.append(
            (range(first_tick + 1, self.service.clock.now + 1), start, clock())
        )
        self.timed_last_round = len(self.backend.history)
        on_fingerprint()

    def _paced(self, due: float, method: Callable[[], object]) -> None:
        # Spin rather than sleep: a sleeping generator hands the core back,
        # and each drive then starts on a cold, possibly slowed-down CPU.
        while clock() < due:
            pass
        self.gen_late.append(clock() - due)
        self.due[self.service.clock.now] = due
        self.drive(method)

    @property
    def sessions(self) -> list:
        return self.traffic.sessions

    def replay(self) -> None:
        for _ in range(self.REPLAY_DRIVES):
            self.drive(self.traffic.step)


# -- the three workloads ----------------------------------------------------------------


def _machine():
    return bank_account_machine(PrimeField(), num_accounts=2)


def build_sync_saturate(seed: int, _seconds: float) -> ClosedLoop:
    """CSMProtocol, sync (authenticated broadcast), N=128, K=38, 25 garbage nodes."""
    root = default_stream(seed)
    machine = _machine()
    num_nodes = 128
    num_faults = int(MU * num_nodes)
    num_machines = max(csm_supported_machines(num_nodes, MU, machine.degree) // 2, 1)
    config = CSMConfig(
        field=machine.field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=num_faults,
    )
    # Faults on the highest node ids, as the scaling experiments place them.
    behaviors = {
        f"node-{num_nodes - 1 - i}": RandomGarbageBehavior() for i in range(num_faults)
    }
    backend = CSMProtocol(config, machine, behaviors, rng=derived_stream(root))
    return ClosedLoop(CSMService(backend), 16, derived_stream(root))


def build_delegated_saturate(seed: int, _seconds: float) -> ClosedLoop:
    """DelegationRoundProtocol, N=128, K=32, mu=0.2, honest worker."""
    root = default_stream(seed)
    backend = DelegationRoundProtocol(
        _machine(),
        32,
        [f"node-{i}" for i in range(128)],
        fault_fraction=MU,
        rng=derived_stream(root),
    )
    return ClosedLoop(CSMService(backend), 16, derived_stream(root))


#: Open-loop tick length.  32 sessions x Poisson(0.5) per 60 ms tick offers
#: about half of what the service drains on a 2-core x86 VM.
TICK_S = 0.060


def psync_fault_schedule(rng, backend: CSMProtocol, episodes: int) -> FaultSchedule:
    """Per episode: a crash of the primary and an 18-node corrupt burst; once,
    a dropped link.

    Events are keyed by backend round; each episode repeats with nodes and a
    small round jitter drawn from ``rng``.
    """
    nodes = backend.node_ids
    schedule = FaultSchedule()
    for episode in range(episodes):
        base = OpenLoop.FIRST_EPISODE_ROUND + episode * OpenLoop.EPISODE_ROUNDS
        crash_at, burst_at, link_at = base + rng.integers(0, 4, size=3) + (5, 45, 90)
        # The crashed primary is named, not "@primary": the recover event
        # would resolve "@primary" again at its own round, recover a
        # different node and leave the primary down for good.
        primary = backend.resolve_fault_target("@primary", int(crash_at))
        schedule.crash(primary, at=int(crash_at), until=int(crash_at) + 3)
        # 18 corrupt rows exceed the decode radius (b <= 16 at N=64, K=32,
        # d=1) but stay below PBFT's f=21: the round fails verification and
        # its commands retry.
        for index in sorted(rng.choice(len(nodes), size=18, replace=False)):
            schedule.behavior(
                nodes[int(index)], "corrupt", at=int(burst_at), until=int(burst_at) + 1
            )
        # A directed link only: a dropped node halts the service for good
        # (see test_perfbench.test_isolation_window_heals).  Once per run:
        # each window delays about as many commands as a failed round.
        if episode == 0:
            sender, recipient = rng.choice(len(nodes), size=2, replace=False)
            schedule.drop_link(
                nodes[int(sender)], nodes[int(recipient)], at=int(link_at), until=int(link_at) + 3
            )
    return schedule


def build_psync_open(seed: int, seconds: float) -> OpenLoop:
    """PBFT N=64, K=32, weighted-fair QoS, retry, and a fault schedule."""
    root = default_stream(seed)
    machine = _machine()
    num_nodes = 64
    config = CSMConfig(
        field=machine.field,
        num_nodes=num_nodes,
        num_machines=32,
        degree=machine.degree,
        num_faults=8,
        partially_synchronous=True,
    )
    backend = CSMProtocol(config, machine, rng=derived_stream(root))
    ticks, episodes = OpenLoop.plan(seconds, TICK_S)
    service = CSMService(
        backend,
        qos=QosPolicy(
            selection="weighted_fair",
            session_weights={"traffic:0": 2},
            max_session_pending=64,
        ),
        retry=RetryPolicy(max_attempts=4, backoff_ticks=1),
        faults=psync_fault_schedule(derived_stream(root), backend, episodes),
    )
    traffic = OpenLoopDriver(service, PoissonProcess(0.5), 32, rng=derived_stream(root))
    return OpenLoop(service, traffic, TICK_S, ticks)


WORKLOADS = (
    Workload(
        "sync-saturate-n128",
        "ROADMAP headline point: sync CSM at N=128, full rounds, so consensus "
        "and signature work dominate; scheduler, fault and INTERMIX work should not show",
        build_sync_saturate,
        checks.guard_sync_saturate,
    ),
    Workload(
        "psync-open-faults-n64",
        "open-loop PBFT at N=64 with ragged rounds, QoS, retries, a primary crash, "
        "a beyond-radius burst and a dropped link: scheduler, decode and tail latency",
        build_psync_open,
        checks.guard_psync_open,
    ),
    Workload(
        "delegated-saturate-n128",
        "INTERMIX-delegated rounds at N=128 with no consensus or network: "
        "gf, lcc and intermix work dominate; consensus work should show no change",
        build_delegated_saturate,
        checks.guard_delegated_saturate,
    ),
)
