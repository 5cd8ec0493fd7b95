"""Benchmark-owned checks: ``python -m pytest perfbench`` from the repo root.

Not part of the tier-1 suite (``testpaths`` is ``tests``): the determinism
check runs every workload three times in fresh processes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.config import CSMConfig  # noqa: E402
from repro.core.protocol import CSMProtocol  # noqa: E402
from repro.exceptions import ConsensusError  # noqa: E402
from repro.faults import FaultSchedule  # noqa: E402
from repro.gf.prime_field import PrimeField  # noqa: E402
from repro.machine.library import bank_account_machine  # noqa: E402
from repro.rng import default_stream  # noqa: E402
from repro.service import CSMService, RetryPolicy, TicketState  # noqa: E402


def test_manifest_matches_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest(WORKLOADS)


def _fingerprint(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    (line,) = [line for line in lines if line.startswith("fingerprint ")]
    return json.loads(line.removeprefix("fingerprint "))


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_counters_repeat_across_runs_and_tracing(workload):
    """Tracing and tick pacing must not change what the program does."""
    first = _fingerprint(workload, trace=0)
    assert _fingerprint(workload, trace=0) == first
    assert _fingerprint(workload, trace=1) == first


def _small_service(faults: FaultSchedule, partially_synchronous: bool = True):
    machine = bank_account_machine(PrimeField(), num_accounts=2)
    config = CSMConfig(
        field=machine.field,
        num_nodes=16,
        num_machines=4,
        degree=machine.degree,
        num_faults=2,
        partially_synchronous=partially_synchronous,
    )
    backend = CSMProtocol(config, machine, rng=default_stream(3))
    service = CSMService(
        backend, faults=faults, retry=RetryPolicy(max_attempts=4, backoff_ticks=1)
    )
    return service, service.connect("client"), default_stream(4)


@pytest.mark.xfail(
    strict=True,
    reason="the recover event of crash('@primary', at, until) resolves '@primary' "
    "again at round `until`, recovers that round's primary instead and leaves "
    "the crashed node down for good",
)
def test_adaptive_primary_crash_recovers():
    service, session, commands = _small_service(
        FaultSchedule().crash("@primary", at=5, until=8)
    )
    for _ in range(12):
        for k in range(4):
            session.submit(k, commands.integers(1, 1000, size=service.command_dim))
        service.drive()
    assert service.fault_injector.crashed == set()


@pytest.mark.xfail(
    strict=True,
    reason="a dropped node, a partition or a psync delay burst halts the service "
    "for good: a PBFT view needs every honest node to decide and the broadcast "
    "oracle drops a view when any honest node saw no proposal, so the round "
    "never completes and the round-keyed heal event never fires",
)
@pytest.mark.parametrize(
    "partially_synchronous, fault",
    [
        (False, lambda s: s.drop_node("node-3", at=5, until=7)),
        (True, lambda s: s.drop_node("node-3", at=5, until=7)),
        (False, lambda s: s.partition(
            [[f"node-{i}" for i in range(8)], [f"node-{i}" for i in range(8, 16)]],
            at=5, until=7,
        )),
        (True, lambda s: s.delay(0.5, at=5, until=7)),
    ],
    ids=["sync-drop-node", "psync-drop-node", "sync-partition", "psync-delay"],
)
def test_isolation_window_heals(partially_synchronous, fault):
    schedule = FaultSchedule()
    fault(schedule)
    service, session, commands = _small_service(schedule, partially_synchronous)
    for _ in range(30):
        for k in range(4):
            session.submit(k, commands.integers(1, 1000, size=service.command_dim))
        try:
            service.drive()
        except ConsensusError:
            pass  # the halted round fails its tickets (BACKEND_ERROR) and raises
    states = Counter(ticket.state for ticket in session.tickets)
    assert states == Counter({TicketState.EXECUTED: 120}), states
    assert len(service.backend.history) >= 30
