"""Shared fixtures for the benchmark suite (pytest-benchmark).

Every benchmark module regenerates one table or figure of the paper (see the
experiment index in DESIGN.md); the `benchmark` fixture times the workload
while the assertions check that the qualitative shape the paper reports
still holds.
"""

import numpy as np
import pytest

from repro.gf.prime_field import PrimeField


def pytest_addoption(parser):
    parser.addoption(
        "--batched-protocol",
        action="store_true",
        default=False,
        help=(
            "Drive the end-to-end protocol benchmarks through "
            "CSMProtocol.run_rounds_batched (decide_rounds + deliver_all + "
            "execute_rounds) instead of the sequential run_round loop."
        ),
    )


    parser.addoption(
        "--service",
        action="store_true",
        default=False,
        help=(
            "Drive the end-to-end protocol benchmarks through the "
            "client-session service (CSMService sessions + RoundScheduler "
            "batches) instead of the lockstep entry points."
        ),
    )

    parser.addoption(
        "--shards",
        action="store",
        type=int,
        default=2,
        help=(
            "Shard count for the sharded-service benchmarks "
            "(ShardedCSMService with one consensus instance per shard)."
        ),
    )

    parser.addoption(
        "--consensus-only",
        action="store_true",
        default=False,
        help=(
            "Enable the consensus-phase micro-benchmark "
            "(scaling.consensus_rows: decisions/sec for the vectorised "
            "message plane versus the event-driven oracle, plus the "
            "consensus-over-execution wall-clock ratio)."
        ),
    )

    parser.addoption(
        "--consensus-oracle",
        action="store_true",
        default=False,
        help=(
            "Pin the end-to-end protocol benchmarks to the event-driven "
            "consensus oracle (vectorised_consensus=False), so CI exercises "
            "the reference path alongside the message-plane fast path."
        ),
    )

    parser.addoption(
        "--traffic",
        action="store_true",
        default=False,
        help=(
            "Enable the open-loop traffic benchmarks (OpenLoopDriver over "
            "Poisson/bursty arrivals under a QosPolicy: latency percentiles "
            "in logical ticks, weighted-fair slot shares, bounded queues)."
        ),
    )

    parser.addoption(
        "--chaos",
        action="store_true",
        default=False,
        help=(
            "Enable the chaos benchmarks (bench_fig_chaos: deterministic "
            "fault schedules over the service — crash/recover with resync, "
            "beyond-radius corrupt bursts retried by RetryPolicy, and the "
            "fault-free overhead ratio pinned at 1.0)."
        ),
    )

    parser.addoption(
        "--delegation",
        action="store_true",
        default=False,
        help=(
            "Enable the delegated-verification round benchmarks "
            "(scaling.delegation_rows: DelegationRoundProtocol batched vs "
            "scalar INTERMIX, including the >= 3x batched-speedup and "
            "bit-identity gate at the largest configuration)."
        ),
    )

    parser.addoption(
        "--intermix",
        action="store_true",
        default=False,
        help=(
            "Enable the INTERMIX engine benchmarks "
            "(IntermixProtocol.run_batch vs the scalar run oracle: stacked "
            "matrix products, committee reuse, bit-identical outcomes)."
        ),
    )

    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "Write the BENCH_throughput.json artifact (config plus "
            "commands/sec per mode) to PATH, so the perf trajectory is "
            "tracked across PRs.  Enables test_throughput_json_artifact."
        ),
    )


@pytest.fixture(scope="session")
def batched_protocol(request) -> bool:
    """Whether ``--batched-protocol`` was passed on the command line."""
    return bool(request.config.getoption("--batched-protocol"))


@pytest.fixture(scope="session")
def service_mode(request) -> bool:
    """Whether ``--service`` was passed on the command line."""
    return bool(request.config.getoption("--service"))


@pytest.fixture(scope="session")
def shard_count(request) -> int:
    """The ``--shards`` value for the sharded-service benchmarks."""
    return int(request.config.getoption("--shards"))


@pytest.fixture(scope="session")
def consensus_only_mode(request) -> bool:
    """Whether ``--consensus-only`` was passed on the command line."""
    return bool(request.config.getoption("--consensus-only"))


@pytest.fixture(scope="session")
def consensus_oracle_mode(request) -> bool:
    """Whether ``--consensus-oracle`` was passed on the command line."""
    return bool(request.config.getoption("--consensus-oracle"))


@pytest.fixture(scope="session")
def traffic_mode(request) -> bool:
    """Whether ``--traffic`` was passed on the command line."""
    return bool(request.config.getoption("--traffic"))


@pytest.fixture(scope="session")
def chaos_mode(request) -> bool:
    """Whether ``--chaos`` was passed on the command line."""
    return bool(request.config.getoption("--chaos"))


@pytest.fixture(scope="session")
def delegation_mode(request) -> bool:
    """Whether ``--delegation`` was passed on the command line."""
    return bool(request.config.getoption("--delegation"))


@pytest.fixture(scope="session")
def intermix_mode(request) -> bool:
    """Whether ``--intermix`` was passed on the command line."""
    return bool(request.config.getoption("--intermix"))


@pytest.fixture(scope="session")
def json_artifact_path(request) -> "str | None":
    """The ``--json`` artifact path, or None when not requested."""
    return request.config.getoption("--json")


@pytest.fixture(scope="session")
def field():
    return PrimeField()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
