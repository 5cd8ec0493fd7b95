"""Unit tests for the sharded service façade.

Covers the partition/routing surface (global machine indices to per-shard
local slots, balanced contiguous partitions), the global-uniqueness of
ticket sequences across shard pools, per-shard failure isolation (a failed
round on one shard must not touch another shard's tickets), the merged
reporting view (global round indices, per-shard throughput widths), and the
tick policies (all shards per tick vs round robin).
"""

import numpy as np
import pytest

from repro.consensus.command_pool import SequenceAllocator
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior
from repro.replication import FullReplicationSMR, ReplicationProtocol
from repro.service import (
    CSMService,
    FailureReason,
    ShardedCSMService,
    TicketState,
)
from repro.service.sharding import partition_machines


def _replication_backend(field, num_machines=2, num_nodes=4, behaviors=None, seed=0):
    machine = bank_account_machine(field, num_accounts=2)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    engine = FullReplicationSMR(
        machine, num_machines, node_ids, behaviors, np.random.default_rng(seed)
    )
    return ReplicationProtocol(engine)


def _csm_backend(field, num_machines=2, num_nodes=8, seed=3):
    machine = bank_account_machine(field, num_accounts=2)
    config = CSMConfig(
        field=field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=1,
    )
    return CSMProtocol(config, machine, rng=np.random.default_rng(seed))


def _sharded(field, shard_sizes=(2, 2), **kwargs):
    backends = [
        _replication_backend(field, num_machines=size, seed=i)
        for i, size in enumerate(shard_sizes)
    ]
    return ShardedCSMService(backends, **kwargs)


class TestPartition:
    def test_balanced_contiguous_sizes(self):
        assert partition_machines(6, 2) == [3, 3]
        assert partition_machines(7, 3) == [3, 2, 2]
        assert partition_machines(3, 3) == [1, 1, 1]

    def test_invalid_partitions_raise(self):
        with pytest.raises(ConfigurationError):
            partition_machines(4, 0)
        with pytest.raises(ConfigurationError):
            partition_machines(2, 3)  # a shard would be empty

    def test_from_partition_checks_backend_width(self, big_field):
        with pytest.raises(ConfigurationError, match="partition requires"):
            ShardedCSMService.from_partition(
                4, 2, lambda s, size: _replication_backend(big_field, size + 1)
            )
        service = ShardedCSMService.from_partition(
            5, 2, lambda s, size: _replication_backend(big_field, size, seed=s)
        )
        assert service.num_machines == 5
        assert [shard.num_machines for shard in service.shards] == [3, 2]

    def test_configuration_validation(self, big_field):
        with pytest.raises(ConfigurationError):
            ShardedCSMService([])
        with pytest.raises(ConfigurationError):
            ShardedCSMService([object()])
        with pytest.raises(ConfigurationError):
            _sharded(big_field, tick_mode="zigzag")


class TestRouting:
    def test_global_indices_route_to_owning_shard(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 3))
        assert service.num_machines == 5
        assert service.shard_of(0) == (0, 0)
        assert service.shard_of(1) == (0, 1)
        assert service.shard_of(2) == (1, 0)
        assert service.shard_of(4) == (1, 2)
        with pytest.raises(ConfigurationError):
            service.shard_of(5)
        with pytest.raises(ConfigurationError):
            service.shard_of(-1)

    def test_ticket_reports_global_machine_index(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        ticket = service.connect("alice").submit(3, [7, 7])
        assert ticket.machine_index == 3  # not the shard-local slot 1
        service.drain()
        assert ticket.state is TicketState.EXECUTED
        np.testing.assert_array_equal(ticket.result(), [7, 7])

    def test_submission_lands_in_one_shard_only(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        service.connect("alice").submit(2, [1, 1])
        assert service.shards[0].pending_commands() == 0
        assert service.shards[1].pending_commands() == 1
        assert service.pending_commands() == 1


class TestSequenceUniqueness:
    def test_sequences_unique_and_submission_ordered_across_shards(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        session = service.connect("alice")
        # Interleave submissions across both shards.
        tickets = [session.submit(m, [m, m]) for m in (0, 2, 1, 3, 2, 0)]
        sequences = [t.sequence for t in tickets]
        assert sequences == list(range(6))  # globally unique AND ordered
        assert [t.sequence for t in service.tickets()] == sequences

    def test_shared_allocator_spans_every_shard_pool(self, big_field):
        service = _sharded(big_field, shard_sizes=(1, 1, 1))
        for shard in service.shards:
            assert shard.pool.sequence_source is service.sequence_source
        service.connect("a").submit(0, [1, 1])
        service.connect("b").submit(2, [2, 2])
        assert service.sequence_source.issued == 2


class TestFailureIsolation:
    def test_failed_shard_round_spares_other_shards(self, big_field):
        # Shard 1's replicas are mostly Byzantine: its round cannot verify.
        # Shard 0 is healthy — its ticket must execute untouched.
        node_ids = [f"node-{i}" for i in range(4)]
        bad = {n: RandomGarbageBehavior() for n in node_ids[:3]}
        backends = [
            _replication_backend(big_field, num_machines=2, seed=0),
            _replication_backend(big_field, num_machines=2, behaviors=bad, seed=1),
        ]
        service = ShardedCSMService(backends)
        healthy = service.connect("alice").submit(0, [5, 5])
        doomed = service.connect("bob").submit(2, [9, 9])
        service.drain()
        assert healthy.state is TicketState.EXECUTED
        np.testing.assert_array_equal(healthy.result(), [5, 5])
        assert doomed.state is TicketState.FAILED
        assert doomed.failure_reason is FailureReason.VERIFICATION_FAILED
        assert service.failed_rounds == 1
        assert not service.all_rounds_correct
        # The merged failure ledger names the global round index of the
        # failed shard round, and only bob's round is in it.
        assert "bob" in service.failed_deliveries
        assert "alice" not in service.failed_deliveries

    def test_exploding_shard_fails_only_its_tickets(self, big_field):
        class ExplodingBackend(ReplicationProtocol):
            def run_rounds_batched(self, command_batches, client_rounds=None):
                raise RuntimeError("shard 1 down")

        machine = bank_account_machine(big_field, num_accounts=2)
        node_ids = [f"node-{i}" for i in range(4)]
        backends = [
            _replication_backend(big_field, num_machines=2, seed=0),
            ExplodingBackend(
                FullReplicationSMR(
                    machine, 2, node_ids, rng=np.random.default_rng(1)
                )
            ),
        ]
        service = ShardedCSMService(backends)
        healthy = service.connect("alice").submit(1, [3, 3])
        doomed = service.connect("bob").submit(2, [4, 4])
        with pytest.raises(RuntimeError, match="shard 1 down"):
            service.drive(flush=True)
        # Shard 0 was driven before shard 1 raised; its ticket executed.
        assert healthy.state is TicketState.EXECUTED
        assert doomed.state is TicketState.FAILED
        assert doomed.failure_reason is FailureReason.BACKEND_ERROR


class TestMergedReporting:
    def test_global_round_indices_are_deterministic(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        session = service.connect("alice")
        # Shard 1 gets a deeper queue than shard 0: global history must
        # interleave per tick in shard order, shard-local order within.
        session.submit(0, [1, 1])
        session.submit(2, [2, 2])
        session.submit(2, [3, 3])
        records = service.drain()
        assert [r.round_index for r in records] == [0, 1, 2]
        assert [r.round_index for r in service.history] == [0, 1, 2]
        assert [(r.shard_index, r.shard_round_index) for r in records] == [
            (0, 0),
            (1, 0),
            (1, 1),
        ]

    def test_merged_delivery_and_throughput_views(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        service.connect("alice").submit(0, [1, 1])
        service.connect("bob").submit(3, [2, 2])
        service.drain()
        delivered = service.delivered_outputs
        np.testing.assert_array_equal(delivered["alice"][0], [1, 1])
        np.testing.assert_array_equal(delivered["bob"][0], [2, 2])
        assert service.failed_rounds == 0
        assert service.all_rounds_correct
        assert service.measured_throughput() > 0

    def test_throughput_charges_each_round_at_shard_width(self, big_field):
        # Unequal shard widths: the merged mean must use each round's own
        # K_s, reproducing the mean of the per-shard reports.
        service = _sharded(big_field, shard_sizes=(1, 3))
        for m in range(4):
            service.connect("c").submit(m, [1, 1])
        service.drain()
        per_round = []
        for record in service.history:
            per_round.append(record.result.throughput(record.shard_num_machines))
        assert service.measured_throughput() == pytest.approx(
            float(np.mean(per_round))
        )


class TestTickModes:
    def test_all_mode_advances_every_shard_per_tick(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        service.connect("a").submit(0, [1, 1])
        service.connect("b").submit(2, [2, 2])
        records = service.drive(flush=True)
        assert len(records) == 2
        assert {r.shard_index for r in records} == {0, 1}

    def test_round_robin_advances_one_shard_per_tick(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2), tick_mode="round_robin")
        service.connect("a").submit(0, [1, 1])
        service.connect("b").submit(2, [2, 2])
        first = service.drive(flush=True)
        assert [r.shard_index for r in first] == [0]
        second = service.drive(flush=True)
        assert [r.shard_index for r in second] == [1]
        assert service.pending_commands() == 0
        # drain() keeps cycling the cursor until every shard is dry.
        service.connect("a").submit(1, [3, 3])
        service.connect("b").submit(3, [4, 4])
        assert len(service.drain()) == 2

    def test_round_robin_drain_skips_idle_shards(self, big_field):
        # Regression: drain() used to raise "made no progress" when the
        # cursor landed on an idle shard while another shard held traffic;
        # an idle tick only counts as a stall after a full fruitless cycle.
        service = _sharded(
            big_field, shard_sizes=(2, 2, 2), tick_mode="round_robin"
        )
        ticket = service.connect("alice").submit(4, [6, 6])  # last shard only
        records = service.drain()
        assert ticket.state is TicketState.EXECUTED
        assert [r.shard_index for r in records] == [2]
        assert service.pending_commands() == 0

    def test_single_shard_is_a_pass_through(self, big_field):
        backend = _csm_backend(big_field)
        sharded = ShardedCSMService([backend])
        ticket = sharded.connect("alice").submit(1, [8, 8])
        records = sharded.drain()
        assert ticket.state is TicketState.EXECUTED
        assert len(records) == 1 and records[0].shard_index == 0
        assert sharded.measured_throughput() == backend.measured_throughput()
        # And an identically-built unsharded service agrees bit for bit.
        unsharded = CSMService(_csm_backend(big_field))
        unsharded.connect("alice").submit(1, [8, 8])
        (plain,) = unsharded.drain()
        np.testing.assert_array_equal(records[0].commands, plain.commands)
        assert records[0].clients == plain.clients
        np.testing.assert_array_equal(
            records[0].result.outputs, plain.result.outputs
        )


class TestShardHealth:
    """Per-shard health tracking: degradation, shedding, probe recovery."""

    def _burst(self, at, until, nodes=4):
        # Four corrupt rows exceed the N=8, K=2 decode radius (3).
        from repro.faults import FaultSchedule

        schedule = FaultSchedule()
        for i in range(nodes):
            schedule.behavior(f"node-{i}", "corrupt", at=at, until=until)
        return schedule

    def test_degraded_shard_sheds_then_probes_back_to_health(self, big_field):
        from repro.service import RetryPolicy, ShardHealth

        service = ShardedCSMService(
            [_csm_backend(big_field, seed=0), _csm_backend(big_field, seed=1)],
            retry=RetryPolicy(max_attempts=5, backoff_ticks=1),
            faults={1: self._burst(at=0, until=3)},
            degraded_after=2,
        )
        session = service.connect("alice")
        doomed = [session.submit(2, [10 + r, 0]) for r in range(3)]
        service.drive(flush=True)  # shard 1 fails rounds 0..2 consecutively
        assert service.shard_health(0) is ShardHealth.HEALTHY
        assert service.shard_health(1) is ShardHealth.DEGRADED
        # while the retry backlog probes, new admissions to shard 1 are shed
        shed = session.submit(2, [99, 0])
        assert shed.state is TicketState.THROTTLED
        # ...but shard 0 still admits
        fine = session.submit(0, [7, 7])
        assert fine.state is TicketState.PENDING
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in doomed)
        assert fine.state is TicketState.EXECUTED
        assert service.shard_health(1) is ShardHealth.HEALTHY
        timeline = service.qos_report()["health_timeline"]
        assert [entry["state"] for entry in timeline if entry["shard"] == 1] == [
            "degraded",
            "healthy",
        ]

    def test_degraded_shard_without_backlog_admits_probes(self, big_field):
        from repro.service import ShardHealth

        node_ids = [f"node-{i}" for i in range(4)]
        bad = {n: RandomGarbageBehavior() for n in node_ids[:3]}
        service = ShardedCSMService(
            [
                _replication_backend(big_field, seed=0),
                _replication_backend(big_field, behaviors=bad, seed=1),
            ],
            degraded_after=1,
        )
        doomed = service.connect("bob").submit(2, [9, 9])
        service.drain()
        assert doomed.state is TicketState.FAILED
        assert service.shard_health(1) is ShardHealth.DEGRADED
        # no backlog is left, so the next submission is admitted as a probe
        probe = service.connect("bob").submit(2, [4, 4])
        assert probe.state is TicketState.PENDING

    def test_facade_merges_shard_fault_reports(self, big_field):
        from repro.service import RetryPolicy

        schedule = self._burst(at=0, until=1)
        service = ShardedCSMService(
            [_csm_backend(big_field, seed=0), _csm_backend(big_field, seed=1)],
            retry=RetryPolicy(max_attempts=3, backoff_ticks=1),
            faults={1: schedule},
        )
        session = service.connect("alice")
        tickets = [session.submit(k, [5, k]) for k in range(4)]
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in tickets)
        report = service.fault_report()
        assert report.injected_events == len(schedule.events)
        assert report.applied_events == len(schedule.events)
        assert report.recovered_tickets >= 1
        merged = service.qos_report()
        assert merged["faults"]["injected_events"] == report.injected_events
        assert merged["shard_health"] == ["healthy", "healthy"]
