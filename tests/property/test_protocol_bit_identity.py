"""Property tests for the batched protocol round path.

:meth:`CSMProtocol.run_rounds_batched` takes a different route through every
layer — consensus rounds decided through ``decide_rounds`` over the
vectorised message plane, coded execution through the speculative
``execute_rounds_pipelined`` engine (pivot-only speculation, stacked
per-window verification, rollback and replay on a mismatch) — yet the
recorded :class:`ProtocolRound` history must agree *bit for bit* with the
scalar ``run_round`` loop, across both network models and arbitrary
admissible Byzantine fault patterns, including nodes that turn Byzantine
mid-batch (the rollback path's worst case: the decoder trusted them as
pivots until their first bad round).
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    DelayingBehavior,
    EquivocatingBehavior,
    FaultOnsetBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
)

FIELD = PrimeField()

relaxed = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BEHAVIOR_FACTORIES = (
    RandomGarbageBehavior,
    SilentBehavior,
    EquivocatingBehavior,
    DelayingBehavior,
    lambda: CorruptResultBehavior(offset=3),
)


def _largest_valid_config(
    num_nodes: int, num_faults: int, degree: int, partially_synchronous: bool
) -> CSMConfig | None:
    """The widest configuration (capped at K=4) the bounds admit, or None."""
    for k in range(min(4, num_nodes), 0, -1):
        try:
            return CSMConfig(
                FIELD,
                num_nodes=num_nodes,
                num_machines=k,
                degree=degree,
                num_faults=num_faults,
                partially_synchronous=partially_synchronous,
            )
        except ConfigurationError:
            continue
    return None


class TestBatchedProtocolBitIdentity:
    @relaxed
    @given(data=st.data())
    def test_history_matches_sequential_loop(self, data):
        partially_synchronous = data.draw(st.booleans(), label="psync")
        num_nodes = data.draw(st.sampled_from([6, 9, 10, 12]), label="N")
        quadratic = data.draw(st.booleans(), label="quadratic")
        machine = (
            quadratic_market_machine(FIELD)
            if quadratic
            else bank_account_machine(FIELD, num_accounts=2)
        )
        fault_cap = (num_nodes - 1) // 3 if partially_synchronous else num_nodes // 4
        num_faults = data.draw(st.integers(0, min(2, fault_cap)), label="b")
        config = _largest_valid_config(
            num_nodes, num_faults, machine.degree, partially_synchronous
        )
        if config is None:
            return  # bounds leave no admissible K for this draw
        fault_indices = data.draw(
            st.lists(
                st.integers(0, num_nodes - 1),
                min_size=num_faults,
                max_size=num_faults,
                unique=True,
            ),
            label="fault_indices",
        )
        num_rounds = data.draw(st.integers(1, 6), label="rounds")
        behaviors = {}
        for index in fault_indices:
            inner = BEHAVIOR_FACTORIES[
                data.draw(st.integers(0, len(BEHAVIOR_FACTORIES) - 1))
            ]()
            if data.draw(st.booleans(), label=f"onset-{index}"):
                # Honest until a mid-batch onset round: in-flight speculation
                # that trusted the node as a pivot must roll back.
                inner = FaultOnsetBehavior(
                    inner, data.draw(st.integers(0, num_rounds), label=f"round-{index}")
                )
            behaviors[f"node-{index}"] = inner
        command_rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        batches = [
            command_rng.integers(1, 1000, size=(config.num_machines, machine.command_dim))
            for _ in range(num_rounds)
        ]

        sequential = CSMProtocol(
            config, machine, copy.deepcopy(behaviors), rng=np.random.default_rng(5)
        )
        batched = CSMProtocol(
            config, machine, copy.deepcopy(behaviors), rng=np.random.default_rng(5)
        )
        sequential_records = sequential.run_rounds(batches)
        batched_records = batched.run_rounds_batched(batches)

        assert len(sequential_records) == len(batched_records) == num_rounds
        for seq, bat in zip(sequential_records, batched_records):
            assert seq.round_index == bat.round_index
            assert np.array_equal(seq.commands, bat.commands)
            assert seq.clients == bat.clients
            assert seq.consensus_views == bat.consensus_views
            assert np.array_equal(seq.result.outputs, bat.result.outputs)
            assert np.array_equal(seq.result.states, bat.result.states)
            assert seq.result.correct == bat.result.correct
            assert (
                seq.result.diagnostics["error_nodes"]
                == bat.result.diagnostics["error_nodes"]
            )
        # Client-facing state agrees too: delivered outputs and failed rounds.
        assert set(sequential.delivered_outputs) == set(batched.delivered_outputs)
        for client, outputs in sequential.delivered_outputs.items():
            assert len(outputs) == len(batched.delivered_outputs[client])
            for a, b in zip(outputs, batched.delivered_outputs[client]):
                assert np.array_equal(a, b)
        assert sequential.failed_deliveries == batched.failed_deliveries
        assert sequential.failed_rounds == batched.failed_rounds
        # Operation counts (and hence throughput) intentionally differ: the
        # batched decode amortisation is the whole point of the pipeline.
        # Message-plane parity: the batched path (vectorised consensus) must
        # perform *the same sends* as the sequential oracle — identical
        # message/signature counters and a field-identical delivery log.
        assert sequential.network.messages_sent == batched.network.messages_sent
        assert (
            sequential.network.rejected_signatures
            == batched.network.rejected_signatures
        )
        seq_log = sequential.network.delivery_log
        bat_log = batched.network.delivery_log
        assert len(seq_log) == len(bat_log)
        for a, b in zip(seq_log, bat_log):
            assert a.message.sender == b.message.sender
            assert a.message.recipient == b.message.recipient
            assert a.message.kind == b.message.kind
            assert a.message.round_index == b.message.round_index
            assert a.send_time == b.send_time
            assert a.delivery_time == b.delivery_time
            assert a.delivered == b.delivered
        # The batched driver must have taken the vectorised plane throughout.
        assert batched.consensus_fast_path_disabled == 0
