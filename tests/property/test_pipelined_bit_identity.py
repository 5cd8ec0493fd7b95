"""Speculative-engine selection and rollback through ``run_rounds_batched``.

:meth:`CSMProtocol.run_rounds_batched` always hands its agreed command
matrix to :meth:`CodedExecutionEngine.execute_rounds_pipelined`, which
speculates when it can and otherwise runs the plain ``execute_rounds`` body.
These tests pin which body runs; that the speculative engine agrees bit for
bit with the plain ``execute_rounds`` body — round results, the learnt
suspect set and the nodes' coded states — across verification windows and
fault patterns; and that its rollback path, when a pivot node turns
Byzantine mid-batch, leaves the recorded history, the delivered outputs and
the failure accounting bit-identical to the scalar ``run_rounds`` oracle.
The protocol-level randomised sweep over network models lives in
``test_protocol_bit_identity.py``.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    DelayingBehavior,
    FaultOnsetBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
)
from repro.service import CSMService, TicketState

FIELD = PrimeField()

relaxed = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BEHAVIOR_FACTORIES = (
    RandomGarbageBehavior,
    SilentBehavior,
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


def _assert_matches_oracle(oracle: CSMProtocol, batched: CSMProtocol) -> None:
    assert len(oracle.history) == len(batched.history)
    for ref, bat in zip(oracle.history, batched.history):
        assert ref.round_index == bat.round_index
        assert np.array_equal(ref.commands, bat.commands)
        assert ref.clients == bat.clients
        assert ref.consensus_views == bat.consensus_views
        assert np.array_equal(ref.result.outputs, bat.result.outputs)
        assert np.array_equal(ref.result.states, bat.result.states)
        assert ref.result.correct == bat.result.correct
        assert (
            ref.result.diagnostics["error_nodes"]
            == bat.result.diagnostics["error_nodes"]
        )
    # Client-facing state agrees: delivered outputs and failure book-keeping.
    assert set(oracle.delivered_outputs) == set(batched.delivered_outputs)
    for client, outputs in oracle.delivered_outputs.items():
        assert len(outputs) == len(batched.delivered_outputs[client])
        for a, b in zip(outputs, batched.delivered_outputs[client]):
            assert np.array_equal(a, b)
    assert oracle.failed_deliveries == batched.failed_deliveries
    assert oracle.failed_rounds == batched.failed_rounds


def _commands(seed: int, rounds: int, num_machines: int, command_dim: int):
    command_rng = np.random.default_rng(seed)
    return [
        command_rng.integers(1, 1000, size=(num_machines, command_dim))
        for _ in range(rounds)
    ]


class TestPipelinedProtocolBitIdentity:
    @relaxed
    @given(data=st.data())
    def test_history_matches_batched_path(self, data):
        """The speculative engine, at any verification window, returns the
        plain batched body's round results and leaves the same learnt
        suspect set and honest coded states behind."""
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
                inner = FaultOnsetBehavior(
                    inner, data.draw(st.integers(0, num_rounds), label=f"round-{index}")
                )
            behaviors[f"node-{index}"] = inner
        verify_window = data.draw(st.sampled_from([1, 2, 3, 5, 16]), label="window")
        batch = np.stack(
            _commands(
                data.draw(st.integers(0, 2**31)),
                num_rounds,
                config.num_machines,
                machine.command_dim,
            )
        )

        def engine() -> CodedExecutionEngine:
            return CodedExecutionEngine(
                config,
                machine,
                behaviors=copy.deepcopy(behaviors),
                rng=np.random.default_rng(5),
            )

        batched, pipelined = engine(), engine()
        batched_results = batched.execute_rounds(batch)
        pipelined_results = pipelined.execute_rounds_pipelined(
            batch, verify_window=verify_window
        )
        assert len(batched_results) == len(pipelined_results) == num_rounds
        for bat, pip in zip(batched_results, pipelined_results):
            assert np.array_equal(bat.outputs, pip.outputs)
            assert np.array_equal(bat.states, pip.states)
            assert bat.correct == pip.correct
            assert bat.diagnostics["error_nodes"] == pip.diagnostics["error_nodes"]
        # The decoder's learnt suspect set — which steers every later pivot
        # choice — must come out identical as well.
        assert batched._suspects == pipelined._suspects
        # And so must the nodes' coded states, so subsequent calls stay aligned.
        for bat_node, pip_node in zip(batched.nodes, pipelined.nodes):
            assert np.array_equal(
                bat_node.storage.coded_state, pip_node.storage.coded_state
            )
        assert np.array_equal(batched.states, pipelined.states)

    def test_mid_batch_onset_triggers_rollback_and_stays_identical(self):
        """A pivot node turning Byzantine mid-batch must invalidate in-flight
        speculation (observable as a rollback + replay in the diagnostics)
        and still leave history and outputs bit-identical to the oracle."""
        machine = bank_account_machine(FIELD, num_accounts=2)
        config = CSMConfig(
            FIELD, num_nodes=12, num_machines=3, degree=machine.degree, num_faults=2
        )
        # node-0 sits in the initial pivot (first `dimension` non-suspects).
        behaviors = {
            "node-0": FaultOnsetBehavior(RandomGarbageBehavior(), onset_round=3),
            "node-1": FaultOnsetBehavior(CorruptResultBehavior(offset=9), onset_round=5),
        }
        batches = _commands(17, 10, 3, machine.command_dim)
        oracle = CSMProtocol(
            config, machine, copy.deepcopy(behaviors), rng=np.random.default_rng(5)
        )
        batched = CSMProtocol(
            config, machine, copy.deepcopy(behaviors), rng=np.random.default_rng(5)
        )
        oracle.run_rounds(batches)
        batched.run_rounds_batched(batches)
        _assert_matches_oracle(oracle, batched)
        speculation = [
            record.result.diagnostics.get("speculation")
            for record in batched.history
        ]
        assert "rollback" in speculation  # the onset round was re-resolved
        assert speculation.count("confirmed") >= 1  # speculation still paid off
        assert 0 in batched.engine._suspects
        assert 1 in batched.engine._suspects

    def test_engine_speculates_only_where_it_is_exact(self):
        """A plain protocol speculates; frozen failed rounds with a faulty
        node present, and per-node decoding, run the plain body instead."""
        machine = bank_account_machine(FIELD, num_accounts=2)
        config = CSMConfig(
            FIELD, num_nodes=10, num_machines=3, degree=machine.degree, num_faults=1
        )
        behaviors = {"node-9": RandomGarbageBehavior()}
        batches = _commands(29, 4, 3, machine.command_dim)

        def speculated(behaviors, freeze=False, **kwargs):
            protocol = CSMProtocol(
                config, machine, behaviors, rng=np.random.default_rng(5), **kwargs
            )
            if freeze:
                protocol.freeze_failed_rounds()
            records = protocol.run_rounds_batched(batches)
            assert protocol.all_rounds_correct
            return [record.result.diagnostics.get("pipelined", False) for record in records]

        assert all(speculated(dict(behaviors)))
        assert not any(speculated(dict(behaviors), freeze=True))
        assert not any(speculated(dict(behaviors), decode_at_every_node=True))
        # With every node honest no round can fail, so freezing is a no-op and
        # the engine keeps speculating.
        assert all(speculated({}, freeze=True))

    def test_service_drive_matches_scalar_oracle_under_onset(self):
        """The service's scheduler ticks run the same speculative engine:
        every ticket resolves exactly as the oracle's round did, onset
        faults included."""
        machine = bank_account_machine(FIELD, num_accounts=2)
        config = CSMConfig(
            FIELD, num_nodes=10, num_machines=3, degree=machine.degree, num_faults=1
        )
        behaviors = {
            "node-2": FaultOnsetBehavior(RandomGarbageBehavior(), onset_round=2)
        }
        batches = _commands(23, 6, 3, machine.command_dim)
        oracle = CSMProtocol(
            config, machine, copy.deepcopy(behaviors), rng=np.random.default_rng(5)
        )
        oracle.run_rounds(batches)
        served = CSMProtocol(
            config, machine, copy.deepcopy(behaviors), rng=np.random.default_rng(5)
        )
        service = CSMService(served, max_batch_rounds=6, min_fill=3)
        sessions = [service.connect(f"client:{k}") for k in range(3)]
        for batch in batches:
            for k in range(3):
                sessions[k].submit(k, batch[k])
        service.drain()
        _assert_matches_oracle(oracle, served)
        assert any(
            record.result.diagnostics.get("pipelined") for record in served.history
        )
        for ticket in service.tickets():
            record = oracle.history[ticket.round_index]
            expected = TicketState.EXECUTED if record.correct else TicketState.FAILED
            assert ticket.state is expected
