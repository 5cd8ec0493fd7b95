"""The coded execution phase (Section 5.2).

Given the commands agreed in the consensus phase, the engine:

1. has every node form its coded command ``X~_i`` and compute the coded
   result ``g_i = f(S~_i, X~_i)`` (operation-counted per node);
2. collects the results each (honest) node would receive — Byzantine nodes
   may corrupt, equivocate, delay, or stay silent;
3. runs noisy polynomial interpolation (Reed–Solomon decoding) to recover
   the composite polynomial ``h`` and evaluates it at the ``omega_k`` to
   obtain every machine's true ``(S_k(t+1), Y_k(t))``;
4. has every honest node update its coded state with its own coefficient
   row (equation (1));
5. verifies the recovered values against the reference (uncoded) execution
   and reports per-node operation counts for the throughput metric.

Both the synchronous rule (decode from all ``N`` results, up to ``b`` wrong)
and the partially synchronous rule (decode from ``N - b`` results, up to
``b`` of them wrong — silent nodes become erasures) are implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DecodingError
from repro.gf.field import OperationCounter
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme
from repro.machine.interface import StateMachine
from repro.net.byzantine import ByzantineBehavior, HonestBehavior
from repro.replication.base import BatchExecutionMixin, RoundResult
from repro.core.config import CSMConfig
from repro.core.node import CSMNode
from repro.rng import default_stream


@dataclass
class _SpeculativeRound:
    """A round executed speculatively, awaiting its deferred verification.

    ``matrix`` is the full-presence reported-result matrix the round's
    speculative decode was based on; ``faulty_rows`` caches the Byzantine
    nodes' transformed rows so a rollback replay re-uses them instead of
    re-drawing from the rng stream (which would desynchronise it from the
    batched path and break bit-identity).
    """

    batch_index: int
    coded_commands: np.ndarray
    matrix: np.ndarray
    faulty_rows: dict
    pivot: list
    reference_states: np.ndarray
    reference_outputs: np.ndarray
    base_ops: dict
    spec_ops: int


class CodedExecutionEngine(BatchExecutionMixin):
    """Executes CSM rounds over an in-memory bank of nodes."""

    def __init__(
        self,
        config: CSMConfig,
        machine: StateMachine,
        node_ids: list[str] | None = None,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
        decoder: str = "berlekamp-welch",
        decode_at_every_node: bool = False,
    ) -> None:
        if machine.degree != config.degree:
            raise ConfigurationError(
                f"configuration degree {config.degree} does not match the machine's "
                f"transition degree {machine.degree}"
            )
        self.config = config
        self.machine = machine
        self.field = config.field
        self.rng = rng if rng is not None else default_stream()
        self.decode_at_every_node = bool(decode_at_every_node)
        self.node_ids = list(node_ids) if node_ids else [
            f"node-{i}" for i in range(config.num_nodes)
        ]
        if len(self.node_ids) != config.num_nodes:
            raise ConfigurationError(
                f"expected {config.num_nodes} node ids, got {len(self.node_ids)}"
            )
        self.behaviors = dict(behaviors or {})
        self.scheme = LagrangeScheme(
            self.field, config.num_machines, config.num_nodes
        )
        self.encoder = CodedStateEncoder(self.scheme)
        self.decoder = CodedResultDecoder(
            self.scheme, transition_degree=config.degree, decoder=decoder
        )
        # Reference (true) states; shape (K, state_dim).
        self.states = np.tile(machine.initial_state, (config.num_machines, 1))
        coded_states = self.encoder.encode(self.states)
        self.nodes: list[CSMNode] = []
        for index, node_id in enumerate(self.node_ids):
            behavior = self.behaviors.get(node_id, HonestBehavior())
            self.nodes.append(
                CSMNode(
                    node_id=node_id,
                    node_index=index,
                    field=self.field,
                    transition=machine.transition,
                    coefficient_row=self.scheme.coefficient_row(index),
                    initial_coded_state=coded_states[index],
                    behavior=behavior,
                )
            )
        self.round_index = 0
        # Node indices caught reporting erroneous results; the batched decode
        # fast path avoids picking these as interpolation pivots (see
        # CodedResultDecoder.decode_fast).
        self._suspects: set[int] = set()
        # When True, a round that fails verification (or fails to decode)
        # advances *nothing*: the reference states stay put and honest nodes
        # keep their coded states, so resubmitting the same commands is
        # idempotent.  The service retry path enables this; the default False
        # preserves the legacy "the true machines move on regardless" rule.
        self.freeze_on_failure = False

    # -- structural metrics --------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def num_machines(self) -> int:
        return self.config.num_machines

    @property
    def num_faulty(self) -> int:
        return sum(1 for node in self.nodes if node.is_faulty)

    @property
    def storage_efficiency(self) -> float:
        """gamma = (K states of data) / (one coded state per node) = K."""
        return float(self.num_machines)

    def honest_nodes(self) -> list[CSMNode]:
        return [node for node in self.nodes if not node.is_faulty]

    def node_by_id(self, node_id: str) -> CSMNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ConfigurationError(f"unknown node id {node_id}")

    def resync_node(self, node_id: str) -> None:
        """Re-install a node's coded state from the current reference states.

        The state-transfer step of crash recovery (and of a Byzantine burst
        ending): a node that sat out — or corrupted — rounds never refreshed
        its coded row, so before it can contribute to decoding again it must
        re-encode the current true states.  Uncounted (out-of-band repair,
        not part of the per-round cost model); also clears the node from the
        decoder's suspect set, since its row is now trustworthy.
        """
        node = self.node_by_id(node_id)
        coded = self.encoder.encode(self.states)
        node.storage.replace(coded[node.node_index])
        self._suspects.discard(node.node_index)

    # -- round execution ------------------------------------------------------------------
    def execute_round(self, commands: np.ndarray) -> RoundResult:
        """Run the coded execution phase for one agreed command vector."""
        commands_arr = self._check_commands(commands)
        for node in self.nodes:
            node.reset_counter()
        # Step 1-2: every node encodes its command and computes on coded data.
        true_results = np.zeros(
            (self.num_nodes, self.machine.transition.result_dim), dtype=np.int64
        )
        for node in self.nodes:
            coded_command = node.encode_command(commands_arr)
            true_results[node.node_index] = node.execute_coded(coded_command)
        return self._complete_round(commands_arr, true_results, batched=False)

    def execute_rounds(self, commands_batch: np.ndarray) -> list[RoundResult]:
        """Run a batch of ``B`` rounds through the cached-matrix pipeline.

        ``commands_batch`` has shape ``(B, K, command_dim)`` (a single
        ``(K, command_dim)`` round is promoted to a batch of one).  Compared
        with calling :meth:`execute_round` ``B`` times:

        * all ``B * N`` coded commands come from **one** ``GF(p)``
          matrix–matrix product with the cached coefficient matrix;
        * decoding runs through :meth:`CodedResultDecoder.decode_fast` with a
          persistent suspect set, so a stable fault pattern costs one scalar
          Berlekamp–Welch decode for the whole batch instead of one per
          component per round;
        * the honest nodes' coded-state refresh is one matrix product per
          round instead of ``N - b`` per-node inner-product loops.

        The coded execution itself stays sequential — round ``t + 1``
        operates on coded states refreshed from round ``t``'s decode, exactly
        as in the scalar path — and every returned ``RoundResult`` carries
        outputs, states and correctness flags bit-identical to the scalar
        path (operation *counts* are lower on the decode side: that cost
        reduction is precisely what the batched pipeline buys).

        Per-node decoding (``decode_at_every_node=True``) models per-receiver
        equivocation and falls back to the scalar path unchanged.

        Rounds need not carry one *real* command per machine: the service
        scheduler pads idle machines' rows with
        :meth:`StateMachine.noop_command` (an identity transition for the
        library machines), and a noop row is coded, executed and decoded
        exactly like any other command — ragged traffic costs nothing extra
        in this pipeline.
        """
        batch_arr = self._validate_batch(commands_batch)
        if self.decode_at_every_node:
            return [self.execute_round(batch_arr[b]) for b in range(batch_arr.shape[0])]
        # Stage 1: encode every round's commands in one matrix product.  The
        # product itself is uncounted; each node is charged the operations it
        # would have spent encoding its own coded command (the batched
        # pipeline changes who *performs* the multiply, not the per-node
        # protocol cost model).
        coded_commands = self.encoder.encode_batch(batch_arr)
        results: list[RoundResult] = []
        for b in range(batch_arr.shape[0]):
            commands_arr = batch_arr[b]
            self._prime_round_counters()
            true_results = self._coded_step_all_nodes(coded_commands[b])
            results.append(
                self._complete_round(commands_arr, true_results, batched=True)
            )
        return results

    # -- speculative pipelined execution -------------------------------------------------
    def execute_rounds_pipelined(
        self, commands_batch: np.ndarray, verify_window: int = 16
    ) -> list[RoundResult]:
        """Run ``B`` rounds with decoding of round ``t`` overlapped past ``t+1``.

        The batched pipeline of :meth:`execute_rounds` still pays a full
        suspect-learning decode on every round's critical path before the
        next round may execute.  This mode splits each full-presence round
        into two phases:

        * a cheap **speculative** phase: interpolate a candidate through the
          ``dimension`` non-suspect pivot rows only (one small matrix
          product), refresh the honest coded states from the candidate
          immediately, and let round ``t + 1`` execute on them;
        * a deferred **verify** phase: once a verification window fills, the
          full error-locating re-encode check runs for the whole window as
          **one** stacked matrix product.  A window whose components all fit
          the error budget confirms that every speculative candidate *was*
          the unique decoding (same uniqueness argument as
          :meth:`~repro.lcc.decoder.CodedResultDecoder.decode_fast`), so the
          speculated state advance already matches the batched path bit for
          bit.

        On a verification mismatch the engine rolls back: the first
        unconfirmed round is decoded through the scalar-capable path, the
        honest coded states are restored from the last verified checkpoint
        (the decoded states of the last resolved round that refreshed, or
        the states this call started from), and the invalidated suffix of
        the window is deterministically re-executed — honest results are
        recomputed from the repaired states while the Byzantine rows and
        the rng stream are replayed from the speculation-time cache.  The
        verification window grows adaptively (1, 2, 4, ... up to
        ``verify_window``) and collapses back to 1 after a rollback, so a
        cold-start or fresh fault pattern costs at most one mis-speculated
        window before the suspect set catches up.

        Rounds with missing results (silent/delayed nodes) flush the window
        and resolve inline through the erasure-capable decode, exactly as
        the batched path would.

        The returned :class:`RoundResult` records carry outputs, states,
        correctness flags and flagged error nodes bit-identical to
        :meth:`execute_rounds` (property-tested, including rollback).  Only
        the *operation counts* differ — each round is charged the
        speculative interpolation plus an even share of its window's
        stacked verification instead of a full per-round decode, which is
        precisely the cost the pipeline removes.
        """
        if verify_window < 1:
            raise ConfigurationError(
                f"verify_window must be positive, got {verify_window}"
            )
        batch_arr = self._validate_batch(commands_batch)
        batch_eval = getattr(self.machine.transition, "evaluate_result_vectors", None)
        if (
            self.decode_at_every_node
            or batch_eval is None
            or (self.freeze_on_failure and self.num_faulty)
        ):
            # Per-recipient decoding models equivocation, non-polynomial
            # transitions have no stacked surface to speculate over, and
            # freeze-on-failure contradicts speculation (which eagerly
            # advances state every round) once a faulty node can make a
            # round fail: in all three cases the batched/scalar path runs
            # unchanged.  With every node honest no round can fail, so
            # freezing is a no-op and speculation stays exact.
            return self.execute_rounds(batch_arr)
        coded_commands = self.encoder.encode_batch(batch_arr)
        num_rounds = batch_arr.shape[0]
        results: list[RoundResult | None] = [None] * num_rounds
        window: list[_SpeculativeRound] = []
        # The contiguous coded-state bank the speculative rounds advance;
        # node storage is synchronised once, when the call completes.
        self._pipeline_honest_nodes = self.honest_nodes()
        self._pipeline_honest_idx = np.array(
            [node.node_index for node in self._pipeline_honest_nodes], dtype=np.intp
        )
        self._pipeline_bank = np.stack(
            [node.storage.coded_state for node in self.nodes]
        )
        # Rollback anchors: the honest coded states entering this call, then
        # the decoded states of the last resolved round that refreshed.
        self._pipeline_round_base = self.round_index
        self._pipeline_initial_bank = self._pipeline_bank.copy()
        self._pipeline_resolved_refresh = None
        window_target = 1
        pivot_cache: tuple | None = None
        for b in range(num_rounds):
            commands_arr = batch_arr[b]
            self._prime_round_counters()
            true_results = self._coded_step_from_bank(coded_commands[b])
            reference_states, reference_outputs = self._reference_step(commands_arr)
            self.states = reference_states
            matrix, faulty_rows = self._pipeline_reported(true_results)
            if any(row is None for row in faulty_rows.values()):
                # Partial presence: flush speculation, then resolve this
                # round inline through the erasure-capable decode.  If the
                # flush rolled back, this round's honest results were
                # computed on the mis-speculated bank: recompute them on the
                # repaired states (the counters re-charge exactly as a
                # replay does; Byzantine rows and the rng stream come from
                # the cache, so no draw is repeated).
                window_target, rolled_back = self._resolve_pipeline_window(
                    window, results, window_target, verify_window
                )
                pivot_cache = None
                if rolled_back:
                    self._prime_round_counters()
                    true_results = self._coded_step_from_bank(coded_commands[b])
                    matrix = true_results
                reported = [
                    faulty_rows[i] if i in faulty_rows else matrix[i]
                    for i in range(self.num_nodes)
                ]
                results[b] = self._pipeline_resolve_round(
                    b, reported, reference_states, reference_outputs, "inline"
                )
                continue
            if pivot_cache is None:
                pivot_cache = self._pipeline_pivot_cache()
            pivot, fused_refresh, spec_ops = pivot_cache
            # Fused speculative decode + refresh: ``(C @ T_omega) @ sub`` is
            # the same canonical product as refreshing from the interpolated
            # candidate states, in one matrix multiply; ``spec_ops`` charges
            # the interpolation the fusion absorbed.
            coded = self.field.matmul(
                fused_refresh, matrix[pivot, : self.machine.state_dim]
            )
            idx = self._pipeline_honest_idx
            self._pipeline_bank[idx] = coded[idx]
            self._charge_refresh(self._pipeline_honest_nodes)
            window.append(
                _SpeculativeRound(
                    batch_index=b,
                    coded_commands=coded_commands[b],
                    matrix=matrix,
                    faulty_rows=faulty_rows,
                    pivot=pivot,
                    reference_states=reference_states,
                    reference_outputs=reference_outputs,
                    base_ops={
                        node.node_id: node.counter.total for node in self.nodes
                    },
                    spec_ops=spec_ops,
                )
            )
            if len(window) >= min(window_target, verify_window):
                next_target, rolled_back = self._resolve_pipeline_window(
                    window, results, window_target, verify_window
                )
                if rolled_back or next_target != window_target:
                    pivot_cache = None  # suspects may have shifted the pivot
                window_target = next_target
        self._resolve_pipeline_window(window, results, window_target, verify_window)
        # Synchronise node storage with the bank the call advanced (faulty
        # nodes never refresh, so only honest rows can have moved).  Every
        # round that decoded refreshed the bank once, so the storage round
        # counter advances exactly as the batched path's per-round replace.
        refreshes = sum(
            1 for result in results if not result.diagnostics["decoding_failed"]
        )
        if refreshes:
            for node in self._pipeline_honest_nodes:
                # An explicit copy: installing a view of the bank would leave
                # every honest store aliasing one shared array.
                node.storage.install_canonical(
                    self._pipeline_bank[node.node_index].copy(),
                    rounds=refreshes,
                )
        self.round_index = self._pipeline_round_base + num_rounds
        return results

    def _pipeline_reported(
        self, true_results: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """The reported-result matrix with honest rows taken from the stack.

        Byzantine transforms run in node order so the rng stream is consumed
        exactly as in :meth:`_reported_results`; the transformed rows are
        returned separately (``None`` marks silence/delay) so a rollback
        replay can re-use them without re-drawing.
        """
        faulty_rows: dict[int, np.ndarray | None] = {}
        if self.num_faulty == 0:
            return true_results, faulty_rows
        matrix = true_results.copy()
        for node in self.nodes:
            if not node.is_faulty:
                continue
            value = node.report_result(
                true_results[node.node_index], self.rng, recipient=None
            )
            if value is None or node.behavior.delays_message():
                faulty_rows[node.node_index] = None
            else:
                row = self.field.array(value).reshape(-1)
                faulty_rows[node.node_index] = row
                matrix[node.node_index] = row
        return matrix, faulty_rows

    def _resolve_pipeline_window(
        self,
        window: list[_SpeculativeRound],
        results: list,
        window_target: int,
        verify_window: int,
    ) -> tuple[int, bool]:
        """Verify a window of speculated rounds.

        One stacked re-encode product checks every component of every round
        in the window against the error budget.  Confirmed rounds emit their
        (already-installed) speculative result; the first unconfirmed round
        triggers the rollback path and the suffix replay.  Returns
        ``(next_window_target, rolled_back)`` — callers must recompute
        anything derived from the speculative state bank when a rollback
        repaired it.
        """
        if not window:
            return window_target, False
        state_dim = self.machine.state_dim
        pivot = window[0].pivot
        to_all, to_omegas, _ = self.decoder.pivot_matrices(pivot)
        stacked = (
            window[0].matrix
            if len(window) == 1
            else np.hstack([entry.matrix for entry in window])
        )
        sub = stacked[pivot, :]
        window_counter = OperationCounter()
        self.field.attach_counter(window_counter)
        try:
            reencoded = self.field.matmul(to_all, sub)
            candidates = self.field.matmul(to_omegas, sub)
        finally:
            self.field.attach_counter(None)
        width = window[0].matrix.shape[1]
        confirmed, rollback_at = self.decoder.stacked_verification(
            stacked, reencoded, width
        )
        verify_share = window_counter.total // len(window)
        for offset, error_nodes in enumerate(confirmed):
            entry = window[offset]
            columns = slice(offset * width, (offset + 1) * width)
            self._suspects.update(error_nodes)
            candidate = np.ascontiguousarray(candidates[:, columns])
            decoded_states = candidate[:, :state_dim]
            reference_results = np.concatenate(
                [entry.reference_states, entry.reference_outputs], axis=1
            )
            decode_ops = entry.spec_ops + verify_share
            ops_per_node = {
                node.node_id: entry.base_ops[node.node_id]
                + (decode_ops if not node.is_faulty else 0)
                for node in self.nodes
            }
            results[entry.batch_index] = RoundResult(
                round_index=self._pipeline_round_base + entry.batch_index,
                outputs=candidate[:, state_dim:],
                states=decoded_states.copy(),
                correct=bool(np.array_equal(candidate, reference_results)),
                ops_per_node=ops_per_node,
                diagnostics={
                    "error_nodes": error_nodes,
                    "num_faulty": self.num_faulty,
                    "decoding_failed": False,
                    "decode_ops": decode_ops,
                    "batched": True,
                    "pipelined": True,
                    "speculation": "confirmed",
                },
            )
            self._pipeline_resolved_refresh = decoded_states
        if rollback_at is None:
            window.clear()
            return min(window_target * 2, verify_window), False
        # Rollback: the offending round decodes through the scalar-capable
        # path (repairing or restoring honest state), then the invalidated
        # suffix re-executes deterministically on the repaired states.
        entry = window[rollback_at]
        results[entry.batch_index] = self._pipeline_resolve_round(
            entry.batch_index,
            entry.matrix,
            entry.reference_states,
            entry.reference_outputs,
            "rollback",
            base_ops=entry.base_ops,
        )
        for entry in window[rollback_at + 1 :]:
            results[entry.batch_index] = self._pipeline_replay_round(entry)
        window.clear()
        return 1, True

    def _pipeline_replay_round(self, entry: _SpeculativeRound) -> RoundResult:
        """Re-execute one invalidated round on the repaired honest states.

        Honest results are recomputed (their speculative inputs were wrong);
        Byzantine rows come from the speculation-time cache, so no rng draw
        is repeated and the reported matrix matches the batched path's.
        """
        self._prime_round_counters()
        true_results = self._coded_step_from_bank(entry.coded_commands)
        matrix = true_results.copy()
        for index, row in entry.faulty_rows.items():
            matrix[index] = row
        return self._pipeline_resolve_round(
            entry.batch_index,
            matrix,
            entry.reference_states,
            entry.reference_outputs,
            "replayed",
        )

    def _pipeline_resolve_round(
        self,
        batch_index: int,
        reported,
        reference_states: np.ndarray,
        reference_outputs: np.ndarray,
        speculation: str,
        base_ops: dict | None = None,
    ) -> RoundResult:
        """Non-speculative completion of one pipelined round.

        Shared by inline partial-presence rounds, rollback rounds and
        replayed suffix rounds: decode through the suspect-learning fast
        path, settle honest state (refresh on success, restore to the last
        verified checkpoint when a rollback round fails to decode) and
        account the round exactly as :meth:`_complete_round` would.
        """
        decode_counter = OperationCounter()
        diagnostics: dict = {}
        self.field.attach_counter(decode_counter)
        try:
            decoded = self.decoder.decode_fast(reported, self._suspects)
            decoding_failed = False
        except DecodingError as exc:
            decoded = None
            decoding_failed = True
            diagnostics["decoding_error"] = str(exc)
        finally:
            self.field.attach_counter(None)
        reference_results = np.concatenate(
            [reference_states, reference_outputs], axis=1
        )
        correct = False
        decoded_states = reference_states  # fallback for book-keeping on failure
        accepted_outputs = np.zeros_like(reference_outputs)
        error_nodes: tuple[int, ...] = ()
        if not decoding_failed:
            error_nodes = decoded.error_nodes
            decoded_states = decoded.outputs[:, : self.machine.state_dim]
            accepted_outputs = decoded.outputs[:, self.machine.state_dim :]
            correct = bool(np.array_equal(decoded.outputs, reference_results))
            # A rollback round's speculative refresh already charged chi_i;
            # repairing the installed values must not charge it twice.
            self._refresh_honest_states_fast(
                decoded_states, charge=(speculation != "rollback")
            )
            self._pipeline_resolved_refresh = decoded_states
        elif speculation == "rollback":
            self._pipeline_restore_honest_states()
        if base_ops is None:
            base_ops = {node.node_id: node.counter.total for node in self.nodes}
        ops_per_node = {}
        for node in self.nodes:
            ops = base_ops[node.node_id]
            if not node.is_faulty and not decoding_failed:
                ops += decode_counter.total
            ops_per_node[node.node_id] = ops
        diagnostics.update(
            {
                "error_nodes": tuple(error_nodes),
                "num_faulty": self.num_faulty,
                "decoding_failed": decoding_failed,
                "decode_ops": decode_counter.total,
                "batched": True,
                "pipelined": True,
                "speculation": speculation,
            }
        )
        return RoundResult(
            round_index=self._pipeline_round_base + batch_index,
            outputs=accepted_outputs,
            states=decoded_states.copy(),
            correct=correct,
            ops_per_node=ops_per_node,
            diagnostics=diagnostics,
        )

    def _pipeline_pivot_cache(self) -> tuple:
        """``(pivot, C @ T_omega_states, spec_ops)`` for the current suspects.

        The fused matrix maps pivot rows straight to refreshed coded states;
        it is memoised per pivot (suspect churn across a run touches only a
        handful of pivots).  ``spec_ops`` is the operation count of the
        candidate-state interpolation the fusion absorbs — the cost each
        speculative round charges as its decode share.
        """
        pivot = self.decoder.pivot_rows(list(range(self.num_nodes)), self._suspects)
        key = tuple(pivot)
        cache = getattr(self, "_fused_refresh_cache", None)
        if cache is None:
            cache = self._fused_refresh_cache = {}
        entry = cache.get(key)
        if entry is None:
            _to_all, to_omegas, _ = self.decoder.pivot_matrices(pivot)
            fused = self.field.matmul(self.scheme.coefficient_matrix, to_omegas)
            dimension = self.decoder.code.dimension
            state_dim = self.machine.state_dim
            spec_ops = self.num_machines * dimension * state_dim + (
                self.num_machines * max(dimension - 1, 0) * state_dim
            )
            entry = cache[key] = (pivot, fused, spec_ops)
        return entry

    def _prime_round_counters(self) -> None:
        """Reset every node's counter and charge the ``rho_i`` encode cost.

        The per-node cost model of forming the coded command — shared by the
        batched round loop, the speculative rounds, and every replay, so the
        encode charging formula lives in exactly one place.
        """
        cmd_dim = self.machine.command_dim
        mul = cmd_dim * self.num_machines
        add = cmd_dim * (self.num_machines - 1)
        for node in self.nodes:
            node.reset_counter()
            node.counter.mul(mul)
            node.counter.add(add)

    def _charge_refresh(self, nodes) -> None:
        """Charge each node the per-round ``chi_i`` re-encoding cost."""
        state_dim = self.machine.state_dim
        mul = state_dim * self.num_machines
        add = state_dim * (self.num_machines - 1)
        for node in nodes:
            node.counter.mul(mul)
            node.counter.add(add)

    def _coded_step_from_bank(self, coded_commands: np.ndarray) -> np.ndarray:
        """The stacked coded transition, read from the pipeline's state bank.

        Identical to :meth:`_coded_step_all_nodes` (values and per-node
        charges) except the coded states come from the contiguous bank the
        speculative refresh maintains, instead of per-node storage copies.
        """
        step_counter = OperationCounter()
        self.field.attach_counter(step_counter)
        try:
            true_results = self.machine.transition.evaluate_result_vectors(
                self._pipeline_bank, coded_commands
            )
        finally:
            self.field.attach_counter(None)
        share_add = step_counter.additions // self.num_nodes
        share_mul = step_counter.multiplications // self.num_nodes
        for node in self.nodes:
            node.counter.add(share_add)
            node.counter.mul(share_mul)
        return true_results

    def _refresh_honest_states_fast(
        self, decoded_states: np.ndarray, charge: bool = True
    ) -> None:
        """Pipelined honest-state refresh on the contiguous bank.

        Produces coded rows bit-identical to
        :meth:`_update_honest_states_batched` (same canonical ``C @ S``
        product) and charges the same per-node ``chi_i`` cost when
        ``charge``; rollback restores pass ``charge=False`` because the
        batched path never performed — or charged — the undone refresh.
        """
        coded = self.field.matmul(self.scheme.coefficient_matrix, decoded_states)
        idx = self._pipeline_honest_idx
        self._pipeline_bank[idx] = coded[idx]
        if charge:
            self._charge_refresh(self._pipeline_honest_nodes)

    def _pipeline_restore_honest_states(self) -> None:
        """Roll honest coded states back to the last verified checkpoint."""
        if self._pipeline_resolved_refresh is not None:
            self._refresh_honest_states_fast(
                self._pipeline_resolved_refresh, charge=False
            )
            return
        idx = self._pipeline_honest_idx
        self._pipeline_bank[idx] = self._pipeline_initial_bank[idx]

    def _coded_step_all_nodes(self, coded_commands: np.ndarray) -> np.ndarray:
        """Evaluate every node's coded transition in one stacked pass.

        Stacks all ``N`` coded states (faulty nodes keep computing on their —
        possibly stale — stored state, exactly as in the scalar path) against
        the round's coded commands and evaluates each component polynomial
        once over the whole ``(N, arity)`` assignment matrix.  The values are
        bit-identical to ``N`` per-node :meth:`CSMNode.execute_coded` calls;
        every node is charged its exact per-node share of the counted field
        operations, which equals the scalar per-node cost because vectorised
        field ops count one scalar operation per element.
        """
        batch_eval = getattr(self.machine.transition, "evaluate_result_vectors", None)
        if batch_eval is None:
            # Non-polynomial transitions have no stacked surface; keep the
            # per-node loop (values and counts unchanged).
            true_results = np.zeros(
                (self.num_nodes, self.machine.transition.result_dim), dtype=np.int64
            )
            for node in self.nodes:
                true_results[node.node_index] = node.execute_coded(
                    coded_commands[node.node_index]
                )
            return true_results
        coded_states = np.stack([node.storage.coded_state for node in self.nodes])
        step_counter = OperationCounter()
        self.field.attach_counter(step_counter)
        try:
            true_results = batch_eval(coded_states, coded_commands)
        finally:
            self.field.attach_counter(None)
        share_add = step_counter.additions // self.num_nodes
        share_mul = step_counter.multiplications // self.num_nodes
        for node in self.nodes:
            node.counter.add(share_add)
            node.counter.mul(share_mul)
        return true_results

    def _check_commands(self, commands: np.ndarray) -> np.ndarray:
        commands_arr = self.field.array(commands)
        expected_shape = (self.num_machines, self.machine.command_dim)
        if commands_arr.shape != expected_shape:
            raise ConfigurationError(
                f"expected commands of shape {expected_shape}, got {commands_arr.shape}"
            )
        return commands_arr

    def _complete_round(
        self, commands_arr: np.ndarray, true_results: np.ndarray, batched: bool
    ) -> RoundResult:
        """Steps 3-5 shared by the scalar and batched paths: decode, update, account."""
        # Reference execution (ground truth used only for verification).
        reference_states, reference_outputs = self._reference_step(commands_arr)
        reference_results = np.concatenate([reference_states, reference_outputs], axis=1)

        # Step 3: gather what each node reports and decode.
        decode_counter = OperationCounter()
        diagnostics: dict = {}
        try:
            if batched:
                decoded_outputs, error_nodes = self._decode_phase_fast(
                    true_results, decode_counter
                )
            else:
                decoded_outputs, error_nodes = self._decode_phase(
                    true_results, decode_counter, diagnostics
                )
            decoding_failed = False
        except DecodingError as exc:
            decoded_outputs = None
            error_nodes = ()
            decoding_failed = True
            diagnostics["decoding_error"] = str(exc)

        correct = False
        decoded_states = reference_states  # fallback for book-keeping on failure
        accepted_outputs = np.zeros_like(reference_outputs)
        if not decoding_failed:
            decoded_states = decoded_outputs[:, : self.machine.state_dim]
            accepted_outputs = decoded_outputs[:, self.machine.state_dim :]
            correct = bool(
                np.array_equal(decoded_outputs, reference_results)
            )

        # A frozen round (retry mode, verification or decode failed) must
        # not advance anything — neither the honest coded states (a refresh
        # from a wrong decode would desynchronise them from the frozen
        # reference) nor the reference states below — so the same commands
        # can be re-driven later against identical state.
        frozen = self.freeze_on_failure and (decoding_failed or not correct)

        # Step 4: honest nodes refresh their coded states from the decoded states.
        if not decoding_failed and not frozen:
            if batched:
                self._update_honest_states_batched(decoded_states)
            else:
                for node in self.honest_nodes():
                    node.update_coded_state(decoded_states)

        # Operation accounting: every honest node performs the (identical)
        # decoding, so the decode cost is charged to each of them.
        ops_per_node: dict[str, int] = {}
        for node in self.nodes:
            ops = node.counter.total
            if not node.is_faulty and not decoding_failed:
                ops += decode_counter.total if not self.decode_at_every_node else 0
            ops_per_node[node.node_id] = ops
        if self.decode_at_every_node:
            # per-node decode counters were already merged inside _decode_phase
            pass

        # Advance the reference state (the true machines move on regardless
        # — unless the round is frozen for retry).
        if frozen:
            diagnostics["state_frozen"] = True
        else:
            self.states = reference_states
        self.round_index += 1
        diagnostics.update(
            {
                "error_nodes": tuple(error_nodes),
                "num_faulty": self.num_faulty,
                "decoding_failed": decoding_failed,
                "decode_ops": decode_counter.total,
                "batched": batched,
            }
        )
        return RoundResult(
            round_index=self.round_index - 1,
            outputs=accepted_outputs,
            states=decoded_states.copy(),
            correct=correct,
            ops_per_node=ops_per_node,
            diagnostics=diagnostics,
        )

    def _update_honest_states_batched(self, decoded_states: np.ndarray) -> None:
        """Refresh every honest node's coded state with one matrix product.

        ``C @ decoded_states`` yields all ``N`` next coded states at once;
        each honest node installs its own row and is charged the operations
        of the per-node re-encoding it replaces (``chi_i`` of equation (1)).
        """
        coded = self.field.matmul(self.scheme.coefficient_matrix, decoded_states)
        state_dim = self.machine.state_dim
        for node in self.honest_nodes():
            node.storage.replace(coded[node.node_index])
            node.counter.mul(state_dim * self.num_machines)
            node.counter.add(state_dim * (self.num_machines - 1))

    # -- internals ----------------------------------------------------------------------------
    def _reference_step(self, commands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One vectorised pass over the K reference machines; StateMachine
        # falls back to scalar steps for transitions without a batched
        # surface, so the values match the per-machine loop bit for bit.
        return self.machine.step_batch(self.states, commands)

    def _reported_results(
        self,
        true_results: np.ndarray,
        recipient: str | None,
        skip_honest_transform: bool = False,
    ) -> list[np.ndarray | None]:
        """The per-sender results as seen by ``recipient`` (or by 'the network').

        With ``skip_honest_transform`` (the batched pipeline), honest nodes'
        rows are taken straight from the stacked result matrix and only the
        sparse set of faulty nodes runs its behaviour transform — in node
        order, so the rng stream is consumed exactly as in the dense loop
        (honest transforms never draw from it and never delay).
        """
        reported: list[np.ndarray | None] = []
        for node in self.nodes:
            if skip_honest_transform and not node.is_faulty:
                reported.append(true_results[node.node_index])
                continue
            value = node.report_result(
                true_results[node.node_index], self.rng, recipient=recipient
            )
            if value is None or node.behavior.delays_message():
                reported.append(None)
            else:
                reported.append(self.field.array(value).reshape(-1))
        return reported

    def _decode_phase(
        self,
        true_results: np.ndarray,
        decode_counter: OperationCounter,
        diagnostics: dict,
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Decode the round; returns (decoded K x result_dim, error node indices)."""
        if self.decode_at_every_node:
            return self._decode_at_each_honest_node(true_results, diagnostics)
        # Single representative decode: all honest nodes receive the same
        # broadcast values (no equivocation), so one decode stands for all.
        reported = self._reported_results(true_results, recipient=None)
        self.field.attach_counter(decode_counter)
        try:
            if any(entry is None for entry in reported):
                decoded = self.decoder.decode_partial(reported)
            else:
                stacked = np.vstack([entry for entry in reported])
                decoded = self.decoder.decode(stacked)
        finally:
            self.field.attach_counter(None)
        return decoded.outputs, decoded.error_nodes

    def _decode_phase_fast(
        self, true_results: np.ndarray, decode_counter: OperationCounter
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Batched-pipeline decode: cached matrices + persistent suspect set."""
        reported = self._reported_results(
            true_results, recipient=None, skip_honest_transform=True
        )
        self.field.attach_counter(decode_counter)
        try:
            if any(entry is None for entry in reported):
                decoded = self.decoder.decode_fast(reported, self._suspects)
            else:
                decoded = self.decoder.decode_fast(
                    np.vstack(reported), self._suspects
                )
        finally:
            self.field.attach_counter(None)
        return decoded.outputs, decoded.error_nodes

    def _decode_at_each_honest_node(
        self, true_results: np.ndarray, diagnostics: dict
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Faithful per-node decoding (handles equivocating senders).

        Every honest node decodes the set of results *it* received; the
        engine then checks that all honest nodes recovered identical values
        (the paper's claim that equivocation cannot cause divergence) and
        charges each node its own decoding cost.
        """
        per_node_outputs: dict[str, np.ndarray] = {}
        union_errors: set[int] = set()
        for node in self.honest_nodes():
            reported = self._reported_results(true_results, recipient=node.node_id)
            self.field.attach_counter(node.counter)
            try:
                if any(entry is None for entry in reported):
                    decoded = self.decoder.decode_partial(reported)
                else:
                    stacked = np.vstack([entry for entry in reported])
                    decoded = self.decoder.decode(stacked)
            finally:
                self.field.attach_counter(None)
            per_node_outputs[node.node_id] = decoded.outputs
            union_errors.update(decoded.error_nodes)
        values = list(per_node_outputs.values())
        for other in values[1:]:
            if not np.array_equal(values[0], other):
                raise DecodingError(
                    "honest nodes decoded different results despite valid decoding"
                )
        diagnostics["per_node_decode"] = True
        return values[0], tuple(sorted(union_errors))
