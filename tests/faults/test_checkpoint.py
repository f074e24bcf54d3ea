"""Checkpoint lifecycle: interval due-ness, incremental spills,
interval-boundary rollback exactness, locality-aware redistribution, and
baseline-engine fault recovery through the shared manager."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.pagerank import PageRank
from repro.baselines.async_engine import AsyncEngine
from repro.baselines.bulk_sync import BulkSyncConfig, BulkSyncEngine
from repro.core.engine import DiGraphConfig, DiGraphEngine, _Run
from repro.errors import ConfigurationError, GPULostError
from repro.faults import (
    ComputeFault,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
)
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.machine import Machine

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    pcie_latency_s=1e-6,
    transfer_batch_bytes=1 << 20,
)

WIDE_SPEC = MachineSpec(
    num_gpus=4,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    pcie_latency_s=1e-6,
    transfer_batch_bytes=1 << 20,
)


def kill_plan(gpu=1, at_round=0):
    return FaultPlan(
        compute_faults={at_round: ComputeFault(kill_gpu=gpu)}
    )


def make_run(graph, spec, **policy_kwargs):
    engine = DiGraphEngine(spec)
    pre = engine.preprocess(graph)
    machine = Machine(spec, recovery=RecoveryPolicy(**policy_kwargs))
    run = _Run(engine, machine, graph, PageRank(), pre)
    assert run.checkpoints is not None
    return machine, run


class TestInterval:
    def test_first_round_always_due(self, medium_graph):
        _, run = make_run(medium_graph, SPEC, checkpoint_interval=4)
        assert run.checkpoints.due(0)

    @pytest.mark.parametrize("interval", [1, 2, 4])
    def test_due_every_k_rounds(self, medium_graph, interval):
        _, run = make_run(
            medium_graph, SPEC, checkpoint_interval=interval
        )
        run.checkpoints.checkpoint(0)
        for r in range(1, interval):
            assert not run.checkpoints.due(r), r
        assert run.checkpoints.due(interval)

    def test_not_due_right_after_rollback(self, medium_graph):
        """Replay resumes from the restored round without re-spilling
        the state it just reloaded."""
        _, run = make_run(medium_graph, SPEC, checkpoint_interval=2)
        run.checkpoints.checkpoint(4)
        resume = run.checkpoints.rollback(5)
        assert resume == 4
        assert not run.checkpoints.due(resume)
        assert run.checkpoints.due(resume + 2)

    def test_larger_interval_fewer_checkpoints(self, medium_graph):
        plan_counts = {}
        for interval in (1, 4):
            clean = DiGraphEngine(SPEC).run(
                medium_graph, make_program("wcc", medium_graph)
            )
            result = DiGraphEngine(SPEC).run(
                medium_graph,
                make_program("wcc", medium_graph),
                fault_injector=FaultInjector(kill_plan()),
                recovery=RecoveryPolicy(checkpoint_interval=interval),
            )
            assert result.converged
            assert np.array_equal(clean.states, result.states)
            plan_counts[interval] = (
                result.stats.checkpoints_taken,
                result.stats.checkpoint_bytes_spilled,
            )
        assert plan_counts[1][0] > plan_counts[4][0]
        assert plan_counts[1][1] > plan_counts[4][1]


class TestIncremental:
    def test_delta_smaller_than_full(self, medium_graph):
        _, run = make_run(
            medium_graph,
            SPEC,
            incremental_checkpoints=True,
            full_checkpoint_period=8,
        )
        full = run.checkpoints.checkpoint(0)
        assert full.kind == "full"
        run.states.values[0] += 1.0
        delta = run.checkpoints.checkpoint(1)
        assert delta.kind == "incremental"
        assert delta.dirty_vertices == 1
        assert delta.bytes_spilled < full.bytes_spilled

    def test_full_period_bounds_delta_chain(self, medium_graph):
        machine, run = make_run(
            medium_graph,
            SPEC,
            incremental_checkpoints=True,
            full_checkpoint_period=2,
        )
        kinds = [run.checkpoints.checkpoint(r).kind for r in range(4)]
        assert kinds == ["full", "incremental", "full", "incremental"]
        assert machine.stats.checkpoints_taken == 4
        assert machine.stats.incremental_checkpoints_taken == 2

    def test_incremental_restore_still_bit_exact(self, medium_graph):
        """The cost knob never changes restore semantics."""
        _, run = make_run(
            medium_graph,
            SPEC,
            incremental_checkpoints=True,
            full_checkpoint_period=8,
        )
        run.checkpoints.checkpoint(0)
        run.states.values[3] = 42.0
        run.checkpoints.checkpoint(1)  # incremental covers the change
        expect = run.states.values.copy()
        run.states.values[:] = -1.0
        run.checkpoints.rollback(2)
        assert np.array_equal(run.states.values, expect)

    def test_unreached_inf_sentinels_stay_clean(self, medium_graph):
        """inf == inf: untouched SSSP-style sentinels are not dirty."""
        _, run = make_run(
            medium_graph,
            SPEC,
            incremental_checkpoints=True,
            full_checkpoint_period=8,
        )
        run.states.values[:] = np.inf
        run.checkpoints.checkpoint(0)
        delta = run.checkpoints.checkpoint(1)
        assert delta.kind == "incremental"
        assert delta.dirty_vertices == 0

    def test_activity_churn_spills_per_array_not_per_vertex(
        self, medium_graph
    ):
        """An activity-flip run spills ~1 byte/vertex, not the full row.

        Flipping every ``active`` flag makes every vertex dirty, but
        only the 1-byte bool array changed — a union-of-dirty-vertices
        charge would bill the 8-byte values and all four stamps too.
        ``checkpoint_bytes_spilled`` must drop accordingly.
        """
        from repro.faults.checkpoint import (
            CHECKPOINT_HEADER_BYTES,
            _modeled_scalar_bytes,
        )

        machine, run = make_run(
            medium_graph,
            SPEC,
            incremental_checkpoints=True,
            full_checkpoint_period=8,
        )
        manager = run.checkpoints
        full = manager.checkpoint(0)
        run.states.active[:] = ~run.states.active
        run.states.values[0] += 1.0
        delta = manager.checkpoint(1)

        assert delta.kind == "incremental"
        n = medium_graph.num_vertices
        assert delta.dirty_vertices == n  # every vertex churned

        arrays = manager.client.vertex_arrays()
        bytes_per_vertex = sum(a.itemsize for a in arrays.values())
        vertex_gpu = np.asarray(manager.client.vertex_gpu())
        expected = 0
        union_charge = 0
        for i, gpu in enumerate(machine.live_gpu_ids()):
            owned = vertex_gpu == gpu
            owned_count = int(np.count_nonzero(owned))
            nbytes = CHECKPOINT_HEADER_BYTES
            nbytes += owned_count * arrays["active"].itemsize
            if owned[0]:
                nbytes += arrays["values"].itemsize
            if i == 0:
                scalar = _modeled_scalar_bytes(manager._scalars)
                nbytes += scalar
                union_charge += scalar
            union_charge += (
                CHECKPOINT_HEADER_BYTES + owned_count * bytes_per_vertex
            )
            expected += nbytes
        assert delta.bytes_spilled == expected
        # Far below both the full snapshot and the old union charge.
        assert delta.bytes_spilled < union_charge
        assert delta.bytes_spilled < full.bytes_spilled


class TestIntervalBoundaryRollback:
    """The property at the heart of the interval knob: killing a GPU in
    any round, under any checkpoint interval, replays up to K rounds and
    still lands bit-exactly on the fault-free fixed point."""

    @pytest.mark.parametrize("interval", [1, 2, 4])
    @pytest.mark.parametrize("kill_round", [0, 1, 2, 3])
    def test_bit_exact_after_replay(
        self, medium_graph, interval, kill_round
    ):
        clean = DiGraphEngine(SPEC).run(
            medium_graph, make_program("wcc", medium_graph)
        )
        result = DiGraphEngine(SPEC).run(
            medium_graph,
            make_program("wcc", medium_graph),
            fault_injector=FaultInjector(
                kill_plan(at_round=kill_round)
            ),
            recovery=RecoveryPolicy(checkpoint_interval=interval),
        )
        assert result.converged
        assert result.stats.gpu_failures == 1
        assert result.stats.rollback_replay_rounds >= 1
        assert np.array_equal(clean.states, result.states)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("interval", [1, 2, 4])
    def test_seeded_plans_bit_exact(self, medium_graph, seed, interval):
        clean = DiGraphEngine(SPEC).run(
            medium_graph, make_program("wcc", medium_graph)
        )
        plan = FaultPlan.generate(
            seed,
            SPEC.num_gpus,
            kill_gpu=1,
            kill_at_round=seed,
            sync_drop_rate=0.05,
            sync_corrupt_rate=0.05,
        )
        result = DiGraphEngine(SPEC).run(
            medium_graph,
            make_program("wcc", medium_graph),
            fault_injector=FaultInjector(plan),
            recovery=RecoveryPolicy(
                checkpoint_interval=interval,
                incremental_checkpoints=bool(seed % 2),
            ),
        )
        assert result.converged
        assert np.array_equal(clean.states, result.states)


class TestRedistributionPolicies:
    def _dispatcher_with_dead_gpu(self, medium_graph):
        engine = DiGraphEngine(WIDE_SPEC)
        pre = engine.preprocess(medium_graph)
        machine = Machine(WIDE_SPEC)
        run = _Run(engine, machine, medium_graph, PageRank(), pre)
        dead = 3
        on_dead = [
            pid
            for pid, gpu in run.dispatcher.current_gpu.items()
            if gpu == dead
        ]
        assert on_dead
        machine.kill_gpu(dead)
        return run.dispatcher, dead, on_dead

    def test_unknown_policy_rejected(self, medium_graph):
        dispatcher, dead, _ = self._dispatcher_with_dead_gpu(medium_graph)
        with pytest.raises(ConfigurationError):
            dispatcher.redistribute_dead_gpu(dead, policy="bogus")

    @pytest.mark.parametrize("policy", ["locality", "edge-balance"])
    def test_everything_moves_off_the_dead_gpu(self, medium_graph, policy):
        dispatcher, dead, on_dead = self._dispatcher_with_dead_gpu(
            medium_graph
        )
        moved = dispatcher.redistribute_dead_gpu(dead, policy=policy)
        assert sorted(moved) == sorted(on_dead)
        assert dead not in set(dispatcher.current_gpu.values())

    def test_locality_keeps_clusters_co_resident(self, medium_graph):
        dispatcher, dead, on_dead = self._dispatcher_with_dead_gpu(
            medium_graph
        )
        dispatcher.redistribute_dead_gpu(dead, policy="locality")
        # Recompute the dependency-connected clusters of the dead set;
        # locality's contract is that each cluster lands on ONE survivor.
        parent = {pid: pid for pid in on_dead}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        dead_set = set(on_dead)
        for a, b in dispatcher.topology.partition_deps.tolist():
            if a in dead_set and b in dead_set:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        clusters = {}
        for pid in on_dead:
            clusters.setdefault(find(pid), []).append(pid)
        for members in clusters.values():
            targets = {dispatcher.current_gpu[pid] for pid in members}
            assert len(targets) == 1, members


class TestBaselineRecovery:
    """The baselines share the checkpoint manager: a mid-run GPU kill
    rolls back and converges to the fault-free fixed point."""

    def _clean_states(self, medium_graph, engine):
        return engine.run(
            medium_graph, make_program("wcc", medium_graph)
        ).states

    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda: BulkSyncEngine(machine_spec=SPEC),
            lambda: BulkSyncEngine(
                machine_spec=SPEC,
                config=BulkSyncConfig(use_vectorized_kernels=True),
            ),
            lambda: AsyncEngine(machine_spec=SPEC),
        ],
        ids=["bulk-sync", "bulk-sync-vec", "async"],
    )
    @pytest.mark.parametrize("interval", [1, 2, 4])
    def test_kill_recovers_bit_exact(
        self, medium_graph, make_engine, interval
    ):
        # Vectorized bulk-sync certifies against the SCALAR golden run:
        # batch kernels must land on the scalar fixed point even when
        # the run is interrupted and replayed.
        clean = self._clean_states(
            medium_graph, BulkSyncEngine(machine_spec=SPEC)
            if isinstance(make_engine(), BulkSyncEngine)
            else make_engine()
        )
        result = make_engine().run(
            medium_graph,
            make_program("wcc", medium_graph),
            fault_injector=FaultInjector(kill_plan(at_round=2)),
            recovery=RecoveryPolicy(checkpoint_interval=interval),
        )
        assert result.converged
        assert result.stats.gpu_failures == 1
        assert result.stats.checkpoints_taken >= 1
        assert result.stats.rollback_replay_rounds >= 1
        assert result.stats.retransferred_bytes > 0
        assert np.array_equal(clean, result.states)

    def test_incremental_reduces_baseline_spill(self, medium_graph):
        spilled = {}
        for incremental in (False, True):
            result = BulkSyncEngine(machine_spec=SPEC).run(
                medium_graph,
                make_program("wcc", medium_graph),
                fault_injector=FaultInjector(kill_plan(at_round=2)),
                recovery=RecoveryPolicy(
                    checkpoint_interval=2,
                    incremental_checkpoints=incremental,
                ),
            )
            assert result.converged
            spilled[incremental] = result.stats.checkpoint_bytes_spilled
        assert spilled[True] < spilled[False]

    def test_kill_without_recovery_raises(self, medium_graph):
        """Non-vacuity: the injected death is real when nothing arms
        the recovery path."""
        with pytest.raises(GPULostError):
            BulkSyncEngine(machine_spec=SPEC).run(
                medium_graph,
                make_program("wcc", medium_graph),
                fault_injector=FaultInjector(kill_plan(at_round=2)),
            )


class TestOverlapSpill:
    """Double-buffered checkpoint spill: the PCIe drain hides under the
    compute that follows, semantics (restores, digests) unchanged."""

    def _run(self, medium_graph, overlap, fault=True):
        return DiGraphEngine(SPEC).run(
            medium_graph,
            make_program("wcc", medium_graph),
            fault_injector=(
                FaultInjector(kill_plan(at_round=2)) if fault else None
            ),
            recovery=RecoveryPolicy(
                checkpoint_interval=2,
                overlap_checkpoint_spill=overlap,
            ),
        )

    def test_overlap_hides_spill_and_stays_bit_exact(self, medium_graph):
        serial = self._run(medium_graph, overlap=False)
        overlapped = self._run(medium_graph, overlap=True)
        assert overlapped.converged
        assert np.array_equal(serial.states, overlapped.states)
        assert serial.stats.checkpoint_hidden_time_s == 0.0
        hidden = overlapped.stats.checkpoint_hidden_time_s
        assert hidden > 0.0
        assert hidden <= overlapped.stats.checkpoint_time_s
        # Identical spill ledgers, but the hidden part never serialized.
        assert (
            overlapped.stats.checkpoint_bytes_spilled
            == serial.stats.checkpoint_bytes_spilled
        )
        assert (
            overlapped.stats.total_time_s
            == pytest.approx(serial.stats.total_time_s - hidden)
        )

    def test_fault_free_run_hides_spill_too(self, medium_graph):
        overlapped = self._run(medium_graph, overlap=True, fault=False)
        assert overlapped.stats.checkpoint_hidden_time_s > 0.0

    def test_records_settle_with_hidden_fraction(self, medium_graph):
        machine, run = make_run(
            medium_graph,
            SPEC,
            checkpoint_interval=2,
            overlap_checkpoint_spill=True,
        )
        manager = run.checkpoints
        first = manager.checkpoint(0)
        assert first.time_s > 0.0
        assert first.hidden_time_s == 0.0      # not settled yet
        # Plenty of compute runs before the next checkpoint: the whole
        # drain hides.
        machine.stats.compute_time_s += 1.0
        manager.checkpoint(2)
        settled = manager.records[0]
        assert settled.hidden_time_s == pytest.approx(first.time_s)
        assert settled.hidden_fraction == pytest.approx(1.0)

    def test_finish_drains_the_last_pending_spill(self, medium_graph):
        machine, run = make_run(
            medium_graph,
            SPEC,
            checkpoint_interval=2,
            overlap_checkpoint_spill=True,
        )
        manager = run.checkpoints
        record = manager.checkpoint(0)
        spill = record.time_s
        # Only half the drain window is covered by compute: half hides,
        # the exposed half serializes at finish() like a stream flush.
        machine.stats.compute_time_s += spill / 2
        before_transfer = machine.stats.transfer_time_s
        manager.finish()
        assert machine.stats.checkpoint_hidden_time_s == pytest.approx(
            spill / 2
        )
        assert machine.stats.transfer_time_s - before_transfer == (
            pytest.approx(spill / 2)
        )
        settled = manager.records[0]
        assert settled.hidden_fraction == pytest.approx(0.5)
        # finish() is idempotent: nothing left to settle.
        manager.finish()
        assert machine.stats.checkpoint_hidden_time_s == pytest.approx(
            spill / 2
        )

    def test_serialized_spill_records_report_zero_hidden(
        self, medium_graph
    ):
        machine, run = make_run(
            medium_graph, SPEC, checkpoint_interval=2
        )
        manager = run.checkpoints
        manager.checkpoint(0)
        machine.stats.compute_time_s += 1.0
        manager.checkpoint(2)
        manager.finish()
        assert machine.stats.checkpoint_hidden_time_s == 0.0
        assert all(r.hidden_time_s == 0.0 for r in manager.records)
        assert all(r.hidden_fraction == 0.0 for r in manager.records)

    def test_rollback_settles_exposed_spill_as_overhead_not_lost_work(
        self, medium_graph
    ):
        """An in-flight spill settled by rollback is checkpoint
        overhead: recovery_time_s must match the non-overlapped run's
        (same restores, no exposed-spill leakage into lost work)."""
        charges = {}
        for overlap in (False, True):
            machine, run = make_run(
                medium_graph,
                SPEC,
                checkpoint_interval=2,
                overlap_checkpoint_spill=overlap,
            )
            manager = run.checkpoints
            manager.checkpoint(0)
            # No compute since the checkpoint: the whole spill is
            # exposed in the overlap case.
            manager.rollback(1)
            stats = machine.stats
            charges[overlap] = (
                stats.recovery_time_s,
                stats.transfer_time_s,
                stats.checkpoint_hidden_time_s,
            )
        assert charges[True][0] == pytest.approx(charges[False][0])
        assert charges[True][1] == pytest.approx(charges[False][1])
        assert charges[True][2] == 0.0


class TestSettlementEdgeCases:
    """CheckpointRecord / _settle_pending boundary conditions."""

    def test_zero_duration_record_hidden_fraction_is_zero(self):
        from repro.faults.checkpoint import CheckpointRecord

        record = CheckpointRecord(
            round_index=0, kind="full", bytes_spilled=0,
            dirty_vertices=0, time_s=0.0,
        )
        assert record.hidden_fraction == 0.0  # no ZeroDivisionError

    def test_finish_with_no_pending_spill_is_a_noop(self, medium_graph):
        machine, run = make_run(
            medium_graph, SPEC, checkpoint_interval=2,
            overlap_checkpoint_spill=True,
        )
        manager = run.checkpoints
        # finish() before any checkpoint: nothing to drain, nothing
        # charged, no records invented.
        before = (
            machine.stats.transfer_time_s,
            machine.stats.checkpoint_hidden_time_s,
        )
        manager.finish()
        assert (
            machine.stats.transfer_time_s,
            machine.stats.checkpoint_hidden_time_s,
        ) == before
        assert manager.records == []

    def test_settle_with_no_pending_returns_zeros(self, medium_graph):
        _, run = make_run(
            medium_graph, SPEC, checkpoint_interval=2,
            overlap_checkpoint_spill=True,
        )
        assert run.checkpoints._settle_pending() == (0.0, 0.0)

    def test_rollback_exactly_on_pending_checkpoint_round(
        self, medium_graph
    ):
        """Failure lands on the very round whose checkpoint spill is
        still in flight: the spill belongs to the checkpoint being
        restored, settles fully exposed (no compute ran since issue),
        and the exposed seconds are checkpoint overhead — not lost
        work double-counted into recovery_time_s."""
        charges = {}
        for overlap in (False, True):
            machine, run = make_run(
                medium_graph, SPEC, checkpoint_interval=2,
                overlap_checkpoint_spill=overlap,
            )
            manager = run.checkpoints
            record = manager.checkpoint(2)
            assert record.time_s > 0.0
            restored = manager.rollback(2)
            assert restored == 2
            settled = manager.records[-1]
            assert settled.round_index == 2
            assert settled.hidden_time_s == 0.0
            assert settled.hidden_fraction == 0.0
            assert machine.stats.rollback_replay_rounds == 1
            charges[overlap] = (
                machine.stats.recovery_time_s,
                machine.stats.transfer_time_s,
            )
        # The exposed spill serialized as transfer and was carved out
        # of the lost-work delta: recovery and transfer charges match
        # the serialized run exactly — no spill leakage into recovery.
        assert charges[True][0] == pytest.approx(charges[False][0])
        assert charges[True][1] == pytest.approx(charges[False][1])
