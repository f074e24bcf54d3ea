"""The DiGraph engine: path-based asynchronous execution on multiple GPUs.

Execution follows Section 3 end to end:

1. **Preprocess** (CPU, ``n_workers`` shards): Algorithm-1 path
   decomposition, head-to-tail merging, the path dependency DAG with
   layers, partition formation, the Fig. 4 storage arrays, and the replica
   table. Modeled CPU time is charged per the paper's one-traversal
   argument.
2. **Dispatch**: partitions are grouped by mutual dependency and layered;
   each round runs the *frontier groups* (active groups whose predecessor
   groups have all converged), plus advance-execution work when GPUs would
   idle. Partitions transfer host->GPU in batches, prefetched on streams;
   idle GPUs steal runnable partitions.
3. **Process**: on each SMX, paths are ordered by ``Pri(p)`` and packed
   onto threads with balanced edge counts; one thread walks one path
   sequentially, so a vertex's new state reaches its in-path successors
   within the same round (Observation 1). Gather always reads the current
   master states, so the result is a Gauss-Seidel-style relaxation whose
   fixed point matches every other engine.
4. **Synchronize**: changed vertices push replica updates, batched per
   destination partition; proxy vertices absorb same-SMX write contention.

Variant flags reproduce the paper's ablations: ``use_path_execution=False``
is DiGraph-t (traditional per-vertex async on the same partitions, no
dependency ordering), ``use_priority_scheduling=False`` is DiGraph-w.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    GPULostError,
    PermanentInterconnectFault,
)
from repro.graph.digraph import DiGraphCSR
from repro.gpu.config import MachineSpec
from repro.gpu.machine import Machine
from repro.model.gas import VertexProgram
from repro.model.state import StalenessView, VertexStates
from repro.bench.results import ExecutionResult, RoundRecord
from repro.core.dependency import DependencyDAG, build_dependency_dag
from repro.core.dispatch import Dispatcher
from repro.core.partitioning import (
    D_MAX,
    decompose_into_paths,
    modeled_preprocess_seconds,
)
from repro.core.paths import PathSet
from repro.core.plan import RunPlan
from repro.core.replicas import ReplicaTable
from repro.core.scheduling import PathScheduler, balance_paths_to_threads
from repro.core.storage import (
    BYTES_PER_MESSAGE,
    PathStorage,
    build_partitions,
)
from repro.kernels.registry import resolve_kernel
from repro.baselines.common import resolve_partition_target

#: Bound on SMX-local path iterations within one partition pass.
_MAX_LOCAL_ITERATIONS = 1000


@dataclass(frozen=True)
class DiGraphConfig:
    """Tunables of the DiGraph engine (paper defaults)."""

    d_max: int = D_MAX
    n_workers: int = 1
    #: ``None`` sizes partitions adaptively (~64 per graph).
    target_edges_per_partition: Optional[int] = None
    hot_fraction: float = 0.1
    proxy_in_degree_threshold: int = 8
    merge_short_paths: bool = True
    degree_greedy: bool = True
    #: False -> DiGraph-t: traditional async processing, no path walks,
    #: no dependency-ordered dispatch.
    use_path_execution: bool = True
    #: False -> DiGraph-w: round-robin path order instead of Pri(p).
    use_priority_scheduling: bool = True
    #: Batch the vertex-centric partition pass (DiGraph-t) through the
    #: vectorized kernels (:mod:`repro.kernels`). Per-update accounting
    #: is unchanged; within one partition pass the batch gathers from
    #: the pass-start view (Jacobi) where the scalar loop sees earlier
    #: in-pass writes (Gauss-Seidel), so the trajectory may differ while
    #: the fixed point does not. No effect on path execution.
    use_vectorized_kernels: bool = False
    prefetch: bool = True
    max_rounds: int = 100000
    #: Extra runnable partitions admitted per round beyond the frontier
    #: when GPUs would otherwise idle (advance execution), as a multiple
    #: of the GPU count. Off by default: on scaled-down workloads the
    #: stale-input updates it admits outweigh the utilization gain (the
    #: ablation bench sweeps it).
    advance_factor: int = 0
    #: Run the :mod:`repro.verify` invariant checkers after preprocessing
    #: (structural: paths, DAG, replicas, storage) and after execution
    #: (conservation + fixed point), raising
    #: :class:`~repro.errors.VerificationError` on any violation.
    verify_invariants: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.advance_factor < 0:
            raise ConfigurationError("advance_factor must be >= 0")


@dataclass
class Preprocessed:
    """Everything the CPU produces before GPU execution starts."""

    path_set: PathSet
    dag: DependencyDAG
    storage: PathStorage
    replicas: ReplicaTable
    modeled_seconds: float
    wall_seconds: float
    _plan: Optional[RunPlan] = field(
        default=None, init=False, repr=False, compare=False
    )

    def run_plan(self) -> RunPlan:
        """The run plan shared by every run over this layout.

        Built on the first run rather than in
        :meth:`DiGraphEngine.preprocess`, so preprocessing time does not
        absorb it; see :mod:`repro.core.plan`.
        """
        if self._plan is None:
            self._plan = RunPlan.build(
                self.path_set, self.dag, self.storage, self.replicas
            )
        return self._plan


class DiGraphEngine:
    """Path-based iterative directed graph processing (the paper's system)."""

    name = "digraph"

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        config: Optional[DiGraphConfig] = None,
    ) -> None:
        self.spec = machine_spec or MachineSpec()
        self.config = config or DiGraphConfig()

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def preprocess(self, graph: DiGraphCSR) -> Preprocessed:
        """CPU preprocessing: paths, DAG, partitions, storage, replicas."""
        cfg = self.config
        started = time.perf_counter()
        target = resolve_partition_target(
            graph, cfg.target_edges_per_partition
        )
        path_set = decompose_into_paths(
            graph,
            d_max=cfg.d_max,
            n_workers=cfg.n_workers,
            merge_short_paths=cfg.merge_short_paths,
            hot_fraction=cfg.hot_fraction,
            degree_greedy=cfg.degree_greedy,
        )
        dag = build_dependency_dag(path_set)
        partitions = build_partitions(path_set, dag, target)
        storage = PathStorage(path_set, partitions)
        gpu_spec = self.spec.gpu
        proxy_capacity = gpu_spec.shared_memory_per_smx_bytes // 16
        replicas = ReplicaTable(
            path_set,
            storage,
            proxy_in_degree_threshold=cfg.proxy_in_degree_threshold,
            proxy_capacity=proxy_capacity,
        )
        wall = time.perf_counter() - started
        modeled = modeled_preprocess_seconds(
            graph, cfg.n_workers, dependency_vertices=dag.num_paths
        )
        pre = Preprocessed(
            path_set=path_set,
            dag=dag,
            storage=storage,
            replicas=replicas,
            modeled_seconds=modeled,
            wall_seconds=wall,
        )
        if cfg.verify_invariants:
            from repro.verify.structural import verify_preprocessed

            verify_preprocessed(pre).raise_if_failed()
        return pre

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        graph: DiGraphCSR,
        program: VertexProgram,
        preprocessed: Optional[Preprocessed] = None,
        graph_name: str = "graph",
        strict_convergence: bool = True,
        fault_injector=None,
        recovery=None,
        initial_values=None,
        initial_active=None,
        resume: bool = False,
    ) -> ExecutionResult:
        """Run ``program`` to convergence and return the result record.

        ``fault_injector`` (a :class:`repro.faults.FaultInjector` or a
        legacy plain callable) makes the simulated machine misbehave;
        ``recovery`` (a :class:`repro.faults.RecoveryPolicy`) turns on
        retries, replica resends, straggler re-dispatch, and round-level
        checkpoint/rollback with GPU-loss redistribution. Without a
        policy, injected faults surface raw.

        ``initial_values`` / ``initial_active`` warm-start the run for
        delta recompute (:mod:`repro.streaming`): vertex states resume
        from a prior fixpoint and only the provided active set is
        reactivated. The run's rounds are then accounted as
        ``incremental_rounds`` and the activation count as
        ``vertices_reactivated``.

        ``resume=True`` is the whole-job restart path: ``recovery``
        must carry ``durability != "none"`` and a ``run_dir`` holding a
        durable checkpoint store; the run reloads the newest intact
        checkpoint (checksums verified) and replays from its round —
        bit-identical to never having crashed.
        """
        cfg = self.config
        started = time.perf_counter()
        pre = preprocessed or self.preprocess(graph)
        machine = Machine(
            self.spec, fault_injector=fault_injector, recovery=recovery
        )
        machine.stats.preprocess_time_s = pre.modeled_seconds

        run = _Run(
            self,
            machine,
            graph,
            program,
            pre,
            initial_values=initial_values,
            initial_active=initial_active,
        )
        if initial_active is not None:
            machine.stats.vertices_reactivated += int(
                np.count_nonzero(np.asarray(initial_active, dtype=bool))
            )
        converged = run.execute(resume=resume)
        if initial_values is not None or initial_active is not None:
            machine.stats.incremental_rounds += machine.stats.rounds
        if not converged and strict_convergence:
            raise ConvergenceError(
                f"{program.name} did not converge within "
                f"{cfg.max_rounds} rounds",
                rounds=machine.stats.rounds,
                active_vertices=run.states.num_active,
                last_max_delta=run.last_max_delta,
            )
        if cfg.verify_invariants:
            from repro.verify.conservation import verify_run_conservation
            from repro.verify.report import VerificationReport
            from repro.verify.structural import check_fixed_point_reached

            report = VerificationReport(
                verify_run_conservation(
                    machine.stats, run.sync_sent_bytes
                ).results
                + (
                    [
                        check_fixed_point_reached(
                            program, graph, run.states.values
                        )
                    ]
                    if converged
                    else []
                )
            )
            report.raise_if_failed()
        extras = {
            "num_paths": float(pre.path_set.num_paths),
            "avg_path_length": pre.path_set.average_length(),
            "num_partitions": float(pre.storage.num_partitions),
            "num_scc_vertices": float(pre.dag.num_scc_vertices),
            "giant_scc_path_fraction": pre.dag.giant_scc_path_fraction(),
            "steals": float(run.dispatcher.steal_count),
        }
        if fault_injector is not None:
            stats = machine.stats
            extras.update(
                {
                    "transfer_retries": float(stats.transfer_retries),
                    "sync_retries": float(stats.sync_retries),
                    "stragglers_detected": float(stats.stragglers_detected),
                    "gpu_failures": float(stats.gpu_failures),
                    "rounds_rolled_back": float(stats.rounds_rolled_back),
                    "rollback_replay_rounds": float(
                        stats.rollback_replay_rounds
                    ),
                    "checkpoints_taken": float(stats.checkpoints_taken),
                    "checkpoint_bytes_spilled": float(
                        stats.checkpoint_bytes_spilled
                    ),
                    "checkpoint_time_s": stats.checkpoint_time_s,
                    "checkpoint_hidden_time_s": (
                        stats.checkpoint_hidden_time_s
                    ),
                    "recovery_time_s": stats.recovery_time_s,
                }
            )
        return ExecutionResult(
            engine=self.engine_label(),
            algorithm=program.name,
            graph_name=graph_name,
            converged=converged,
            rounds=machine.stats.rounds,
            states=run.states.values.copy(),
            stats=machine.stats,
            round_records=run.round_records,
            wall_seconds=time.perf_counter() - started,
            extras=extras,
        )

    def engine_label(self) -> str:
        """The paper's name for this configuration."""
        if not self.config.use_path_execution:
            return "digraph-t"
        if not self.config.use_priority_scheduling:
            return "digraph-w"
        return "digraph"


class _Run:
    """Mutable state of one engine execution (keeps ``run`` readable)."""

    def __init__(
        self,
        engine: DiGraphEngine,
        machine: Machine,
        graph: DiGraphCSR,
        program: VertexProgram,
        pre: Preprocessed,
        initial_values=None,
        initial_active=None,
    ) -> None:
        self.engine = engine
        self.cfg = engine.config
        self.machine = machine
        self.graph = graph
        self.program = program
        self.pre = pre
        self.states = VertexStates(
            graph,
            program,
            initial_values=initial_values,
            initial_active=initial_active,
        )
        plan = pre.run_plan()
        self.scheduler = PathScheduler(
            pre.path_set,
            pre.dag,
            enabled=self.cfg.use_priority_scheduling,
            statics=plan.statics,
        )
        self.dispatcher = Dispatcher(
            pre.storage,
            pre.dag,
            machine,
            prefetch=self.cfg.prefetch,
            topology=plan.topology,
        )
        # Batched gather-apply for the vertex-centric pass (scalar
        # fallback keeps unregistered programs on the same code path).
        self.kernel = (
            resolve_kernel(program, graph)
            if self.cfg.use_vectorized_kernels
            else None
        )
        self.round_records: List[RoundRecord] = []

        # Per-vertex owner partition (post layer-aware override; -1 for
        # vertices on no path) and per-partition dispatch group.
        self._owner_pid = plan.owner_partition
        self._group_of_partition = plan.topology.group_of_partition
        # Per-run program tables: the walk indexes these instead of
        # calling the program's graph accessors per vertex. Gather-edge
        # and dependents lists fill lazily (a warm-started run touches
        # few vertices); degrees are needed whole for path work.
        num_vertices = graph.num_vertices
        self._identity = program.identity
        self._gather_degree = [
            program.gather_degree(graph, v) for v in range(num_vertices)
        ]
        self._gather_edges: List[Optional[List[Tuple[int, float]]]] = [
            None
        ] * num_vertices
        self._dependents: List[Optional[List[int]]] = [None] * num_vertices
        # Expected gather work of each path (sum of gather degrees over
        # its slots), the thread-balancing weight.
        self._path_work = plan.statics.path_sums(
            self._gather_degree
        ).tolist()
        self._path_vertices = [path.vertices for path in pre.path_set]
        self._path_sizes = plan.statics.num_vertices

        # Per-partition active-vertex counters (a vertex counts once, at
        # its owner partition).
        self.partition_active = np.zeros(
            pre.storage.num_partitions, dtype=np.int64
        )
        # Per-group active-partition counters.
        self.group_active = np.zeros(
            plan.topology.num_groups, dtype=np.int64
        )
        self._partition_was_active = np.zeros(
            pre.storage.num_partitions, dtype=bool
        )
        # Per-round replica-sync accumulator: (src_gpu, dst_gpu) -> bytes.
        self._pending_sync_bytes: Dict[Tuple[int, int], int] = {}
        # Vertices riding each pair's pending batch — tracked only under
        # a structured fault injector, so corruption knows which master
        # states a garbled batch poisons.
        self._pending_sync_payload: Dict[Tuple[int, int], List[int]] = {}
        self._track_payloads = machine._structured_injector is not None
        # Send-side ledger over the whole run, recorded at message
        # production time — the machine's receive-side
        # ``replica_pair_bytes`` is recorded at flush time, so comparing
        # the two catches dropped or double flushes (repro.verify).
        self.sync_sent_bytes: Dict[Tuple[int, int], int] = {}
        # GPU currently processing (None outside partition processing)
        # and activations waiting for the next wave boundary, as
        # (vertex, producing_gpu, owner_gpu) — the GPU pair identifies
        # the replica batch the activation message rides on.
        self._processing_gpu: Optional[int] = None
        self._deferred_activations: List[Tuple[int, int, int]] = []
        # Fault recovery: the machine's policy, rollback budget used,
        # and the largest state change of the last completed round
        # (diagnostic for ConvergenceError).
        self.recovery = machine.recovery
        self._rollbacks = 0
        self._round_max_delta = 0.0
        self.last_max_delta = 0.0
        # Round stamp per vertex: a vertex is updated at most once per
        # round (the paper walks each path once per round; replica
        # occurrences re-use the master state instead of recomputing).
        self._processed_stamp = np.zeros(num_vertices, dtype=np.int64)
        self._sweep_stamp = np.zeros(num_vertices, dtype=np.int64)
        # Which GPU last wrote each vertex, and during which wave — a
        # value is fresh on its writer's GPU even before replica sync.
        self._written_gpu = np.full(num_vertices, -1, dtype=np.int64)
        self._written_stamp = np.zeros(num_vertices, dtype=np.int64)
        self._wave_counter = 0
        self._current_round = 0
        self._stamp_counter = 0
        self._rounds_done = 0
        # GPU of each vertex's owner partition, refreshed every wave.
        self._owner_gpu = self._vertex_gpu()
        # Checkpoint lifecycle: built by the policy itself (duck-typed),
        # so this layer never imports repro.faults.
        self.checkpoints = (
            self.recovery.make_checkpoint_manager(
                machine, _EngineCheckpointClient(self)
            )
            if self.recovery is not None
            and getattr(self.recovery, "checkpoint_rounds", False)
            and hasattr(self.recovery, "make_checkpoint_manager")
            else None
        )
        self.scheduler.reset_counts(self.states.active)
        owners = self._owner_pid[self.states.active]
        self.partition_active[:] = np.bincount(
            owners[owners >= 0], minlength=self.partition_active.size
        )
        self._partition_was_active[:] = self.partition_active > 0
        self.group_active[:] = np.bincount(
            self._group_of_partition[self._partition_was_active],
            minlength=self.group_active.size,
        )

    def _gather_edges_of(self, v: int) -> List[Tuple[int, float]]:
        edges = self._gather_edges[v]
        if edges is None:
            edges = self._gather_edges[v] = list(
                self.program.gather_edges(self.graph, v)
            )
        return edges

    def _dependents_of(self, v: int) -> List[int]:
        dependents = self._dependents[v]
        if dependents is None:
            dependents = self._dependents[v] = [
                int(u) for u in self.program.dependents(self.graph, v)
            ]
        return dependents

    def _vertex_gpu(self) -> np.ndarray:
        """Current GPU of each vertex's owner partition (-1: no owner)."""
        current_gpu = self.dispatcher.current_gpu
        pid_gpu = np.full(len(current_gpu) + 1, -1, dtype=np.int64)
        for pid, gpu in current_gpu.items():
            pid_gpu[pid] = gpu
        # Unowned vertices (owner -1) map to the trailing -1 slot.
        return pid_gpu[self._owner_pid]

    # ------------------------------------------------------------------
    # activity bookkeeping
    # ------------------------------------------------------------------
    def _bump_partitions(self, v: int, delta: int) -> None:
        # Activity is tracked at the vertex's owner partition only:
        # counting every replica partition would keep upstream groups
        # flickering active (any downstream activation re-marks them),
        # permanently blocking the dependency frontier.
        pid = self._owner_pid[v]
        if pid < 0:
            return
        before = self.partition_active[pid]
        after = max(0, before + delta)
        self.partition_active[pid] = after
        if before == 0 and after > 0:
            self.group_active[self._group_of_partition[pid]] += 1
            self._partition_was_active[pid] = True
        elif before > 0 and after == 0:
            self.group_active[self._group_of_partition[pid]] -= 1
            self._partition_was_active[pid] = False

    def activate(self, vertices: Sequence[int]) -> None:
        """Activate vertices, honoring message-delivery timing.

        A changed state is visible immediately on the GPU that produced
        it, but reaches other GPUs only with the end-of-wave replica
        synchronization — so activations of remote-owned vertices are
        deferred to the wave boundary. Activating them instantly would
        let them process the *stale* snapshot of the very change that
        activated them and then deactivate, losing the update.
        """
        producing_gpu = self._processing_gpu
        owner_gpu = self._owner_gpu
        active = self.states.active
        for v in vertices:
            if producing_gpu is not None:
                dst_gpu = int(owner_gpu[v])
                if dst_gpu >= 0 and dst_gpu != producing_gpu:
                    # Always queued — even if currently active: the
                    # target may be processed later this wave against the
                    # stale snapshot and deactivate, which would drop this
                    # change's message.
                    self._deferred_activations.append(
                        (v, producing_gpu, dst_gpu)
                    )
                    continue
            if not active[v]:
                self._activate_now(v)

    def _activate_now(self, v: int) -> None:
        """Activate an inactive vertex."""
        self.states.active[v] = True
        self.scheduler.vertex_activated(v)
        self._bump_partitions(v, +1)

    def _apply_deferred_activations(
        self, lost_pairs: Set[Tuple[int, int]] = frozenset()
    ) -> None:
        """Deliver cross-GPU activations at the wave boundary.

        An activation message rides its pair's replica batch: if that
        batch was dropped in flight (fault injection without recovery),
        the activation is lost with it — the receiver never learns its
        input changed, which is exactly the failure the conservation and
        fixed-point checkers must catch.
        """
        pending, self._deferred_activations = self._deferred_activations, []
        for v, src_gpu, dst_gpu in pending:
            if (src_gpu, dst_gpu) in lost_pairs:
                continue
            if not self.states.active[v]:
                self._activate_now(v)

    def deactivate(self, v: int) -> None:
        if self.states.active[v]:
            self.states.active[v] = False
            self.scheduler.vertex_deactivated(v)
            self._bump_partitions(v, -1)

    def partition_is_active(self, pid: int) -> bool:
        return self.partition_active[pid] > 0

    def _note_delta(self, old: float, new: float) -> None:
        """Track the round's largest state change (ConvergenceError
        diagnostics). Any move involving an infinity counts as inf."""
        if math.isfinite(old) and math.isfinite(new):
            delta = abs(new - old)
        else:
            delta = float("inf")
        if delta > self._round_max_delta:
            self._round_max_delta = delta

    def active_successor_partitions(self, pid: int) -> int:
        """Eviction-policy input: active direct successor partitions."""
        return sum(
            1
            for succ in self.dispatcher.partition_successors(pid)
            if self.partition_is_active(succ)
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self, resume: bool = False) -> bool:
        """Run topological sweeps until no vertex is active.

        One *round* is one sweep: the dependency frontier is processed,
        which may converge groups and unblock their successors — those
        run within the **same** sweep (the paper dispatches SCC-vertices
        asynchronously as SMXs free up, with no global barrier between
        layers). A partition runs at most once per sweep; a group that
        stays active (an iterating SCC) waits for the next sweep.

        With a recovery policy, the checkpoint manager snapshots the
        logical state every ``checkpoint_interval`` rounds (spill cost
        charged on the PCIe ring): a GPU death (or a permanently failed
        link) mid-round rolls back to the last checkpoint, fences the
        dead GPU off, redistributes its partitions across the survivors,
        and replays the discarded rounds. Replayed rounds do not consume
        the convergence budget (they are bounded separately by
        ``max_gpu_loss_recoveries``).
        """
        stats = self.machine.stats
        manager = self.checkpoints
        if resume:
            if manager is None or manager.store is None:
                raise ConfigurationError(
                    "resume requires a recovery policy with "
                    "durability != 'none' and a run_dir"
                )
            # Every durable checkpoint was taken *after* the isolated-
            # vertex preamble, so its effects are already in the
            # restored state — re-running it would double-apply.
            loaded = manager.resume_from_store()
            self._rounds_done = int(loaded.round_index)
        else:
            self._process_isolated_vertices()
            self._rounds_done = 0
        try:
            while self._rounds_done < self.cfg.max_rounds:
                if not self.states.any_active():
                    return True
                if manager is not None and manager.due(self._rounds_done):
                    manager.checkpoint(self._rounds_done)
                try:
                    swept_any = self._execute_round()
                except GPULostError as exc:
                    self._recover_gpu_loss(exc.gpu_id, exc)
                    continue
                except PermanentInterconnectFault as exc:
                    # A link that stays dead is indistinguishable from
                    # the GPU behind it being unreachable: fence off the
                    # GPU at the failing endpoint and degrade onto the
                    # survivors.
                    gpu_id = (
                        exc.dst if isinstance(exc.dst, int) else exc.src
                    )
                    if not isinstance(gpu_id, int):
                        raise
                    self._recover_gpu_loss(gpu_id, exc)
                    continue
                self._rounds_done += 1
                stats.rounds += 1
                if not swept_any:
                    # Active vertices exist only outside any partition —
                    # impossible once isolated vertices were handled.
                    return True
            return not self.states.any_active()
        finally:
            # Settle any in-flight double-buffered checkpoint spill: the
            # last spill's exposed remainder must land on the timeline
            # even when the run converges (or aborts) right after it.
            if manager is not None:
                manager.finish()

    def _execute_round(self) -> bool:
        """One sweep over the dependency frontier; True if anything ran."""
        self._current_round += 1
        self._round_max_delta = 0.0
        processed_this_sweep: Set[int] = set()
        live = self.machine.live_gpu_ids()
        self._sweep_work = {g: [] for g in live}
        self._sweep_atomics = {g: [] for g in live}
        swept_any = False
        while True:
            runnable = [
                pid
                for pid in self._select_runnable_partitions()
                if pid not in processed_this_sweep
            ]
            if not runnable:
                break
            swept_any = True
            processed_this_sweep.update(runnable)
            self._run_wave(runnable)
        # One kernel timeline per sweep: the waves above are
        # bookkeeping boundaries for staleness and activation
        # delivery, but the SMXs run continuously (no global barrier
        # in the asynchronous model) — charging each wave as its own
        # launch would serialize warp-quantization costs that the
        # real system pipelines away.
        self.machine.compute_round(self._sweep_work, self._sweep_atomics)
        self.last_max_delta = self._round_max_delta
        return swept_any

    # ------------------------------------------------------------------
    # GPU-loss recovery
    # ------------------------------------------------------------------
    def _recover_gpu_loss(
        self, gpu_id: Optional[int], cause: Exception
    ) -> None:
        """Degrade gracefully after losing a GPU mid-round.

        Fences the GPU off, rolls back to the checkpoint manager's last
        snapshot, and redistributes every dead GPU's partitions across
        the survivors (the restored placement predates *any* death since
        the last checkpoint, so the sweep must cover earlier casualties
        too, not just today's). The moved partitions' arrays are gone
        with the dead GPUs' memory — survivors reload them from the host
        (lazily, via ``ensure_resident``), accounted eagerly as
        ``retransferred_bytes``. Re-raises ``cause`` when recovery is
        off, no checkpoint exists, the loss budget is exhausted, or
        nobody survives.
        """
        recovery = self.recovery
        manager = self.checkpoints
        if manager is None or not manager.has_checkpoint or gpu_id is None:
            raise cause
        self._rollbacks += 1
        if self._rollbacks > recovery.max_gpu_loss_recoveries:
            raise cause
        # Idempotent: a compute-wave kill already marked the GPU dead; a
        # permanently failed link reaches here with the GPU still "up".
        self.machine.kill_gpu(gpu_id)
        self._rounds_done = manager.rollback(self._rounds_done)
        policy = getattr(recovery, "redistribution_policy", "edge-balance")
        moved: List[int] = []
        for dead in sorted(self.machine.dead_gpus):
            moved.extend(
                self.dispatcher.redistribute_dead_gpu(dead, policy=policy)
            )
        self.machine.stats.retransferred_bytes += sum(
            self.pre.storage.partition_bytes(pid) for pid in moved
        )
        injector = self.machine._structured_injector
        if injector is not None:
            injector.note_recovery(
                "gpu_loss",
                gpu=gpu_id,
                moved=len(moved),
                round=self._current_round,
            )

    def _run_wave(self, runnable: List[int]) -> None:
        """Process one set of runnable partitions concurrently.

        Gather reads go through a per-GPU staleness view: vertices owned
        by another GPU are read at their wave-start snapshot (their new
        states arrive with the next replica synchronization). Thanks to
        dependency-ordered dispatch, a runnable partition's upstream
        inputs are already *converged*, so for them snapshot == fresh —
        the ordering removes the staleness penalty the async baseline
        pays. Inside an iterating multi-GPU SCC the penalty remains,
        matching the paper's observations.
        """
        assignment = self.dispatcher.balance_assignments(runnable)
        self._record_round_start(runnable)
        views = self._wave_views()
        for gpu_id, pids in assignment.items():
            gpu_work: List[int] = []
            gpu_atomics: List[int] = []
            self._processing_gpu = gpu_id
            for pid in pids:
                self.dispatcher.ensure_resident(
                    pid, self.active_successor_partitions
                )
                items, item_atomics = self._process_partition(
                    pid, gpu_id, views[gpu_id]
                )
                gpu_work.extend(items)
                gpu_atomics.extend(item_atomics)
            self._processing_gpu = None
            self._sweep_work[gpu_id].extend(gpu_work)
            self._sweep_atomics[gpu_id].extend(gpu_atomics)
        self._prefetch_next(runnable)
        lost_pairs = self._flush_replica_sync()
        self._apply_deferred_activations(lost_pairs)

    def _wave_views(self) -> Dict[int, StalenessView]:
        """Per-GPU read views for one wave (fresh local, snapshot remote).

        Keyed by live GPU id — dead GPUs get no view (and can get no
        work)."""
        snapshot = self.states.copy_values()
        self._owner_gpu = owner_gpu = self._vertex_gpu()
        self._wave_counter += 1
        return {
            gpu: StalenessView(
                self.states.values,
                snapshot,
                owner_gpu == gpu,
                written_gpu=self._written_gpu,
                written_stamp=self._written_stamp,
                wave_stamp=self._wave_counter,
                gpu_id=gpu,
            )
            for gpu in self.machine.live_gpu_ids()
        }

    def _process_isolated_vertices(self) -> None:
        """Vertices on no path (no edges at all) get one apply up front."""
        for v in self.states.active_vertices():
            v = int(v)
            if self._owner_pid[v] >= 0:
                continue
            new, changed = self.program.update_vertex(
                self.graph, v, self.states.values
            )
            self.machine.stats.apply_calls += 1
            if changed:
                self.machine.stats.vertex_updates += 1
            self.states.values[v] = new
            self.deactivate(v)
            if changed:
                self.activate(self._dependents_of(v))

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _select_runnable_partitions(self) -> List[int]:
        """Frontier groups in layer order, plus advance execution."""
        partition_live = self.partition_active > 0
        if not self.cfg.use_path_execution:
            # DiGraph-t: no dependency ordering — every active partition.
            return np.flatnonzero(partition_live).tolist()
        topology = self.dispatcher.topology
        group_live = self.group_active > 0
        blockers = topology.blocker_counts(self.group_active)
        pids = topology.layer_order_partitions
        groups = topology.layer_order_groups
        runnable = pids[
            partition_live[pids] & group_live[groups] & (blockers[groups] == 0)
        ].tolist()
        # Advance execution: fill idle capacity with the active groups
        # that have the fewest active precursors (Section 3.1).
        capacity = len(self.machine.live_gpu_ids()) * max(
            self.cfg.advance_factor, 0
        )
        if len(runnable) < capacity:
            blocked = sorted(
                (
                    group
                    for group in self.dispatcher.groups_in_layer_order()
                    if group_live[group.group_id]
                    and blockers[group.group_id] > 0
                ),
                key=lambda group: blockers[group.group_id],
            )
            for group in blocked:
                if len(runnable) >= capacity:
                    break
                active_pids = [
                    pid for pid in group.partition_ids if partition_live[pid]
                ]
                runnable.extend(active_pids[: capacity - len(runnable)])
        return runnable

    def _prefetch_next(self, runnable: Sequence[int]) -> None:
        """Queue the successor partitions' transfers behind this round."""
        if not self.cfg.prefetch:
            return
        queued: Set[int] = set(runnable)
        for pid in runnable:
            for succ in self.dispatcher.partition_successors(pid):
                if succ not in queued and self.partition_is_active(succ):
                    queued.add(succ)
                    self.dispatcher.ensure_resident(
                        succ,
                        self.active_successor_partitions,
                        overlap=True,
                    )

    def _record_round_start(self, runnable: Sequence[int]) -> None:
        storage = self.pre.storage
        convergent = storage.num_partitions - int(
            np.count_nonzero(self.partition_active)
        )
        active_slots = 0
        total_slots = 0
        for pid in runnable:
            active_slots += int(self.partition_active[pid])
            total_slots += storage.partitions[pid].num_vertex_slots
        self.round_records.append(
            RoundRecord(
                round_index=len(self.round_records),
                partitions_processed=len(runnable),
                partitions_convergent=convergent,
                active_fraction_nonconvergent=(
                    active_slots / total_slots if total_slots else 0.0
                ),
                vertex_updates=self.machine.stats.vertex_updates,
            )
        )

    # ------------------------------------------------------------------
    # partition processing
    # ------------------------------------------------------------------
    def _process_partition(
        self, pid: int, gpu_id: int, view: StalenessView
    ) -> Tuple[List[int], List[int]]:
        """Process one partition; returns per-thread (edges, atomics)."""
        storage = self.pre.storage
        partition = storage.partitions[pid]
        path_set = self.pre.path_set
        stats = self.machine.stats
        stats.note_partition_processed(pid)

        changed_vertices: Set[int] = set()
        write_counts: Dict[int, int] = {}
        work_items: List[int] = []
        atomic_items: List[int] = []
        if self.cfg.use_path_execution:
            # The SMX's warp scheduler keeps re-running its active paths
            # until the partition settles (Section 3.2.3): one partition
            # pass iterates to *local quiescence* — cross-partition
            # effects wait for the next wave. Each iteration schedules
            # and loads only the paths holding an active vertex this GPU
            # owns ("only needs to access a few paths"), the mechanism
            # behind DiGraph's loaded-data utilization (Fig. 13).
            active = self.states.active
            owner_gpu = self._owner_gpu
            active_count = self.scheduler.active_count
            path_vertices = self._path_vertices
            # Iterating to local quiescence is only productive when the
            # pass computes *final* values: the partition must form its
            # own dispatch group (no mutual dependence with other
            # partitions) and every upstream group must have converged.
            # Inside a multi-partition SCC group, or with live upstream
            # inputs, iterating would churn against a stale snapshot, so
            # the pass runs once and waits for the next delivery.
            group_id = self._group_of_partition[pid]
            group = self.dispatcher.groups[group_id]
            inputs_final = len(group.partition_ids) == 1 and all(
                not self.partition_is_active(pred)
                for pred in self.dispatcher.partition_predecessors(pid)
            )
            max_iterations = _MAX_LOCAL_ITERATIONS if inputs_final else 1
            for _iteration in range(max_iterations):
                scheduled = []
                for p in partition.path_ids:
                    if active_count[p] == 0:
                        continue
                    for v in path_vertices[p]:
                        if active[v] and owner_gpu[v] == gpu_id:
                            scheduled.append(p)
                            break
                if not scheduled:
                    break
                self._stamp_counter += 1
                loaded_vertices = int(self._path_sizes[scheduled].sum())
                loaded_edges = loaded_vertices - len(scheduled)
                self.machine.load_global(
                    gpu_id,
                    nbytes=loaded_vertices * 16 + loaded_edges * 8,
                    vertices=loaded_vertices,
                )
                ordered = self.scheduler.order_paths(scheduled)
                # Balance by expected gather work (sum of gather degrees
                # along the path), the pull-model analog of the paper's
                # equal edges-per-thread rule.
                buckets = balance_paths_to_threads(
                    ordered,
                    self._path_work,
                    self.engine.spec.gpu.threads_per_smx,
                )
                work_items.extend(
                    self._walk_paths(
                        buckets,
                        gpu_id,
                        view,
                        changed_vertices,
                        write_counts,
                        quiesce=inputs_final,
                    )
                )
                atomic_items.extend([0] * len(buckets))
            # Contention is accounted once per partition pass (proxies
            # flush at pass end); the atomic pushes are issued by the
            # threads that produced the writes, so spread them evenly
            # over the pass's threads.
            contention = self.pre.replicas.contention(write_counts)
            stats.atomic_updates += contention.atomic_updates
            stats.proxy_absorbed += contention.proxy_absorbed
            stats.master_writes += contention.total_writes
            if work_items and contention.atomic_updates:
                share, remainder = divmod(
                    contention.atomic_updates, len(atomic_items)
                )
                for i in range(len(atomic_items)):
                    atomic_items[i] += share + (1 if i < remainder else 0)
        else:
            # DiGraph-t: traditional execution loads the whole partition
            # and runs one worklist pass over its vertices.
            self.machine.load_global(
                gpu_id,
                nbytes=partition.nbytes,
                vertices=partition.num_vertex_slots,
            )
            per_vertex_items = self._process_vertex_centric(
                partition, gpu_id, view, changed_vertices, write_counts
            )
            contention = self.pre.replicas.contention(write_counts)
            stats.atomic_updates += contention.atomic_updates
            stats.proxy_absorbed += contention.proxy_absorbed
            stats.master_writes += contention.total_writes
            # Traditional execution: one thread per processed vertex,
            # same as the async baseline.
            work_items.extend(per_vertex_items)
            atomic_items.extend([0] * len(per_vertex_items))
            if atomic_items and contention.atomic_updates:
                share, remainder = divmod(
                    contention.atomic_updates, len(atomic_items)
                )
                for i in range(len(atomic_items)):
                    atomic_items[i] += share + (1 if i < remainder else 0)

        self._synchronize_replicas(pid, gpu_id, changed_vertices)
        return work_items, atomic_items

    def _walk_paths(
        self,
        buckets: List[List[int]],
        gpu_id: int,
        view: StalenessView,
        changed_vertices: Set[int],
        write_counts: Dict[int, int],
        quiesce: bool = False,
    ) -> List[int]:
        """Sequential in-path walks with immediate state reuse.

        Each bucket is one thread's paths, walked in order; returns each
        thread's gather edges traversed (its work item). Each walk
        streams every loaded slot of its path sequentially (it must, to
        follow the chain) — each streamed record is a use of loaded
        data, the coalescing win Fig. 13 measures.

        A vertex's *active* flag may only be consumed by the GPU owning
        it: its pending activation encodes "new gather input has arrived
        here". A non-owner replica walking the same vertex on another GPU
        still refines it through the in-path chain (``upstream_changed``)
        but must not deactivate it — doing so would cancel a delivery the
        stale remote pass never saw.

        The program's ``gather``/``accumulate``/``apply``/
        ``has_converged`` run per edge and per vertex exactly as
        ``update_vertex`` runs them; everything around them (gather
        lists, degrees, owners, stamps, counters) is read from per-run
        tables and summed locally, then charged once.
        """
        program = self.program
        apply, has_converged = program.apply, program.has_converged
        identity = self._identity
        fold = view.fold
        values = self.states.values
        active = self.states.active
        owner_gpu = self._owner_gpu
        processed_stamp = self._processed_stamp
        sweep_stamp = self._sweep_stamp
        written_gpu = self._written_gpu
        written_stamp = self._written_stamp
        stamp = self._stamp_counter
        sweep = self._current_round
        wave = self._wave_counter
        path_vertices = self._path_vertices
        gather_degree = self._gather_degree
        gather_edges = self._gather_edges
        applies = updates = uses = demand = 0
        work_items: List[int] = []
        for bucket in buckets:
            edges_walked = 0
            for path_id in bucket:
                vertices = path_vertices[path_id]
                uses += len(vertices)
                upstream_changed = False
                for position, v in enumerate(vertices):
                    consumes_active = active[v] and owner_gpu[v] == gpu_id
                    if not (consumes_active or upstream_changed):
                        continue
                    if processed_stamp[v] == stamp:
                        # Already updated this local iteration (another
                        # path occurrence); its master state is fresh —
                        # reuse.
                        upstream_changed = False
                        continue
                    if not quiesce and sweep_stamp[v] == sweep:
                        # Outside quiescence mode a vertex updates at
                        # most once per sweep: recomputing it again
                        # before the next replica delivery would just
                        # churn on the same stale inputs. If it was
                        # re-activated meanwhile it stays active and is
                        # picked up next sweep.
                        upstream_changed = False
                        continue
                    processed_stamp[v] = stamp
                    sweep_stamp[v] = sweep
                    edges = gather_edges[v]
                    if edges is None:
                        edges = self._gather_edges_of(v)
                    old = float(values[v])
                    new = apply(v, old, fold(program, v, edges, identity))
                    changed = not has_converged(old, new)
                    degree = gather_degree[v]
                    edges_walked += degree
                    applies += 1
                    # Data-use accounting (Fig. 13): the vertex record
                    # plus each neighbor read. One gather input — the
                    # in-path predecessor — sits in the already-loaded
                    # path block (the coalescing win); the rest are
                    # demand fetches of master records.
                    fetched = degree - 1 if position > 0 else degree
                    if fetched > 0:
                        demand += fetched
                    uses += degree
                    values[v] = new
                    written_gpu[v] = gpu_id
                    written_stamp[v] = wave
                    if consumes_active:
                        self.deactivate(v)
                    if changed:
                        updates += 1
                        changed_vertices.add(v)
                        write_counts[v] = write_counts.get(v, 0) + 1
                        self._note_delta(old, float(new))
                        self.activate(self._dependents_of(v))
                    upstream_changed = changed
            work_items.append(edges_walked)
        stats = self.machine.stats
        stats.apply_calls += applies
        stats.vertex_updates += updates
        stats.edge_traversals += sum(work_items)
        if demand:
            self.machine.load_global(
                gpu_id, nbytes=8 * demand, vertices=demand
            )
        self.machine.note_vertex_uses(uses)
        return work_items

    def _process_vertex_centric(
        self,
        partition,
        gpu_id: int,
        view: StalenessView,
        changed_vertices: Set[int],
        write_counts: Dict[int, int],
    ) -> List[int]:
        """DiGraph-t: active vertices in id order, immediate visibility.

        Like the path walk, only the owner GPU consumes a vertex's active
        flag (see :meth:`_walk_paths`). Returns per-vertex work items
        (gather degrees)."""
        program, states = self.program, self.states
        stats = self.machine.stats
        vertices = sorted(
            set().union(*(self._path_vertices[p] for p in partition.path_ids))
        )
        if self.kernel is not None:
            return self._process_vertex_centric_batched(
                vertices, gpu_id, view, changed_vertices, write_counts
            )
        items: List[int] = []
        for v in vertices:
            if not (states.active[v] and self._owner_gpu[v] == gpu_id):
                continue
            old = float(states.values[v])
            acc = view.fold(
                program, v, self._gather_edges_of(v), self._identity
            )
            new = program.apply(v, old, acc)
            changed = not program.has_converged(old, new)
            degree = self._gather_degree[v]
            items.append(degree)
            stats.apply_calls += 1
            stats.edge_traversals += degree
            # Demand fetches: no path block to amortize gather reads.
            if degree > 0:
                self.machine.load_global(
                    gpu_id, nbytes=8 * degree, vertices=degree
                )
            self.machine.note_vertex_uses(1 + degree)
            states.values[v] = new
            self._written_gpu[v] = gpu_id
            self._written_stamp[v] = self._wave_counter
            self.deactivate(v)
            if changed:
                stats.vertex_updates += 1
                changed_vertices.add(v)
                write_counts[v] = write_counts.get(v, 0) + 1
                self._note_delta(old, float(new))
                self.activate(self._dependents_of(v))
        return items

    def _process_vertex_centric_batched(
        self,
        vertices: List[int],
        gpu_id: int,
        view: StalenessView,
        changed_vertices: Set[int],
        write_counts: Dict[int, int],
    ) -> List[int]:
        """Batched DiGraph-t pass: one kernel call per partition pass.

        Gathers read the materialized pass-start view — a Jacobi step
        over the batch where the scalar loop is Gauss-Seidel in id order
        — but per-update accounting (``apply_calls``, traversals,
        ``load_global`` bytes, uses) is charged exactly as the scalar
        loop charges it, and activation-carries-data semantics are
        preserved: processed vertices deactivate, changed vertices
        activate their dependents (remote owners deferred to the wave
        boundary by :meth:`activate`).
        """
        states = self.states
        stats = self.machine.stats
        vertices = np.asarray(vertices, dtype=np.int64)
        batch = vertices[
            states.active[vertices] & (self._owner_gpu[vertices] == gpu_id)
        ]
        if batch.size == 0:
            return []
        effective = view.as_array()
        old = states.values[batch].copy()
        new, changed = self.kernel.batch_update(batch, effective, old)
        degrees = self.kernel.gather_degrees(batch)
        degree_sum = int(degrees.sum())
        stats.apply_calls += int(batch.size)
        stats.edge_traversals += degree_sum
        # Demand fetches: no path block to amortize gather reads.
        if degree_sum > 0:
            self.machine.load_global(
                gpu_id, nbytes=8 * degree_sum, vertices=degree_sum
            )
        self.machine.note_vertex_uses(int(batch.size) + degree_sum)
        states.values[batch] = new
        self._written_gpu[batch] = gpu_id
        self._written_stamp[batch] = self._wave_counter
        for v in batch:
            self.deactivate(int(v))
        changed_batch = batch[changed]
        if changed_batch.size:
            stats.vertex_updates += int(changed_batch.size)
            old_changed = old[changed]
            new_changed = np.asarray(new)[changed]
            finite = np.isfinite(old_changed) & np.isfinite(new_changed)
            if not bool(finite.all()):
                self._round_max_delta = float("inf")
            else:
                self._round_max_delta = max(
                    self._round_max_delta,
                    float(np.abs(new_changed - old_changed).max()),
                )
            for v in changed_batch:
                changed_vertices.add(int(v))
                write_counts[int(v)] = write_counts.get(int(v), 0) + 1
            targets, _ = self.kernel.batch_dependents(changed_batch)
            self.activate([int(u) for u in targets])
        return degrees.tolist()

    def _synchronize_replicas(
        self, pid: int, gpu_id: int, changed_vertices: Set[int]
    ) -> None:
        """Batched replica-update messages to remote mirror partitions.

        Messages are grouped per destination partition (Section 3.2.2's
        arrangement "according to the IDs of the destination partitions")
        and accumulated per GPU pair; the NCCL ring moves each pair's
        accumulated batch once per round (flushed by the main loop).
        """
        if not changed_vertices:
            return
        outcome = self.pre.replicas.sync_after_partition(
            pid, changed_vertices
        )
        if outcome.messages == 0:
            return
        payload = (
            self.pre.replicas.payload_by_destination(pid, changed_vertices)
            if self._track_payloads
            else None
        )
        per_batch = max(1, outcome.messages // max(outcome.batches, 1))
        for dest in outcome.destinations:
            dest_gpu = self.dispatcher.current_gpu[dest]
            if dest_gpu == gpu_id:
                continue  # same-GPU sync stays in global memory
            key = (gpu_id, dest_gpu)
            nbytes = per_batch * BYTES_PER_MESSAGE
            self._pending_sync_bytes[key] = (
                self._pending_sync_bytes.get(key, 0) + nbytes
            )
            self.sync_sent_bytes[key] = (
                self.sync_sent_bytes.get(key, 0) + nbytes
            )
            if payload is not None:
                self._pending_sync_payload.setdefault(key, []).extend(
                    payload.get(dest, ())
                )

    def _flush_replica_sync(self) -> Set[Tuple[int, int]]:
        """Send each GPU pair's accumulated replica batch for this round.

        Batches go through :meth:`Machine.deliver_replica_batch`, so
        fault injection can drop or corrupt them. Returns the pairs
        whose batch was lost (the wave boundary must discard their
        deferred activations too); a corrupted batch that slipped
        through poisons the payload vertices' master states — garbage
        the fixed-point oracle is expected to flag.
        """
        lost_pairs: Set[Tuple[int, int]] = set()
        for (src_gpu, dst_gpu), nbytes in sorted(
            self._pending_sync_bytes.items()
        ):
            outcome = self.machine.deliver_replica_batch(
                src_gpu, dst_gpu, nbytes
            )
            if outcome.status == "dropped":
                lost_pairs.add((src_gpu, dst_gpu))
            elif outcome.status == "corrupted":
                for v in self._pending_sync_payload.get(
                    (src_gpu, dst_gpu), ()
                ):
                    self.states.values[v] = outcome.poison
        self._pending_sync_bytes.clear()
        self._pending_sync_payload.clear()
        return lost_pairs


class _EngineCheckpointClient:
    """Checkpoint-protocol adapter for a DiGraph run.

    Exposes the logical state a rollback must restore (see
    ``repro.faults.checkpoint`` for the duck-typed protocol): vertex
    values and activity, the staleness stamps, the partition/group
    activity counters, pending cross-GPU messages, BOTH
    replica-conservation ledgers (send side on the run, receive side in
    ``MachineStats`` — restoring only one would leave a phantom mismatch
    after replay), and partition placement. Time and work counters are
    deliberately *not* covered: the aborted attempt really happened; its
    cost is surfaced via ``recovery_time_s``.
    """

    def __init__(self, run: "_Run") -> None:
        self._run = run

    def vertex_arrays(self) -> Dict[str, np.ndarray]:
        run = self._run
        return {
            "values": run.states.values,
            "active": run.states.active,
            "processed_stamp": run._processed_stamp,
            "sweep_stamp": run._sweep_stamp,
            "written_gpu": run._written_gpu,
            "written_stamp": run._written_stamp,
        }

    def vertex_gpu(self) -> np.ndarray:
        return self._run._vertex_gpu()

    def capture_scalars(self) -> Dict[str, object]:
        run = self._run
        return {
            "partition_active": run.partition_active.copy(),
            "group_active": run.group_active.copy(),
            "was_active": run._partition_was_active.copy(),
            "wave_counter": run._wave_counter,
            "stamp_counter": run._stamp_counter,
            "current_round": run._current_round,
            "deferred": list(run._deferred_activations),
            "pending_sync": dict(run._pending_sync_bytes),
            "pending_payload": {
                pair: list(vs)
                for pair, vs in run._pending_sync_payload.items()
            },
            "sent_ledger": dict(run.sync_sent_bytes),
            "recv_ledger": dict(run.machine.stats.replica_pair_bytes),
            "current_gpu": dict(run.dispatcher.current_gpu),
            "num_round_records": len(run.round_records),
        }

    def restore_scalars(self, scalars: Dict[str, object]) -> None:
        run = self._run
        run.partition_active[:] = scalars["partition_active"]
        run.group_active[:] = scalars["group_active"]
        run._partition_was_active[:] = scalars["was_active"]
        run._wave_counter = scalars["wave_counter"]
        run._stamp_counter = scalars["stamp_counter"]
        run._current_round = scalars["current_round"]
        run._deferred_activations = list(scalars["deferred"])
        run._pending_sync_bytes = dict(scalars["pending_sync"])
        run._pending_sync_payload = {
            pair: list(vs)
            for pair, vs in scalars["pending_payload"].items()
        }
        run.sync_sent_bytes = dict(scalars["sent_ledger"])
        run.machine.stats.replica_pair_bytes = dict(
            scalars["recv_ledger"]
        )
        run.dispatcher.current_gpu = dict(scalars["current_gpu"])
        del run.round_records[scalars["num_round_records"]:]
        run.scheduler.reset_counts(run.states.active)
