"""The run plan shared by every run over one ``Preprocessed``.

The plan is built once, lazily, and holds only immutable data; every
run that reuses it must behave exactly like a run on a freshly
preprocessed graph — including after a faulted run whose GPU-loss
redistribution rewrote partition placement.
"""

import json

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.engine import DiGraphEngine
from repro.faults import ComputeFault, FaultInjector, FaultPlan, RecoveryPolicy


def fingerprint(result):
    """Everything a run reports: states, every counter, the round log."""
    return (
        result.states.tobytes(),
        json.dumps(result.stats.as_dict(), sort_keys=True),
        result.rounds,
        [vars(record) for record in result.round_records],
        result.extras,
    )


def gpu_kill():
    return dict(
        fault_injector=FaultInjector(
            FaultPlan(compute_faults={0: ComputeFault(kill_gpu=1)})
        ),
        recovery=RecoveryPolicy(),
    )


class TestLazyBuild:
    def test_built_on_first_run_and_reused(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        assert pre._plan is None  # preprocessing does not pay for it
        engine.run(medium_graph, make_program("pagerank", medium_graph), pre)
        plan = pre.run_plan()
        engine.run(medium_graph, make_program("sssp", medium_graph), pre)
        assert pre.run_plan() is plan

    def test_arrays_are_read_only(self, medium_graph, test_machine):
        pre = DiGraphEngine(test_machine).preprocess(medium_graph)
        plan = pre.run_plan()
        arrays = [plan.owner_partition]
        arrays += list(vars(plan.statics).values())
        arrays += list(vars(plan.topology).values())
        for array in arrays:
            assert isinstance(array, np.ndarray)
            with pytest.raises(ValueError):
                array[...] = 0

    def test_owners_agree_with_replica_table(
        self, medium_graph, test_machine
    ):
        pre = DiGraphEngine(test_machine).preprocess(medium_graph)
        owners = pre.run_plan().owner_partition
        for v in range(medium_graph.num_vertices):
            owner = pre.replicas.owner_partition(v)
            assert owners[v] == (-1 if owner is None else owner)


class TestAgainstLoopReferences:
    """Each vectorized plan array equals its per-element loop form."""

    @pytest.fixture
    def pre(self, medium_graph, test_machine):
        return DiGraphEngine(test_machine).preprocess(medium_graph)

    def test_scheduler_statics(self, pre):
        statics = pre.run_plan().statics
        graph = pre.path_set.graph
        for path in pre.path_set:
            p = path.path_id
            # Bit-identical to the per-path np.mean.
            assert statics.avg_degree[p] == path.average_degree(graph)
            assert statics.layer[p] == pre.dag.layer_of_path(p)
            assert statics.num_vertices[p] == path.num_vertices
        paths_of_vertex = pre.path_set.paths_of_vertex()
        offsets = statics.vertex_offsets
        for v in range(graph.num_vertices):
            listed = statics.vertex_paths[offsets[v]:offsets[v + 1]]
            assert listed.tolist() == paths_of_vertex.get(v, [])

    def test_layer_aware_owners(self, pre):
        plan = pre.run_plan()
        layer_of = plan.topology.group_layer[
            plan.topology.group_of_partition
        ]
        for v in range(pre.path_set.graph.num_vertices):
            writers = pre.replicas.writer_partitions(v)
            mirrors = pre.replicas.mirror_partitions(v)
            if writers:
                expected = max(
                    writers,
                    key=lambda pid: (layer_of[pid], writers[pid], -pid),
                )
            else:
                expected = mirrors[0] if mirrors else -1
            assert plan.owner_partition[v] == expected

    def test_partition_dependency_edges(self, pre):
        storage, dep = pre.storage, pre.dag.dependency_graph
        expected = {
            (storage.partition_of_path(pi), storage.partition_of_path(pj))
            for pi in range(dep.num_vertices)
            for pj in dep.successors(pi).tolist()
        }
        expected = sorted((a, b) for a, b in expected if a != b)
        deps = pre.run_plan().topology.partition_deps
        assert [tuple(edge) for edge in deps.tolist()] == expected


def test_reused_preprocessed_matches_fresh_preprocessing(
    medium_graph, test_machine
):
    """Clean runs on a shared Preprocessed — before and after a GPU-loss
    run that redistributes placement — equal runs on fresh ones."""
    engine = DiGraphEngine(test_machine)
    shared = engine.preprocess(medium_graph)

    def run(algorithm, pre, **faults):
        program = make_program(algorithm, medium_graph)
        return fingerprint(
            engine.run(medium_graph, program, preprocessed=pre, **faults)
        )

    def fresh(algorithm, **faults):
        return run(algorithm, engine.preprocess(medium_graph), **faults)

    assert run("pagerank", shared) == fresh("pagerank")
    faulted = engine.run(
        medium_graph,
        make_program("pagerank", medium_graph),
        preprocessed=shared,
        **gpu_kill(),
    )
    assert faulted.stats.gpu_failures == 1
    assert faulted.stats.rounds_rolled_back >= 1
    assert fingerprint(faulted) == fresh("pagerank", **gpu_kill())
    assert run("sssp", shared) == fresh("sssp")
    assert run("pagerank", shared) == fresh("pagerank")
