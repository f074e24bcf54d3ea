"""The run plan: what every DiGraph run over one preprocessed graph shares.

One :class:`~repro.core.engine.Preprocessed` is usually run many times:
the paper's four algorithms on one graph, a server's query stream, a
warm restart. Everything a run derives from the layout alone is built
once, on the first run, and reused by every later one:

- the partition-level dispatch topology (dependency edges, groups,
  predecessor groups, layer order) — :class:`DispatchTopology`;
- the scheduler's Pri(p) inputs D̄(p), L(p), |p| and the
  paths-of-vertex CSR — :class:`PathStatics`;
- the layer-aware owner partition of every vertex.

The plan holds only immutable data (read-only numpy arrays and frozen
tuples). Everything a run mutates stays on the run: GPU placement
(``home_gpu``/``current_gpu``, which GPU-loss redistribution rewrites),
residency, steal counts, activity counters, and the per-run gather,
degree, and dependents tables built from the run's vertex program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.dependency import DependencyDAG
from repro.core.dispatch import DispatchTopology
from repro.core.paths import PathSet
from repro.core.replicas import ReplicaTable
from repro.core.scheduling import PathStatics
from repro.core.storage import PathStorage


@dataclass(frozen=True)
class RunPlan:
    """Loop-invariant execution structure of one preprocessed graph."""

    topology: DispatchTopology
    statics: PathStatics
    #: Partition tracking each vertex's activity, after the layer-aware
    #: override (-1: the vertex lies on no path).
    owner_partition: np.ndarray

    @classmethod
    def build(
        cls,
        path_set: PathSet,
        dag: DependencyDAG,
        storage: PathStorage,
        replicas: ReplicaTable,
    ) -> "RunPlan":
        topology = DispatchTopology.build(storage, dag)
        statics = PathStatics.build(path_set, dag)
        owner, overrides = _layer_aware_owners(
            path_set, storage, topology, statics
        )
        # Keep the replica table's owner lookup in step with the plan.
        replicas.set_owner_overrides(overrides)
        owner.setflags(write=False)
        return cls(topology=topology, statics=statics, owner_partition=owner)


def _layer_aware_owners(
    path_set: PathSet,
    storage: PathStorage,
    topology: DispatchTopology,
    statics: PathStatics,
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Pin each vertex's activity to its downstream-most writer.

    Among the partitions where a vertex receives in-path updates, the
    one whose dispatch group has the highest layer computes the vertex's
    final value (ties: more writer occurrences, then the lower partition
    id). Tracking activity anywhere earlier would keep upstream groups
    flagged active while a downstream SCC iterates, permanently blocking
    the dependency frontier. A vertex that is only ever a path head
    keeps the replica table's default: its lowest mirror partition.
    Returns the owner array and the per-writer-vertex overrides.
    """
    num_vertices = path_set.graph.num_vertices
    stride = max(storage.num_partitions, 1)
    path_of_slot = np.repeat(
        np.arange(statics.num_paths, dtype=np.int64), statics.num_vertices
    )
    partition_of_slot = np.asarray(
        [storage.partition_of_path(p) for p in range(statics.num_paths)],
        dtype=np.int64,
    )[path_of_slot]
    vertices = statics.vertices

    owner = np.full(num_vertices, -1, dtype=np.int64)
    held = np.sort(vertices * stride + partition_of_slot)
    held_vertex = held // stride
    first = np.ones(held.size, dtype=bool)
    first[1:] = held_vertex[1:] != held_vertex[:-1]
    owner[held_vertex[first]] = held[first] % stride

    # Writer occurrences: every non-head slot, weighted per partition.
    writer = np.ones(vertices.size, dtype=bool)
    writer[statics.offsets[:-1]] = False
    keys, weight = np.unique(
        vertices[writer] * stride + partition_of_slot[writer],
        return_counts=True,
    )
    writer_vertex = keys // stride
    writer_pid = keys % stride
    layer = topology.group_layer[topology.group_of_partition[writer_pid]]
    # Ascending (vertex, layer, weight, -pid): each vertex's last entry
    # is its best writer.
    order = np.lexsort((-writer_pid, weight, layer, writer_vertex))
    writer_vertex = writer_vertex[order]
    writer_pid = writer_pid[order]
    last = np.ones(writer_vertex.size, dtype=bool)
    last[:-1] = writer_vertex[1:] != writer_vertex[:-1]
    best_vertex = writer_vertex[last]
    best_pid = writer_pid[last]
    owner[best_vertex] = best_pid
    return owner, dict(zip(best_vertex.tolist(), best_pid.tolist()))
