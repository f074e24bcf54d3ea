"""Soft-priority path scheduling on each SMX (Section 3.2.3).

Each path gets ``Pri(p) = α · D̄(p) · N(p) − L(p)`` where

- ``D̄(p)`` — average vertex degree of the path (hot paths score high),
- ``N(p)`` — current number of active vertices on the path (maintained
  incrementally at run time),
- ``L(p)`` — the path's DAG layer number (lower layers first),
- ``α = 1 / (D̄_max · N_max)`` — a preprocessing-time scaling factor that
  keeps the degree-activity term below one, so the layer term dominates:
  the path with the smallest ``L(p)`` always wins, and within a layer the
  hottest/most-active paths win.

When an SMX becomes idle the highest-priority paths run first; cold or
inactive paths are deferred, reducing redundant updates (Fig. 7's
DiGraph-w ablation removes exactly this policy).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import SchedulingError
from repro.core.dependency import DependencyDAG
from repro.core.paths import PathSet


@dataclass(frozen=True)
class PathStatics:
    """Run-invariant inputs of Pri(p) and N(p), as compact arrays.

    Depends only on the path layout and its DAG, so one instance serves
    every run over the same preprocessed graph (see
    :class:`repro.core.plan.RunPlan`). Every field is a numpy array:
    sharing it across runs retains no per-vertex Python objects.
    """

    #: Path ``p``'s vertices are ``vertices[offsets[p]:offsets[p + 1]]``.
    offsets: np.ndarray
    vertices: np.ndarray
    #: |p|: vertices per path.
    num_vertices: np.ndarray
    #: D̄(p): mean total degree along the path.
    avg_degree: np.ndarray
    #: L(p): DAG layer of the path's SCC-vertex (as a float, like Pri).
    layer: np.ndarray
    #: Paths holding vertex ``v`` (each once, ascending) are
    #: ``vertex_paths[vertex_offsets[v]:vertex_offsets[v + 1]]``.
    vertex_offsets: np.ndarray
    vertex_paths: np.ndarray

    @classmethod
    def build(cls, path_set: PathSet, dag: DependencyDAG) -> "PathStatics":
        paths = path_set.paths
        num_paths = len(paths)
        num_vertices = np.fromiter(
            (len(p.vertices) for p in paths), dtype=np.int64, count=num_paths
        )
        offsets = np.zeros(num_paths + 1, dtype=np.int64)
        np.cumsum(num_vertices, out=offsets[1:])
        vertices = np.fromiter(
            chain.from_iterable(p.vertices for p in paths),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
        graph = path_set.graph
        if num_paths:
            # Exact integer sums divided once: bit-identical to np.mean
            # over each path's degrees (an exact float64 sum / count).
            degree_sums = np.add.reduceat(
                graph.degree()[vertices], offsets[:-1]
            )
            avg_degree = degree_sums / num_vertices
        else:
            avg_degree = np.zeros(0, dtype=np.float64)
        layer = dag.layer_of_scc[dag.scc_of_path].astype(np.float64)

        # vertex -> paths, deduplicated per path, ascending path id.
        path_of_slot = np.repeat(
            np.arange(num_paths, dtype=np.int64), num_vertices
        )
        stride = max(num_paths, 1)
        pairs = np.sort(vertices * stride + path_of_slot)
        distinct = np.ones(pairs.size, dtype=bool)
        distinct[1:] = pairs[1:] != pairs[:-1]
        pairs = pairs[distinct]
        vertex_offsets = np.zeros(graph.num_vertices + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(pairs // stride, minlength=graph.num_vertices),
            out=vertex_offsets[1:],
        )
        statics = cls(
            offsets=offsets,
            vertices=vertices,
            num_vertices=num_vertices,
            avg_degree=avg_degree,
            layer=layer,
            vertex_offsets=vertex_offsets,
            vertex_paths=pairs % stride,
        )
        for array in vars(statics).values():
            array.setflags(write=False)
        return statics

    @property
    def num_paths(self) -> int:
        return self.num_vertices.size

    @property
    def alpha(self) -> float:
        """The paper's preprocessing-time scaling factor."""
        d_max = float(self.avg_degree.max()) if self.num_paths else 1.0
        n_max = float(self.num_vertices.max()) if self.num_paths else 1.0
        return 1.0 / max(d_max * n_max, 1.0)

    def path_sums(self, per_vertex: np.ndarray) -> np.ndarray:
        """Per-path sum of a per-vertex integer array over every slot."""
        if not self.num_paths:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(
            np.asarray(per_vertex, dtype=np.int64)[self.vertices],
            self.offsets[:-1],
        )


class PathScheduler:
    """Maintains per-path priorities and active-vertex counts."""

    def __init__(
        self,
        path_set: PathSet,
        dag: DependencyDAG,
        enabled: bool = True,
        statics: Optional[PathStatics] = None,
    ) -> None:
        self.enabled = enabled
        statics = statics or PathStatics.build(path_set, dag)
        self._statics = statics
        self._num_paths = statics.num_paths
        self._avg_degree = statics.avg_degree
        self._layer = statics.layer
        #: The paper's preprocessing-time scaling factor.
        self.alpha = statics.alpha

        #: N(p): active vertices per path, updated incrementally.
        self.active_count = np.zeros(self._num_paths, dtype=np.int64)
        # vertex -> path ids containing it (for incremental N updates),
        # as per-run Python lists: the scalar updates index them per
        # activation.
        ids = statics.vertex_paths.tolist()
        bounds = statics.vertex_offsets.tolist()
        self._paths_of_vertex: List[List[int]] = [
            ids[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)
        ]

    # ------------------------------------------------------------------
    # N(p) maintenance
    # ------------------------------------------------------------------
    def reset_counts(self, active_mask: np.ndarray) -> None:
        """Rebuild N(p) from a vertex active mask (run start)."""
        statics = self._statics
        vertex_of_entry = np.repeat(
            np.arange(statics.vertex_offsets.size - 1),
            np.diff(statics.vertex_offsets),
        )
        self.active_count[:] = np.bincount(
            statics.vertex_paths[np.asarray(active_mask)[vertex_of_entry]],
            minlength=self._num_paths,
        )

    def vertex_activated(self, v: int) -> None:
        """A vertex became active: bump N(p) for its paths."""
        counts = self.active_count
        for path_id in self._paths_of_vertex[v]:
            counts[path_id] += 1

    def vertex_deactivated(self, v: int) -> None:
        """A vertex converged: decrement N(p) for its paths."""
        counts = self.active_count
        for path_id in self._paths_of_vertex[v]:
            if counts[path_id] > 0:
                counts[path_id] -= 1

    def paths_of_vertex(self, v: int) -> Sequence[int]:
        return self._paths_of_vertex[v]

    # ------------------------------------------------------------------
    # Pri(p)
    # ------------------------------------------------------------------
    def priority(self, path_id: int) -> float:
        """``Pri(p) = α · D̄(p) · N(p) − L(p)``."""
        if not 0 <= path_id < self._num_paths:
            raise SchedulingError(f"no path {path_id}")
        return float(
            self.alpha
            * self._avg_degree[path_id]
            * self.active_count[path_id]
            - self._layer[path_id]
        )

    def order_paths(self, path_ids: Iterable[int]) -> List[int]:
        """Processing order for an SMX's paths.

        With scheduling enabled: descending ``Pri(p)`` (ties by id for
        determinism). Disabled (the DiGraph-w ablation): the warp
        scheduler's default round-robin order, i.e. the given id order.
        """
        ids = list(path_ids)
        if not self.enabled or not ids:
            return ids
        arr = np.asarray(ids, dtype=np.int64)
        bad = arr[(arr < 0) | (arr >= self._num_paths)]
        if bad.size:
            raise SchedulingError(f"no path {int(bad[0])}")
        # The same float expression as priority(), one path per lane.
        priority = (
            self.alpha * self._avg_degree[arr] * self.active_count[arr]
            - self._layer[arr]
        )
        return arr[np.lexsort((arr, -priority))].tolist()


def balance_paths_to_threads(
    path_ids: Sequence[int],
    path_edges: Union[Mapping[int, int], Sequence[int]],
    num_threads: int,
) -> List[List[int]]:
    """Assign paths to threads so per-thread edge counts are almost equal.

    Section 3.2.2: lock-step warps under-utilize an SMX when thread loads
    differ, so paths are packed greedily — longest path to the currently
    lightest thread (LPT); several short paths share a thread that
    balances one long path. The *given order* of equal-length paths is
    preserved (priority order from the scheduler). ``path_edges`` is
    indexed by path id (a mapping or a per-path sequence).

    The lightest thread is the lowest-numbered one among the least
    loaded: a ``(load, thread)`` heap of the threads holding work, plus
    the lowest never-used thread (load 0), which wins unless some used
    thread's load is <= 0.
    """
    if num_threads < 1:
        raise SchedulingError("num_threads must be >= 1")
    weights = [path_edges[p] for p in path_ids]
    # Stable sort: keeps scheduler priority order among equal lengths.
    ordered = sorted(range(len(weights)), key=lambda i: -weights[i])
    buckets: List[List[int]] = []
    heap: List[tuple] = []
    for i in ordered:
        weight = weights[i]
        if len(buckets) < num_threads and (not heap or heap[0][0] > 0):
            heapq.heappush(heap, (weight, len(buckets)))
            buckets.append([path_ids[i]])
        else:
            load, thread = heap[0]
            buckets[thread].append(path_ids[i])
            heapq.heapreplace(heap, (load + weight, thread))
    return buckets
