"""Vertex state container shared by all engines.

:class:`VertexStates` couples the per-vertex state array (the paper's
``V_val`` master array) with active flags, and centralizes the
commit-an-update bookkeeping so every engine counts ``vertex_updates`` and
activations identically.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graph.digraph import DiGraphCSR
from repro.model.gas import VertexProgram


class VertexStates:
    """State values + active flags for one algorithm run.

    ``initial_values`` / ``initial_active`` warm-start the run from a
    caller-provided state (delta recompute over an evolving graph)
    instead of the program's own initial state. The program's
    ``initial_states`` still runs first either way — programs cache
    graph-derived arrays (out-degrees, teleport vectors, weight
    normalizers) there, and a warm start must prime those caches on the
    *current* graph before its values are overridden.
    """

    def __init__(
        self,
        graph: DiGraphCSR,
        program: VertexProgram,
        initial_values: Optional[np.ndarray] = None,
        initial_active: Optional[np.ndarray] = None,
    ) -> None:
        self.graph = graph
        self.program = program
        self.values = np.asarray(
            program.initial_states(graph), dtype=np.float64
        )
        if self.values.shape != (graph.num_vertices,):
            raise SimulationError(
                "initial_states must return one float per vertex"
            )
        self.active = np.asarray(program.initial_active(graph), dtype=bool)
        if self.active.shape != (graph.num_vertices,):
            raise SimulationError(
                "initial_active must return one flag per vertex"
            )
        if initial_values is not None:
            override = np.asarray(initial_values, dtype=np.float64)
            if override.shape != (graph.num_vertices,):
                raise SimulationError(
                    "initial_values must provide one float per vertex"
                )
            self.values = override.copy()
        if initial_active is not None:
            override = np.asarray(initial_active, dtype=bool)
            if override.shape != (graph.num_vertices,):
                raise SimulationError(
                    "initial_active must provide one flag per vertex"
                )
            self.active = override.copy()

    @property
    def num_active(self) -> int:
        """Count of currently active vertices."""
        return int(self.active.sum())

    def any_active(self) -> bool:
        return bool(self.active.any())

    def active_vertices(self) -> np.ndarray:
        """Ids of active vertices, ascending."""
        return np.flatnonzero(self.active)

    def deactivate(self, v: int) -> None:
        self.active[v] = False

    def activate(self, vertices: Iterable[int]) -> List[int]:
        """Mark vertices active; returns those newly activated."""
        newly = []
        for v in vertices:
            if not self.active[v]:
                self.active[v] = True
                newly.append(v)
        return newly

    def commit(self, v: int, new_state: float, changed: bool) -> List[int]:
        """Write a computed update and propagate activation.

        Returns the list of newly-activated dependents (empty when the
        update converged). The caller accounts the update in the machine
        stats — state bookkeeping and cost accounting stay separate.
        """
        self.values[v] = new_state
        if not changed:
            return []
        return self.activate(self.program.dependents(self.graph, v))

    def copy_values(self) -> np.ndarray:
        """Snapshot of the state array (used by the Jacobi BSP engine)."""
        return self.values.copy()


class StalenessView:
    """Read view modeling multi-GPU staleness within one round.

    A GPU sees its *own* vertices' freshest states (global-memory reads on
    the same device) but only the **round-start snapshot** of vertices
    resident on other GPUs — their new states arrive with the next
    replica synchronization. This is the mechanism behind the paper's
    Fig. 1/2 observation that asynchronous engines still propagate one
    hop per round across partitions, and why it "is more serious on the
    platform with more GPUs".

    The view is indexable like a state array, so
    :meth:`VertexProgram.update_vertex` works on it unchanged.
    """

    def __init__(
        self,
        fresh: np.ndarray,
        snapshot: np.ndarray,
        local_mask: np.ndarray,
        written_gpu: Optional[np.ndarray] = None,
        written_stamp: Optional[np.ndarray] = None,
        wave_stamp: int = 0,
        gpu_id: int = -1,
    ) -> None:
        if fresh.shape != snapshot.shape or fresh.shape != local_mask.shape:
            raise SimulationError(
                "fresh, snapshot, and local_mask must be parallel arrays"
            )
        self._fresh = fresh
        self._snapshot = snapshot
        self._local = local_mask
        # A value produced on this GPU during this wave is fresh here even
        # if the vertex's master lives elsewhere (the mirror copy is in
        # this GPU's memory).
        self._written_gpu = written_gpu
        self._written_stamp = written_stamp
        self._wave_stamp = wave_stamp
        self._gpu_id = gpu_id

    def __getitem__(self, v: int) -> float:
        if self._local[v]:
            return float(self._fresh[v])
        if (
            self._written_gpu is not None
            and self._written_stamp[v] == self._wave_stamp
            and self._written_gpu[v] == self._gpu_id
        ):
            return float(self._fresh[v])
        return float(self._snapshot[v])

    def __len__(self) -> int:
        return len(self._fresh)

    def fold(
        self,
        program: VertexProgram,
        v: int,
        edges: Iterable[Tuple[int, float]],
        identity: float,
    ) -> float:
        """Gather ``v``'s ``edges`` through this view and fold them.

        Equal to ``program.full_gather(graph, v, self)`` when ``edges``
        are ``v``'s gather edges: the same ``gather``/``accumulate`` calls
        in the same order on the same values, with :meth:`__getitem__`'s
        read rule inlined as array tests (engines call this once per
        vertex update instead of once per edge).
        """
        gather, accumulate = program.gather, program.accumulate
        fresh, snapshot, local = self._fresh, self._snapshot, self._local
        acc = identity
        if self._written_gpu is None:
            for src, weight in edges:
                value = fresh[src] if local[src] else snapshot[src]
                acc = accumulate(acc, gather(float(value), weight, src, v))
            return acc
        written_gpu, written_stamp = self._written_gpu, self._written_stamp
        wave, gpu = self._wave_stamp, self._gpu_id
        for src, weight in edges:
            if local[src] or (
                written_stamp[src] == wave and written_gpu[src] == gpu
            ):
                value = fresh[src]
            else:
                value = snapshot[src]
            acc = accumulate(acc, gather(float(value), weight, src, v))
        return acc

    def as_array(self) -> np.ndarray:
        """Materialize the view into one plain array.

        Vectorized form of :meth:`__getitem__` over every vertex — the
        batch kernels gather from the result with fancy indexing instead
        of calling ``view[v]`` per edge. Returns a fresh array; later
        writes to the underlying states are not reflected.
        """
        effective = np.where(self._local, self._fresh, self._snapshot)
        if self._written_gpu is not None:
            written_here = (self._written_stamp == self._wave_stamp) & (
                self._written_gpu == self._gpu_id
            )
            effective[written_here] = self._fresh[written_here]
        return effective
