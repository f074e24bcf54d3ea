"""Unit tests for vertex state bookkeeping and the staleness view."""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.errors import SimulationError
from repro.graph.generators import directed_path
from repro.model.state import StalenessView, VertexStates


class TestVertexStates:
    def test_initial_all_active_pagerank(self):
        states = VertexStates(directed_path(4), PageRank())
        assert states.num_active == 4

    def test_initial_sparse_sssp(self):
        states = VertexStates(directed_path(4), SSSP(source=0))
        assert 1 <= states.num_active <= 2

    def test_activate_reports_new_only(self):
        states = VertexStates(directed_path(4), SSSP(source=0))
        newly = states.activate([0, 3])
        assert newly == [3]

    def test_deactivate(self):
        states = VertexStates(directed_path(3), PageRank())
        states.deactivate(1)
        assert not states.active[1]

    def test_commit_changed_activates_dependents(self):
        g = directed_path(3)
        states = VertexStates(g, PageRank())
        states.active[:] = False
        newly = states.commit(0, 0.5, changed=True)
        assert newly == [1]

    def test_commit_unchanged_activates_nothing(self):
        g = directed_path(3)
        states = VertexStates(g, PageRank())
        states.active[:] = False
        assert states.commit(0, 0.5, changed=False) == []

    def test_copy_values_independent(self):
        states = VertexStates(directed_path(3), PageRank())
        snap = states.copy_values()
        states.values[0] = 99.0
        assert snap[0] != 99.0


class TestStalenessView:
    def test_local_reads_fresh(self):
        fresh = np.array([1.0, 2.0])
        snap = np.array([0.0, 0.0])
        view = StalenessView(fresh, snap, np.array([True, False]))
        assert view[0] == 1.0

    def test_remote_reads_snapshot(self):
        fresh = np.array([1.0, 2.0])
        snap = np.array([0.0, 0.5])
        view = StalenessView(fresh, snap, np.array([True, False]))
        assert view[1] == 0.5

    def test_written_this_wave_is_fresh_on_writer(self):
        fresh = np.array([1.0, 2.0])
        snap = np.array([0.0, 0.5])
        view = StalenessView(
            fresh,
            snap,
            np.array([False, False]),
            written_gpu=np.array([3, -1]),
            written_stamp=np.array([9, 0]),
            wave_stamp=9,
            gpu_id=3,
        )
        assert view[0] == 1.0  # written on this GPU this wave
        assert view[1] == 0.5  # untouched remote -> snapshot

    def test_stale_write_stamp_ignored(self):
        fresh = np.array([1.0])
        snap = np.array([0.0])
        view = StalenessView(
            fresh,
            snap,
            np.array([False]),
            written_gpu=np.array([3]),
            written_stamp=np.array([4]),  # older wave
            wave_stamp=9,
            gpu_id=3,
        )
        assert view[0] == 0.0

    def test_mismatched_shapes(self):
        with pytest.raises(SimulationError):
            StalenessView(
                np.zeros(3), np.zeros(2), np.zeros(3, dtype=bool)
            )

    def test_len(self):
        view = StalenessView(
            np.zeros(5), np.zeros(5), np.zeros(5, dtype=bool)
        )
        assert len(view) == 5


class TestFold:
    """``fold`` is ``full_gather`` through the view, bit for bit."""

    @pytest.mark.parametrize(
        "algorithm", ["pagerank", "sssp", "kcore", "wcc"]
    )
    @pytest.mark.parametrize("tracked", [False, True])
    def test_fold_matches_full_gather(self, algorithm, tracked):
        from repro.algorithms import make_program
        from repro.graph.generators import scc_profile_graph

        graph = scc_profile_graph(60, 4.0, 0.5, 4.0, seed=5)
        program = make_program(algorithm, graph)
        n = graph.num_vertices
        rng = np.random.default_rng(3)
        fresh = rng.random(n)
        snapshot = rng.random(n)
        written = dict(
            written_gpu=rng.integers(0, 2, n),
            written_stamp=rng.integers(0, 2, n),
            wave_stamp=1,
            gpu_id=0,
        )
        view = StalenessView(
            fresh, snapshot, rng.random(n) < 0.5, **(written if tracked else {})
        )
        for v in range(n):
            edges = list(program.gather_edges(graph, v))
            assert view.fold(
                program, v, edges, program.identity
            ) == program.full_gather(graph, v, view)
