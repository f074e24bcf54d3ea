"""Unit tests for Pri(p) scheduling and thread balancing."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependency import build_dependency_dag
from repro.core.partitioning import decompose_into_paths
from repro.core.scheduling import PathScheduler, balance_paths_to_threads
from repro.errors import SchedulingError
from repro.graph.generators import scc_profile_graph


@pytest.fixture
def scheduler():
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    dag = build_dependency_dag(ps)
    sched = PathScheduler(ps, dag)
    sched.reset_counts(np.ones(g.num_vertices, dtype=bool))
    return g, ps, dag, sched


class TestPriority:
    def test_alpha_keeps_degree_term_below_one(self, scheduler):
        _, ps, _, sched = scheduler
        for p in range(ps.num_paths):
            term = (
                sched.alpha
                * ps[p].average_degree(ps.graph)
                * ps[p].num_vertices
            )
            assert term <= 1.0 + 1e-9

    def test_lower_layer_always_wins(self, scheduler):
        _, ps, dag, sched = scheduler
        by_layer = {}
        for p in range(ps.num_paths):
            by_layer.setdefault(dag.layer_of_path(p), []).append(p)
        if len(by_layer) < 2:
            pytest.skip("graph produced a single layer")
        low = min(by_layer)
        high = max(by_layer)
        assert sched.priority(by_layer[low][0]) > sched.priority(
            by_layer[high][0]
        )

    def test_inactive_path_scores_lower(self, scheduler):
        g, ps, dag, sched = scheduler
        p = 0
        before = sched.priority(p)
        for v in ps[p].vertices:
            sched.vertex_deactivated(int(v))
        assert sched.priority(p) <= before

    def test_priority_out_of_range(self, scheduler):
        sched = scheduler[3]
        with pytest.raises(SchedulingError):
            sched.priority(10 ** 6)

    def test_order_descending(self, scheduler):
        _, ps, _, sched = scheduler
        order = sched.order_paths(range(ps.num_paths))
        priorities = [sched.priority(p) for p in order]
        assert priorities == sorted(priorities, reverse=True)

    def test_disabled_keeps_given_order(self, scheduler):
        g, ps, dag, _ = scheduler
        sched = PathScheduler(ps, dag, enabled=False)
        ids = list(range(min(10, ps.num_paths)))[::-1]
        assert sched.order_paths(ids) == ids

    def test_incremental_counts_match_reset(self, scheduler):
        g, ps, dag, sched = scheduler
        # deactivate then reactivate everything incrementally
        for v in range(g.num_vertices):
            sched.vertex_deactivated(v)
        for v in range(g.num_vertices):
            sched.vertex_activated(v)
        fresh = PathScheduler(ps, dag)
        fresh.reset_counts(np.ones(g.num_vertices, dtype=bool))
        assert np.array_equal(sched.active_count, fresh.active_count)


class TestThreadBalancing:
    def test_loads_nearly_equal(self):
        edges = {i: (i % 7) + 1 for i in range(40)}
        buckets = balance_paths_to_threads(list(range(40)), edges, 8)
        loads = [sum(edges[p] for p in b) for b in buckets]
        assert max(loads) - min(loads) <= max(edges.values())

    def test_single_thread(self):
        edges = {0: 3, 1: 5}
        buckets = balance_paths_to_threads([0, 1], edges, 1)
        assert len(buckets) == 1
        assert sorted(buckets[0]) == [0, 1]

    def test_empty(self):
        assert balance_paths_to_threads([], {}, 4) == []

    def test_invalid_threads(self):
        with pytest.raises(SchedulingError):
            balance_paths_to_threads([0], {0: 1}, 0)

    def test_every_path_assigned_once(self):
        edges = {i: 2 for i in range(13)}
        buckets = balance_paths_to_threads(list(range(13)), edges, 4)
        flat = sorted(p for b in buckets for p in b)
        assert flat == list(range(13))


# ----------------------------------------------------------------------
# properties: the vectorized helpers against their reference forms
# ----------------------------------------------------------------------
def reference_lpt(path_ids, path_edges, num_threads):
    """LPT as a linear scan: ``loads.index(min(loads))`` per path."""
    buckets = [[] for _ in range(num_threads)]
    loads = [0] * num_threads
    ordered = sorted(
        range(len(path_ids)), key=lambda i: -path_edges[path_ids[i]]
    )
    for i in ordered:
        path_id = path_ids[i]
        lightest = loads.index(min(loads))
        buckets[lightest].append(path_id)
        loads[lightest] += path_edges[path_id]
    return [bucket for bucket in buckets if bucket]


@settings(max_examples=300, deadline=None)
@given(
    # Few distinct weights (zeros and negatives included) force ties in
    # both the length order and the lightest-thread choice.
    weights=st.lists(st.integers(-2, 3), max_size=60),
    num_threads=st.integers(1, 9),
)
def test_heap_lpt_matches_linear_scan(weights, num_threads):
    path_ids = list(range(len(weights)))[::-1]
    path_edges = dict(zip(path_ids, weights))
    assert balance_paths_to_threads(
        path_ids, path_edges, num_threads
    ) == reference_lpt(path_ids, path_edges, num_threads)


@functools.lru_cache(maxsize=None)
def _shared_scheduler():
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    return ps, PathScheduler(ps, build_dependency_dag(ps))


@settings(max_examples=100, deadline=None)
@given(
    picks=st.lists(st.integers(0, 10 ** 6), max_size=40),
    counts=st.lists(st.integers(0, 2), min_size=1, max_size=8),
)
def test_order_paths_matches_sorted_priorities(picks, counts):
    ps, sched = _shared_scheduler()
    # Cycling a few small N(p) values makes many priorities equal.
    sched.active_count[:] = np.resize(counts, ps.num_paths)
    ids = [p % ps.num_paths for p in picks]
    expected = sorted(ids, key=lambda p: (-sched.priority(p), p))
    assert sched.order_paths(ids) == expected


@pytest.mark.parametrize("bad", [-1, -7, "past-end"])
def test_order_paths_rejects_ids_outside_the_path_set(scheduler, bad):
    _, ps, _, sched = scheduler
    path_id = ps.num_paths if bad == "past-end" else bad
    # numpy fancy indexing would silently wrap a negative id.
    with pytest.raises(SchedulingError):
        sched.order_paths([0, path_id])
    with pytest.raises(SchedulingError):
        sched.priority(path_id)
