"""Span recording around the program's public entry points, from outside.

Nothing in ``src/`` knows about this module. :func:`instrument` replaces
entry points with wrappers for the duration of a traced run and
:meth:`Patches.restore` puts the originals back. A function that a
caller imported by name (``from repro.core.partitioning import
decompose_into_paths`` inside ``repro.core.engine``) is patched at the
caller's module attribute, because that is the name the caller looks up
at call time; methods are patched on their class.

Each span records its name, start, end and parent. A span's self time
is its duration minus the time its children cover. Counts are read from
the objects the calls return (``Preprocessed``, ``MachineStats``,
``SolveResult``, ``ServeReport``, ``DeltaPlan``) right after each call.

The same wrappers can add a fixed delay to one layer without recording
anything: the layer-mapping self-test uses that to check which
end-to-end metrics a slower layer moves.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span list plus counters read off returned objects."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def has_ancestor(self, index: int, prefix: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name.startswith(prefix):
                return True
            parent = self.spans[parent].parent
        return False

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event ``X`` (complete) events, microseconds."""
        if not self.spans:
            return []
        origin = self.spans[0].start
        return [
            {
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"index": i, "parent": s.parent},
            }
            for i, s in enumerate(self.spans)
        ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# what to read off each call's return value
# ----------------------------------------------------------------------
def _count_preprocessed(counts, pre, _args) -> None:
    counts["core.partitioning.paths"] += pre.path_set.num_paths
    counts["core.partitioning.path_edges"] += pre.path_set.total_edges()
    counts["core.dependency.dep_edges"] += pre.dag.dependency_graph.num_edges
    counts["core.dependency.scc_vertices"] += pre.dag.num_scc_vertices
    counts["core.dependency.layers"] += pre.dag.num_layers()


def _count_stats(counts, result, _args) -> None:
    stats = result.stats
    counts["gpu.compute_s"] += stats.compute_time_s
    counts["gpu.transfer_s"] += stats.transfer_time_s
    counts["gpu.async_comm_s"] += stats.async_comm_time_s
    counts["gpu.traffic_bytes"] += stats.traffic_bytes
    counts["gpu.busy_thread_cycles"] += stats.busy_thread_cycles
    counts["gpu.total_thread_cycles"] += stats.total_thread_cycles


def _count_digraph(counts, result, args) -> None:
    _count_stats(counts, result, args)
    for key in ("rounds", "apply_calls", "vertex_updates", "edge_traversals"):
        counts[f"core.engine.{key}"] += getattr(result.stats, key)


def _count_bulk(counts, result, args) -> None:
    _count_stats(counts, result, args)
    counts["baselines.bulk_sync.rounds"] += result.stats.rounds


def _count_solve(counts, result, _args) -> None:
    counts["serve.solver.solves"] += 1
    counts["serve.solver.lanes"] += result.num_lanes
    counts["serve.solver.launches"] += result.launches
    counts["serve.solver.edge_lane_work"] += result.edge_lane_work


def _count_serve(counts, report, _args) -> None:
    counts["serve.server.batches"] += report.batches
    counts["serve.server.queries"] += len(report.results)
    counts["serve.server.goodput"] += len(report.goodput)
    counts["serve.server.latency_p99_s"] = max(
        counts["serve.server.latency_p99_s"], report.latency_percentile(0.99)
    )


def _count_repair(counts, repair, _args) -> None:
    counts["streaming.repair.paths_repaired"] += repair.paths_repaired


def _count_plan(counts, plan, _args) -> None:
    counts["streaming.delta.plans"] += 1
    counts["streaming.delta.resumed"] += plan.mode == "resume"
    counts["streaming.delta.reactivated"] += plan.num_affected


def _program_name(args) -> str:
    # ``engine.run(graph, program, ...)``: args[0] is the engine.
    return getattr(args[2], "name", "program") if len(args) > 2 else "program"


def _wrap(
    name: str,
    fn: Callable,
    tracer: Optional[Tracer],
    delay_s: float,
    after: Optional[Callable] = None,
    suffix: Optional[Callable] = None,
) -> Callable:
    def wrapper(*args, **kwargs):
        if tracer is None:
            time.sleep(delay_s)
            return fn(*args, **kwargs)
        label = f"{name}.{suffix(args)}" if suffix else name
        with tracer.span(label):
            if delay_s:
                time.sleep(delay_s)
            out = fn(*args, **kwargs)
        if after is not None:
            after(tracer.counts, out, args)
        return out

    return wrapper


def _targets():
    """(span name, [(owner, attribute)], after, suffix) per layer."""
    import repro.baselines.bulk_sync as bulk_sync
    import repro.core.engine as engine
    import repro.graph.io as gio
    import repro.serve.context as serve_context
    import repro.serve.server as serve_server
    import repro.serve.solver as serve_solver
    import repro.streaming.repair as repair
    import repro.streaming.session as session

    return [
        ("graph.io.load", [(gio, "read_edge_list")], None, None),
        ("core.partitioning.decompose",
         [(engine, "decompose_into_paths")], None, None),
        ("core.dependency.dag", [(engine, "build_dependency_dag")], None, None),
        ("core.storage.partitions",
         [(engine, "build_partitions"), (engine, "PathStorage"),
          (session, "build_partitions"), (session, "PathStorage")],
         None, None),
        ("core.replicas.replicas",
         [(engine, "ReplicaTable"), (session, "ReplicaTable")], None, None),
        ("core.engine.preprocess", [(engine.DiGraphEngine, "preprocess")],
         _count_preprocessed, None),
        ("core.engine.run", [(engine.DiGraphEngine, "run")],
         _count_digraph, _program_name),
        ("baselines.bulk_sync.run", [(bulk_sync.BulkSyncEngine, "run")],
         _count_bulk, _program_name),
        ("serve.context", [(serve_context.ServingContext, "__init__")],
         None, None),
        ("serve.solver.solve", [(serve_solver.MultiSourceSolver, "solve")],
         _count_solve, None),
        ("serve.server.serve", [(serve_server.QueryServer, "serve")],
         _count_serve, None),
        ("streaming.session.init",
         [(session.StreamingSession, "__init__")], None, None),
        ("streaming.session.apply",
         [(session.StreamingSession, "apply")], None, None),
        ("streaming.mutations.apply", [(session, "apply_batch")], None, None),
        ("streaming.repair.apply", [(repair.PathRepairer, "apply")],
         _count_repair, None),
        ("streaming.delta.plan", [(session, "plan_delta")], _count_plan, None),
    ]


def instrument(
    tracer: Optional[Tracer], delays: Optional[Dict[str, float]] = None
) -> Patches:
    """Wrap the entry points; with ``tracer`` None only the delayed ones.

    The caller must :meth:`Patches.restore` when the run ends.
    """
    import repro.baselines.bulk_sync as bulk_sync
    import repro.core.engine as engine

    delays = dict(delays or {})
    targets = _targets()
    unknown = set(delays) - {t[0] for t in targets} - {"kernels.batch_update"}
    if unknown:
        raise ValueError(f"unknown layer(s) to delay: {sorted(unknown)}")
    patches = Patches()
    for name, sites, after, suffix in targets:
        delay = delays.get(name, 0.0)
        if tracer is None and not delay:
            continue
        for owner, attr in sites:
            patches.set(
                owner,
                attr,
                _wrap(name, getattr(owner, attr), tracer, delay, after, suffix),
            )
    batch_delay = delays.get("kernels.batch_update", 0.0)
    if tracer is not None or batch_delay:
        # The kernel object is built inside the engine run; wrap the
        # resolver so each resolved kernel's ``batch_update`` is wrapped.
        for module in (bulk_sync, engine):
            resolve = module.resolve_kernel

            def resolve_wrapped(*args, _resolve=resolve, **kwargs):
                kernel = _resolve(*args, **kwargs)
                if kernel is not None:
                    kernel.batch_update = _wrap(
                        "kernels.batch_update", kernel.batch_update, tracer,
                        batch_delay, _count_batch_update,
                    )
                return kernel

            patches.set(module, "resolve_kernel", resolve_wrapped)
    return patches


def _count_batch_update(counts, _out, _args) -> None:
    counts["kernels.batch_update_calls"] += 1


# ----------------------------------------------------------------------
# per-layer metrics and reports
# ----------------------------------------------------------------------
ALGORITHMS = ("pagerank", "adsorption", "sssp", "kcore")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times and counts of one traced iteration."""
    own = tracer.self_times()
    self_s: Dict[str, float] = defaultdict(float)
    for span, seconds in zip(tracer.spans, own):
        self_s[span.name] += seconds
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    views = sum(
        seconds
        for i, (span, seconds) in enumerate(zip(tracer.spans, own))
        if span.name in ("core.storage.partitions", "core.replicas.replicas")
        and tracer.has_ancestor(i, "streaming.session.apply")
    )
    warm = [
        s.duration for i, s in enumerate(tracer.spans)
        if s.name.startswith("core.engine.run.")
        and tracer.has_ancestor(i, "streaming.session.apply")
    ]
    cold = [
        s.duration for i, s in enumerate(tracer.spans)
        if s.name.startswith("core.engine.run.")
        and tracer.has_ancestor(i, "streaming.session.init")
    ]
    bench = [
        s for s in tracer.spans if s.name in ("bench.setup", "bench.solve")
    ]
    bench_total = sum(s.duration for s in bench)
    bench_self = sum(
        seconds for span, seconds in zip(tracer.spans, own)
        if span.name in ("bench.setup", "bench.solve")
    )
    out = {
        "graph.io.load_s": self_s["graph.io.load"],
        "core.partitioning.decompose_s": self_s["core.partitioning.decompose"],
        "core.partitioning.paths": c["core.partitioning.paths"],
        "core.partitioning.avg_path_len": ratio(
            c["core.partitioning.path_edges"], c["core.partitioning.paths"]
        ),
        "core.dependency.dag_s": self_s["core.dependency.dag"],
        "core.dependency.dep_edges": c["core.dependency.dep_edges"],
        "core.dependency.scc_vertices": c["core.dependency.scc_vertices"],
        "core.dependency.layers": c["core.dependency.layers"],
        "core.storage.partitions_s": self_s["core.storage.partitions"],
        "core.replicas.replicas_s": self_s["core.replicas.replicas"],
        "core.engine.preprocess_self_s": self_s["core.engine.preprocess"],
    }
    for algo in ALGORITHMS:
        out[f"core.engine.run_s.{algo}"] = self_s[f"core.engine.run.{algo}"]
    out.update({
        "core.engine.rounds": c["core.engine.rounds"],
        "core.engine.apply_calls": c["core.engine.apply_calls"],
        "core.engine.vertex_updates": c["core.engine.vertex_updates"],
        "core.engine.edge_traversals": c["core.engine.edge_traversals"],
        "core.engine.useful_ratio": ratio(
            c["core.engine.vertex_updates"], c["core.engine.apply_calls"]
        ),
    })
    for algo in ALGORITHMS:
        out[f"baselines.bulk_sync.run_s.{algo}"] = self_s[
            f"baselines.bulk_sync.run.{algo}"
        ]
    out.update({
        "baselines.bulk_sync.rounds": c["baselines.bulk_sync.rounds"],
        "kernels.batch_update_s": self_s["kernels.batch_update"],
        "kernels.batch_update_calls": c["kernels.batch_update_calls"],
        "gpu.compute_s": c["gpu.compute_s"],
        "gpu.transfer_s": c["gpu.transfer_s"],
        "gpu.async_comm_s": c["gpu.async_comm_s"],
        "gpu.traffic_bytes": c["gpu.traffic_bytes"],
        "gpu.utilization": ratio(
            c["gpu.busy_thread_cycles"], c["gpu.total_thread_cycles"]
        ),
        "serve.context.schedule_s": self_s["serve.context"],
        "serve.solver.solve_s": self_s["serve.solver.solve"],
        "serve.solver.solves": c["serve.solver.solves"],
        "serve.solver.lanes_per_solve": ratio(
            c["serve.solver.lanes"], c["serve.solver.solves"]
        ),
        "serve.solver.launches": c["serve.solver.launches"],
        "serve.solver.edge_lane_work": c["serve.solver.edge_lane_work"],
        "serve.server.sched_self_s": self_s["serve.server.serve"],
        "serve.server.batches": c["serve.server.batches"],
        "serve.server.goodput_ratio": ratio(
            c["serve.server.goodput"], c["serve.server.queries"]
        ),
        "serve.server.latency_p99_s": c["serve.server.latency_p99_s"],
        "streaming.mutations.apply_s": self_s["streaming.mutations.apply"],
        "streaming.repair.repair_s": self_s["streaming.repair.apply"],
        "streaming.repair.paths_repaired": c["streaming.repair.paths_repaired"],
        "streaming.session.views_s": views,
        "streaming.delta.plan_s": self_s["streaming.delta.plan"],
        "streaming.delta.resume_ratio": ratio(
            c["streaming.delta.resumed"], c["streaming.delta.plans"]
        ),
        "streaming.delta.reactivated": c["streaming.delta.reactivated"],
        "streaming.incremental_vs_cold": ratio(
            sum(warm) / len(warm) if warm else 0.0, sum(cold)
        ),
        "trace.coverage": ratio(bench_total - bench_self, bench_total),
        "trace.spans": float(len(tracer.spans)),
    })
    return out


def self_time_table(tracer: Tracer) -> str:
    """Self time per span name, largest first, as a text table."""
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, seconds in zip(tracer.spans, tracer.self_times()):
        row = rows[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += seconds
    total = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'layer':<34} {'calls':>6} {'total_s':>9} {'self_s':>9} {'self%':>6}"]
    for name, (calls, dur, own) in sorted(
        rows.items(), key=lambda kv: -kv[1][2]
    ):
        lines.append(
            f"{name:<34} {int(calls):>6} {dur:>9.4f} {own:>9.4f} "
            f"{100 * own / total:>5.1f}%"
        )
    return "\n".join(lines)


def write_chrome_trace(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": tracer.chrome_events(), "displayTimeUnit": "ms"},
            handle,
        )
