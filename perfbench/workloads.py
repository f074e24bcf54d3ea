"""The benchmark's four workloads.

A workload's input is a small set of graphs of one profile, each
generated from a sub-seed of the run's seed (:meth:`Workload.graph_seeds`,
generated once per seed by the input cache) and then used only through
its edge-list file. A set rather than one larger graph because the
generators' structure varies from seed to seed (layer counts, SCC
shape, rounds to converge): a sum over several graphs varies much less
between seeds than one graph of the same total size, and that variation
would otherwise swamp a regression of a few per cent. serve-mixed and
stream-mixed go further: they run over one fixed set of graphs, and
their seed draws only the traffic (see :attr:`Workload.fixed_dataset`).
For every graph:

- :meth:`prepare_one` builds untimed per-run extras from the file (the
  serve arrival trace, the mutation trace);
- :meth:`setup_one` is timed into ``setup_s``: file to ready-to-compute;
- :meth:`solve_one` is timed into ``solve_s``: ready to all results;
- :meth:`check_one` runs after the timer stops and turns the results
  into counted operations, failures and result digests.

Every timed call goes straight to an engine, ``ServingContext``,
``QueryServer`` or ``StreamingSession``: never through the memoized
``run_cell``/``run_serve_cell`` paths, which could return a stored
result and time nothing. ``read_edge_list`` is looked up through its
module at call time, so a traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.graph.io as gio
from repro.algorithms import PAPER_BENCHMARKS, make_program
from repro.baselines.bulk_sync import BulkSyncConfig, BulkSyncEngine
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.errors import ConvergenceError
from repro.gpu.config import SCALED_MACHINE
from repro.graph.datasets import recipe
from repro.graph.generators import (
    mutation_trace,
    random_directed,
    scc_profile_graph,
    with_random_weights,
)
from repro.serve.context import ServingContext
from repro.serve.query import SERVE_ALGORITHMS, generate_trace
from repro.serve.runner import serve_digest
from repro.serve.server import QueryServer, ServeConfig
from repro.streaming.session import StreamingSession
from repro.verify.oracle import DISCRETE_ALGORITHMS, equivalence_band
from repro.verify.serve import verify_serve_report
from repro.verify.streaming import certify_incremental
from repro.verify.structural import check_fixed_point_reached

#: One process, one preprocessing worker.
CONFIG = DiGraphConfig(n_workers=1)


def state_digest(states: np.ndarray) -> str:
    arr = np.ascontiguousarray(states, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _profile_graph(dataset: str, n: int, seed: int):
    r = recipe(dataset)
    graph = scc_profile_graph(
        n, r.avg_degree, r.giant_scc_fraction, r.avg_distance, seed=seed
    )
    return with_random_weights(graph, seed=seed + 7)


@dataclass
class Checked:
    """What one iteration's results amount to, after the checks."""

    attempted: int
    failed: int
    answered: int                  #: operations completed (host_qps numerator)
    modeled_s: float               #: modeled time of the solve phase
    digests: Dict[str, str]        #: result digests, for the determinism check
    notes: List[str] = field(default_factory=list)

    @staticmethod
    def combine(parts: List["Checked"]) -> "Checked":
        return Checked(
            attempted=sum(p.attempted for p in parts),
            failed=sum(p.failed for p in parts),
            answered=sum(p.answered for p in parts),
            modeled_s=sum(p.modeled_s for p in parts),
            digests={k: v for p in parts for k, v in p.digests.items()},
            notes=[n for p in parts for n in p.notes],
        )


class Verifier:
    """Result checks that remember which digests already passed.

    ``expected`` holds the digests of the first verified run of the same
    seed (from the input cache); a digest equal to an expected or already
    verified one names the very states that passed, so the full check is
    not repeated for it.
    """

    def __init__(self, expected: Dict[str, str]) -> None:
        self.expected = dict(expected)
        self.verified: Dict[str, str] = {}

    def check(self, key: str, digest: str, full_check: Callable[[], bool]):
        """``None`` if the result is accepted, else the reason it is not."""
        want = self.expected.get(key)
        if want is not None and digest != want:
            return f"{key}: digest {digest[:12]} != first run {want[:12]}"
        if self.verified.get(key) == digest:
            return None
        if want is None and not full_check():
            return f"{key}: result failed its correctness check"
        self.verified[key] = digest
        return None


class Workload:
    """Per-graph steps, run over every graph of the workload's input."""

    name = ""
    graphs = 1

    #: Set on workloads that model a service over one dataset: their
    #: input graphs are a fixed set built from this dataset recipe's own
    #: seed, and the run's seed draws only the traffic (queries,
    #: mutation batches). Their host time is set mostly by the depth
    #: and shape of the graphs, which differ by 15-20% between generator
    #: seeds, far more than between traffic draws, and that would swamp
    #: a regression of a few per cent.
    fixed_dataset: Optional[str] = None

    @property
    def cache_name(self) -> str:
        """The workload's name and a digest of its settings.

        Names the input cache, so that changing a size, a count or the
        fixed dataset never reuses inputs or result digests recorded for
        the old settings.
        """
        settings = {}
        for cls in reversed(type(self).__mro__):
            for key, value in vars(cls).items():
                if not key.startswith("_") and isinstance(
                    value, (int, float, str, type(None))
                ):
                    settings[key] = value
        blob = json.dumps(settings, sort_keys=True).encode()
        return f"{self.name}-{hashlib.sha256(blob).hexdigest()[:8]}"

    def sub_seeds(self, seed: int) -> List[int]:
        return [seed * 1000 + i for i in range(self.graphs)]

    def graph_seeds(self, seed: int) -> List[int]:
        """The seeds :meth:`generate` builds the input graphs from."""
        if self.fixed_dataset is None:
            return self.sub_seeds(seed)
        base = recipe(self.fixed_dataset).seed * 1000
        return [base + i for i in range(self.graphs)]

    def prepare(self, paths, seed: int):
        return [
            self.prepare_one(p, s) for p, s in zip(paths, self.sub_seeds(seed))
        ]

    def check(self, readies, results, prepared, verifier) -> Checked:
        return Checked.combine([
            self.check_one(r, x, q, verifier, f"g{i}.")
            for i, (r, x, q) in enumerate(zip(readies, results, prepared))
        ])

    def prepare_one(self, path, sub_seed: int):
        return None


class _AlgorithmSuite(Workload):
    """The paper's four algorithms (Fig. 10) on one graph per setup."""

    def check_one(self, ready, runs, prepared, verifier, key) -> Checked:
        graph = ready[0]
        failed = 0
        notes: List[str] = []
        digests = {}
        for program, result in runs:
            name = key + program.name
            digest = state_digest(result.states)
            digests[name] = digest
            problem = (
                f"{name}: did not converge"
                if not result.converged
                else verifier.check(
                    name,
                    digest,
                    lambda: check_fixed_point_reached(
                        program, graph, result.states
                    ).passed,
                )
            )
            if problem:
                failed += 1
                notes.append(problem)
        return Checked(
            attempted=len(runs),
            failed=failed,
            answered=len(runs) - failed,
            modeled_s=sum(result.stats.total_time_s for _, result in runs),
            digests=digests,
            notes=notes,
        )


class WebPaths(_AlgorithmSuite):
    name = "web-paths"
    graphs = 3
    vertices = 400

    def generate(self, sub_seed: int):
        return _profile_graph("cnr", self.vertices, sub_seed)

    def setup_one(self, path):
        graph = gio.read_edge_list(path)
        engine = DiGraphEngine(SCALED_MACHINE, CONFIG)
        return graph, engine, engine.preprocess(graph)

    def solve_one(self, ready, prepared):
        graph, engine, pre = ready
        runs = []
        for algo in PAPER_BENCHMARKS:
            program = make_program(algo, graph)
            result = engine.run(
                graph, program, preprocessed=pre, strict_convergence=False
            )
            runs.append((program, result))
        return runs


class SocialBulk(_AlgorithmSuite):
    name = "social-bulk"
    graphs = 4
    vertices = 6000
    edges = 48000

    def generate(self, sub_seed: int):
        graph = random_directed(self.vertices, self.edges, seed=sub_seed)
        return with_random_weights(graph, seed=sub_seed + 7)

    def setup_one(self, path):
        graph = gio.read_edge_list(path)
        engine = BulkSyncEngine(
            SCALED_MACHINE,
            BulkSyncConfig(n_workers=1, use_vectorized_kernels=True),
        )
        return graph, engine

    def solve_one(self, ready, prepared):
        graph, engine = ready
        runs = []
        for algo in PAPER_BENCHMARKS:
            program = make_program(algo, graph)
            runs.append(
                (program, engine.run(graph, program, strict_convergence=False))
            )
        return runs


class ServeMixed(Workload):
    name = "serve-mixed"
    graphs = 2
    vertices = 600
    queries = 96
    tenants = 4
    lanes = 8
    mean_interarrival_s = 10e-6
    fixed_dataset = "dblp"

    def generate(self, sub_seed: int):
        return _profile_graph(self.fixed_dataset, self.vertices, sub_seed)

    def prepare_one(self, path, sub_seed: int):
        graph = gio.read_edge_list(path)
        return generate_trace(
            graph.num_vertices,
            self.queries,
            seed=sub_seed,
            tenants=self.tenants,
            mean_interarrival_s=self.mean_interarrival_s,
            algorithms=SERVE_ALGORITHMS,
        )

    def setup_one(self, path):
        graph = gio.read_edge_list(path)
        return ServingContext(graph, SCALED_MACHINE, CONFIG)

    def solve_one(self, context, trace):
        server = QueryServer(context, ServeConfig(query_lanes=self.lanes))
        return server.serve(trace)

    def check_one(self, context, report, trace, verifier, key) -> Checked:
        not_ok = [r for r in report.results if r.status != "ok"]
        notes = [
            f"{key}query {r.query.query_id}: {r.status}" for r in not_ok[:5]
        ]
        digest = serve_digest(report)
        problem = verifier.check(
            key + "serve",
            digest,
            lambda: verify_serve_report(context, report).passed,
        )
        failed = len(not_ok)
        if problem:
            # A wrong digest means some answers are wrong; every query
            # of the trace is counted as failed.
            failed = len(report.results)
            notes.append(problem)
        return Checked(
            attempted=len(trace),
            failed=failed,
            answered=len(report.answered),
            modeled_s=report.makespan_s,
            digests={key + "serve": digest},
            notes=notes,
        )


class StreamMixed(Workload):
    name = "stream-mixed"
    graphs = 10
    vertices = 200
    batches = 4
    batch_size = 32
    algorithm = "sssp"
    fixed_dataset = "cnr"

    def generate(self, sub_seed: int):
        return _profile_graph(self.fixed_dataset, self.vertices, sub_seed)

    def prepare_one(self, path, sub_seed: int):
        graph = gio.read_edge_list(path)
        return mutation_trace(
            graph, self.batches, seed=sub_seed, batch_size=self.batch_size,
            mix="mixed",
        )

    def setup_one(self, path):
        graph = gio.read_edge_list(path)
        return StreamingSession(
            graph, self.algorithm, SCALED_MACHINE, CONFIG
        )

    def solve_one(self, session, batches):
        outcomes = []
        try:
            for batch in batches:
                outcomes.append(session.apply(batch))
        except ConvergenceError:
            pass  # this batch and the ones after it count as failed
        return outcomes

    def _certify(self, session) -> bool:
        graph = session.graph
        golden_program = make_program(
            self.algorithm, graph, **session.program_kwargs
        )
        golden = DiGraphEngine(SCALED_MACHINE, CONFIG).run(
            graph, golden_program
        )
        band = (
            0.0
            if self.algorithm in DISCRETE_ALGORITHMS
            else equivalence_band(golden_program, graph)
        )
        return certify_incremental(session.values, golden.states, band).passed

    def check_one(self, session, outcomes, batches, verifier, key) -> Checked:
        notes = []
        if len(outcomes) < len(batches):
            notes.append(
                f"{key}batch {len(outcomes)}: warm run did not converge"
            )
        digest = state_digest(session.values)
        problem = verifier.check(
            key + "stream", digest, lambda: self._certify(session)
        )
        if problem:
            notes.append(problem)
        # The final values certify the whole trace, so a failed
        # certification fails every batch.
        failed = len(batches) if problem else len(batches) - len(outcomes)
        return Checked(
            attempted=len(batches),
            failed=failed,
            answered=len(batches) - failed,
            modeled_s=sum(o.result.stats.total_time_s for o in outcomes),
            digests={key + "stream": digest},
            notes=notes,
        )


WORKLOADS = {
    w.name: w for w in (WebPaths(), SocialBulk(), ServeMixed(), StreamMixed())
}
