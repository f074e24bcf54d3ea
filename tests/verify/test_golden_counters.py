"""Golden-fixture regression tests: pinned DiGraph-family counters.

``golden_digests.json`` pins converged states only; two executions can
reach the same states through different rounds, waves, or accounting.
This fixture pins the *modeled clock* as well: for the three DiGraph
configurations (``digraph``, ``digraph-w``, ``digraph-t``) x the 8
algorithms x the canonical graphs plus one cnr stand-in, it records the
sha256 of the converged states, the sha256 of the full
``MachineStats.as_dict()`` counter bundle (every traffic, time, and work
counter of the simulated machine), ``rounds``, and the number of
round records. A refactor of the execution loop must leave all of them
unchanged.

Regenerate intentionally with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/verify/test_golden_counters.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.algorithms import make_program
from repro.gpu.config import SCALED_MACHINE
from repro.graph.datasets import load
from repro.verify.fixtures import CANONICAL_GRAPHS
from repro.verify.oracle import ALL_ALGORITHMS, _build_engine

GOLDEN_PATH = Path(__file__).with_name("golden_counters.json")
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

ENGINES = ("digraph", "digraph-w", "digraph-t")
GRAPHS = dict(CANONICAL_GRAPHS)
GRAPHS["cnr@0.3"] = lambda: load("cnr", scale=0.3)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _fingerprint(graph_name, algo, engine_name):
    graph = GRAPHS[graph_name]()
    engine = _build_engine(engine_name, SCALED_MACHINE, verify_digraph=False)
    program = make_program(algo, graph)
    result = engine.run(graph, program, graph_name=graph_name)
    assert result.converged
    stats = json.dumps(result.stats.as_dict(), sort_keys=True)
    return {
        "states_sha256": _sha256(result.states.tobytes()),
        "stats_sha256": _sha256(stats.encode()),
        "rounds": result.rounds,
        "round_records": len(result.round_records),
    }


def _key(graph_name, algo, engine_name):
    return f"{graph_name}/{algo}/{engine_name}"


CASES = [
    (g, a, e)
    for g in sorted(GRAPHS)
    for a in ALL_ALGORITHMS
    for e in ENGINES
]


@pytest.fixture(scope="module")
def golden():
    if REGEN:
        pinned = {
            _key(g, a, e): _fingerprint(g, a, e) for (g, a, e) in CASES
        }
        GOLDEN_PATH.write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n"
        )
        return pinned
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "golden_counters.json missing; regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("graph_name,algo,engine_name", CASES)
def test_counters_pinned(golden, graph_name, algo, engine_name):
    key = _key(graph_name, algo, engine_name)
    assert key in golden, f"no golden counters for {key}; regenerate"
    assert _fingerprint(graph_name, algo, engine_name) == golden[key], (
        f"states or modeled counters changed for {key}; if intentional, "
        "regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_golden_counters_cover_all_cases(golden):
    assert set(golden) == {_key(g, a, e) for (g, a, e) in CASES}
