"""Self-tests of the benchmark itself. Run from the root of a checkout::

    python3 perfbench/selftest.py [--seed 1] [--seconds 6]

1. **Layer mapping.** A fixed delay is added to one layer through the
   tracing wrappers, and every workload is run with and without it on
   the same seed. An end-to-end metric is *flagged* when the delayed run
   is worse than the plain one by more than the metric's bound in
   ``BENCHMARK.json``. The flagged set must equal the prediction:
   a slower ``decompose_into_paths`` moves ``setup_s`` on web-paths,
   serve-mixed and stream-mixed and nothing on social-bulk (which runs
   no path layer); a slower ``MultiSourceSolver.solve`` moves the serve
   time (``solve_s`` and ``host_qps``) on serve-mixed only.
2. **Repeat in one process.** Every run repeats set-up and solve in one
   process; the worker already fails a run whose later iterations do
   different modeled work or produce different digests. Here the second
   iteration's wall time must be within a factor of 1.5 of the first,
   so nothing cached by the first iteration makes the next one cheaper.
3. **Tracing.** A traced run of every workload must report every
   per-layer metric, with per-layer self times covering at least 90% of
   the traced set-up plus solve time; the tracing overhead is printed.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, run_one  # noqa: E402

#: (layer, delay per call in seconds, {workload: predicted flagged metrics})
INJECTIONS = (
    ("core.partitioning.decompose", 0.25, {
        "web-paths": {"setup_s"},
        "social-bulk": set(),
        "serve-mixed": {"setup_s"},
        "stream-mixed": {"setup_s"},
    }),
    ("serve.solver.solve", 0.03, {
        "web-paths": set(),
        "social-bulk": set(),
        "serve-mixed": {"solve_s", "host_qps"},
        "stream-mixed": set(),
    }),
)

MIN_COVERAGE = 0.9
MAX_REPEAT_RATIO = 1.5


def flagged(base, delayed, specs):
    """Metrics on which ``delayed`` is worse than ``base`` beyond the bound."""
    out = {}
    for spec in specs:
        name, bound = spec["name"], spec["bound"]
        b, d = base["metrics"][name], delayed["metrics"][name]
        worse = d > b * (1 + bound) if spec["better"] == "lower" else d < b * (1 - bound)
        if worse:
            out[name] = f"{b:.4g} -> {d:.4g}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    base = {w: run_one(w, args.seed, args.seconds, 0) for w in workloads}
    for w, result in base.items():
        if not result["correct"]:
            failures.append(f"{w}: plain run not correct")
        setups = result["extra"]["ref_setup_s"]
        solves = result["extra"]["ref_solve_s"]
        first, second = setups[0] + solves[0], setups[1] + solves[1]
        ratio = max(first, second) / min(first, second)
        print(f"repeat {w}: iteration 1 {first:.3f} s, iteration 2 "
              f"{second:.3f} s, ratio {ratio:.2f}")
        if ratio > MAX_REPEAT_RATIO:
            failures.append(f"{w}: repeat ratio {ratio:.2f}")

    for layer, delay, predicted in INJECTIONS:
        for w in workloads:
            delayed = run_one(w, args.seed, args.seconds, 0, [(layer, delay)])
            got = flagged(base[w], delayed, e2e)
            verdict = "ok" if set(got) == predicted[w] else "MISMATCH"
            print(f"delay {layer} +{delay}s on {w}: flagged "
                  f"{got or '-'}, predicted "
                  f"{sorted(predicted[w]) or '-'}: {verdict}")
            if set(got) != predicted[w]:
                failures.append(f"{layer} on {w}: flagged {got}")

    names = [s["name"] for s in spec["per_layer"]]
    for w in workloads:
        traced = run_one(w, args.seed, args.seconds, 1)
        missing = [n for n in names if n not in traced["metrics"]]
        coverage = traced["metrics"].get("trace.coverage", 0.0)
        overhead = traced["metrics"].get("trace.overhead_s", float("nan"))
        print(f"trace {w}: coverage {coverage:.4f}, overhead {overhead:+.4f} s")
        if missing:
            failures.append(f"{w}: traced run lacks {missing}")
        if coverage < MIN_COVERAGE:
            failures.append(f"{w}: trace coverage {coverage:.3f}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
