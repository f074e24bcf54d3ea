"""Host-clock benchmark of the DiGraph reproduction: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload web-paths --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

The workload's input graphs are generated once per ``--seed`` and
cached as edge-list files under ``.perfbench/inputs/`` (sha256-verified
on every use; see ``inputs.py``); serve-mixed and stream-mixed keep
their graphs fixed and draw only their traffic from the seed. The measured run then happens in a
fresh child process (``worker.py``) with one worker thread, which
receives only those files. This script prints every metric by name with its unit,
the operations attempted and failed, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics of a separate traced run,
and writes a Chrome trace-event file and a self-time table per workload
under ``.perfbench/out/``.

Exits non-zero without a result when the program's sources (``src/repro``)
are not in the checkout, or when a run fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: Limit on one worker process.
CHILD_TIMEOUT_S = 120


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child_env():
    env = dict(os.environ)
    # One process, one worker: pin BLAS/OpenMP pools to a single thread.
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(workload, seed, seconds, trace, delays=()):
    """Generate/verify the inputs, run the child, return its result dict."""
    import inputs
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    paths, manifest = inputs.ensure_inputs(
        ROOT, wl.cache_name, seed, wl.graph_seeds(seed), wl.generate
    )
    for path, entry in zip(paths, manifest["files"]):
        print(
            f"[{workload}] input {path.relative_to(ROOT)}: "
            f"{entry['vertices']} vertices, {entry['edges']} edges, "
            f"sha256 {entry['sha256'][:16]}, "
            f"graph.generators {entry['generate_s']:.3f} s"
        )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    for path in paths:
        cmd += ["--input", str(path)]
    if not inputs.load_expected(ROOT, wl.cache_name, seed):
        verdict = _child(workload, cmd + ["--verify"])
        print(f"[{workload}] first run of seed {seed}: full checks "
              f"{'passed' if verdict['correct'] else 'FAILED'}")
    for layer, delay in delays:
        cmd += ["--delay", f"{layer}={delay}"]
    return _child(workload, cmd)


def _child(workload, cmd):
    """Run one worker process; echo its report lines; return its result."""
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    return json.loads(lines[-1])


def _print_metrics(workload, result, specs):
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"[{workload}] correct={result['correct']} attempted={attempted} "
        f"failed={failed} failed_ratio={failed / max(attempted, 1):.4f} "
        f"iterations={result['extra']['iterations']}"
    )
    for spec in specs:
        value = result["metrics"].get(spec["name"])
        if value is not None:
            print(f"[{workload}]   {spec['name']:<36} {value:>14.6g} {spec['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: program sources not found at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        try:
            result = run_one(workload, args.seed, seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_metrics(workload, result, specs)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
        if missing:
            print(f"error: {workload} did not report {missing}", file=sys.stderr)
            correct = False
        prefix = f"{workload}." if args.workload == "all" else ""
        for s in specs:
            if s["name"] in result["metrics"]:
                metrics[prefix + s["name"]] = {
                    "value": result["metrics"][s["name"]], "unit": s["unit"],
                }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
