"""One measured run of one workload, in a process of its own.

``run.py`` starts this file as a child process, so every run gets a
fresh interpreter (no memo or cache survives from an earlier run) and
``peak_rss_mb`` is this process's own high-water mark. The child gets
only the input edge-list files and the seed.

Untraced (``--trace 0``): set-up and solve are repeated, each iteration
from the files, while another iteration fits in ``--seconds`` and until
at least :data:`MIN_ITERATIONS` are done. The first iteration is a warm-up,
checked but not timed. Each graph's set-up and each graph's solve is
timed on its own and reported in reference seconds (see
``hostspeed.py``): its wall time is scaled by the host-speed probes
taken just before and just after it. ``setup_s`` and ``solve_s`` sum,
over the graphs, each graph's median over the timed iterations; the
other end-to-end metrics are medians over the timed iterations.

Traced (``--trace 1``): half the time runs untraced and half with span
recorders installed; per-layer metrics are medians over the traced
iterations (wall seconds) and ``trace.overhead_s`` is the traced minus
the untraced median iteration time, in reference seconds.

Correctness checks run between iterations, outside the timed region. An
iteration whose results fail a check, or whose digests or modeled time
differ from the run's first iteration, is counted as failed and not
reported as a timing. The full checks (fixed point, serve lane
equivalence, streaming certification) run once per seed, in a separate
``--verify`` process, which records the verified result digests; every
measured iteration must reproduce them. Keeping the full checks out of
the measuring process keeps them out of its ``peak_rss_mb`` too.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Verifier  # noqa: E402

#: Leading iterations of a run that are checked but not timed: the
#: first call into each layer pays one-off costs (lazy imports, first
#: allocations) that a long-lived user of the library pays once.
WARMUP_ITERATIONS = 1
MIN_ITERATIONS = WARMUP_ITERATIONS + 3
MIN_TRACED_ITERATIONS = 2


@dataclass
class Timing:
    """One iteration's per-graph wall times and their reference versions."""

    setup_s: List[float]
    solve_s: List[float]
    ref_setup_s: List[float]
    ref_solve_s: List[float]

    @property
    def total_ref_s(self) -> float:
        return sum(self.ref_setup_s) + sum(self.ref_solve_s)


def _timed(span, name, step, probe_before: float):
    """Run ``step()`` inside span ``name``, then probe the host.

    Returns ``(result, wall seconds, reference seconds, probe after)``;
    the reference time scales the wall time by the mean of the probes
    just before and just after the step.
    """
    with span(name):
        started = time.perf_counter()
        out = step()
        wall = time.perf_counter() - started
    probe_after = hostspeed.probe()
    ref = wall * hostspeed.REFERENCE_S * 2 / (probe_before + probe_after)
    return out, wall, ref, probe_after


def _iterate(workload, paths, prepared, verifier, tracer):
    """Set up and then solve every graph, each step between two probes.

    Timing one graph at a time, rather than a whole phase, keeps each
    probe close to the work it corrects and gives more samples per run.
    The checks run afterwards, untimed.
    """
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    probe = hostspeed.probe()
    timing = Timing([], [], [], [])
    readies = []
    for path in paths:
        ready, wall, ref, probe = _timed(
            span, "bench.setup", lambda: workload.setup_one(path), probe
        )
        readies.append(ready)
        timing.setup_s.append(wall)
        timing.ref_setup_s.append(ref)
    results = []
    for ready, extra in zip(readies, prepared):
        result, wall, ref, probe = _timed(
            span, "bench.solve", lambda: workload.solve_one(ready, extra), probe
        )
        results.append(result)
        timing.solve_s.append(wall)
        timing.ref_solve_s.append(ref)
    checked = workload.check(readies, results, prepared, verifier)
    return timing, checked


def _measure(workload, paths, prepared, verifier, budget_s, minimum, first,
             delays, traced):
    """Iterations while another fits in ``budget_s``, at least ``minimum``.

    Returns (records, tracers).
    """
    records, tracers = [], []
    started = time.perf_counter()
    last_s = 0.0
    while (
        len(records) < minimum
        or time.perf_counter() - started + last_s <= budget_s
    ):
        began = time.perf_counter()
        tracer = tracing.Tracer() if traced else None
        patches = (
            tracing.instrument(tracer, delays) if traced or delays else None
        )
        try:
            timing, checked = _iterate(
                workload, paths, prepared, verifier, tracer
            )
        finally:
            if patches is not None:
                patches.restore()
        if first:
            ref = first[0]
            if checked.digests != ref.digests or checked.modeled_s != ref.modeled_s:
                checked.failed = checked.attempted
                checked.notes.append(
                    "iteration differs from the run's first iteration "
                    f"(modeled {checked.modeled_s!r} vs {ref.modeled_s!r})"
                )
        else:
            first.append(checked)
        records.append((timing, checked))
        tracers.append(tracer)
        last_s = time.perf_counter() - began
    return records, tracers


def _sum_of_medians(timings: List[Timing], attr: str) -> float:
    """Sum over the graphs of each graph's median time over iterations.

    Every graph's step is its own sample between two probes, so each
    median damps the host's noise over as many samples as there are
    timed iterations, and the sum adds graphs whose errors are
    independent.
    """
    columns = zip(*(getattr(t, attr) for t in timings))
    return sum(statistics.median(column) for column in columns)


def _peak_rss_mb() -> float:
    """This process image's resident high-water mark (``VmHWM``).

    Not ``getrusage``: Linux carries ``ru_maxrss`` across ``execve``, so
    a child would report at least its parent's size at the fork.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True, action="append")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--verify", action="store_true",
        help="run one iteration with the full checks and record its digests",
    )
    parser.add_argument(
        "--delay", action="append", default=[], metavar="LAYER=SECONDS",
        help="add a fixed delay to every call of a layer (self-test only)",
    )
    args = parser.parse_args(argv)
    delays = {}
    for item in args.delay:
        name, _, seconds = item.partition("=")
        delays[name] = float(seconds)

    workload = WORKLOADS[args.workload]
    paths = [Path(p) for p in args.input]
    prepared = workload.prepare(paths, args.seed)
    expected = inputs.load_expected(ROOT, workload.cache_name, args.seed)
    verifier = Verifier(expected)
    if args.verify:
        _, checked = _iterate(workload, paths, prepared, verifier, None)
        for note in checked.notes:
            print(f"check: {note}")
        if checked.failed == 0:
            inputs.save_expected(
                ROOT, workload.cache_name, args.seed, verifier.verified
            )
        print(json.dumps({
            "correct": checked.failed == 0,
            "attempted": checked.attempted,
            "failed": checked.failed,
        }))
        return 0
    first: list = []

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    records, _ = _measure(
        workload, paths, prepared, verifier, untraced_budget,
        MIN_TRACED_ITERATIONS if args.trace else MIN_ITERATIONS,
        first, delays, traced=False,
    )
    traced_records, tracers = [], []
    if args.trace:
        traced_records, tracers = _measure(
            workload, paths, prepared, verifier, args.seconds / 2,
            MIN_TRACED_ITERATIONS, first, delays, traced=True,
        )

    all_records = records + traced_records
    attempted = sum(c.attempted for _, c in all_records)
    failed = sum(c.failed for _, c in all_records)
    for _, checked in all_records:
        for note in checked.notes:
            print(f"check: {note}")

    good = [(t, c) for t, c in records[WARMUP_ITERATIONS:] if c.failed == 0]
    timings = [t for t, _ in good]
    metrics = {}
    extra = {
        "iterations": len(records),
        "traced_iterations": len(traced_records),
        "wall_setup_s": [round(sum(t.setup_s), 6) for t, _ in records],
        "wall_solve_s": [round(sum(t.solve_s), 6) for t, _ in records],
        "ref_setup_s": [round(sum(t.ref_setup_s), 6) for t, _ in records],
        "ref_solve_s": [round(sum(t.ref_solve_s), 6) for t, _ in records],
    }
    if not args.trace and good:
        median = statistics.median
        solve_s = _sum_of_medians(timings, "ref_solve_s")
        metrics = {
            "setup_s": _sum_of_medians(timings, "ref_setup_s"),
            "solve_s": solve_s,
            "host_qps": median(c.answered for _, c in good) / solve_s,
            "peak_rss_mb": _peak_rss_mb(),
            "modeled_s": median(c.modeled_s for _, c in good),
        }
        print(
            f"wall: setup {_sum_of_medians(timings, 'setup_s'):.4f} s, "
            f"solve {_sum_of_medians(timings, 'solve_s'):.4f} s over "
            f"{len(good)} timed iterations (setup_s and solve_s are in "
            f"reference seconds)"
        )
    elif args.trace and good and traced_records:
        per_iteration = [tracing.layer_metrics(t) for t in tracers]
        metrics = {
            key: statistics.median(m[key] for m in per_iteration)
            for key in per_iteration[0]
        }
        metrics["trace.overhead_s"] = statistics.median(
            t.total_ref_s for t, _ in traced_records
        ) - statistics.median(t.total_ref_s for t in timings)
        out_dir = ROOT / inputs.CACHE_DIR / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"{workload.name}-seed{args.seed}"
        tracing.write_chrome_trace(tracers[-1], f"{stem}.trace.json")
        table = tracing.self_time_table(tracers[-1])
        Path(f"{stem}.selftime.txt").write_text(table + "\n")
        print(table)
        print(f"chrome trace: {stem}.trace.json")
        extra["traced_ref_s"] = [
            round(t.total_ref_s, 6) for t, _ in traced_records
        ]
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
