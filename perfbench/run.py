"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload traffic-steady --seed 3 --seconds 25 --trace 0

``--trace 0`` repeats the workload's batch job, untraced, until
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced jobs (set-up included) and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every job
is checked by the workload's oracle; at the default seed its outputs must
also match ``pinned.json`` (regenerate with ``python3 perfbench/pin.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed whose outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 7
#: Fewest untraced jobs in a ``--trace 0`` run, whatever ``--seconds``
#: says; a ``--trace 1`` run makes at least one untraced and one traced.
MIN_JOBS = 2
#: Before each job the set-up repeats until it has taken ``SETUP_SLICE_S``
#: (at least once); ``setup_s`` is the median of all of them.  Spreading
#: the samples over the run keeps a set-up of a few milliseconds from
#: being measured in one brief fast or slow stretch of the host.
SETUP_SLICE_S = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import the program from ``src`` and the benchmark's own modules."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {source}")
    sys.path[:0] = [str(source), str(HERE)]
    import numpy

    import spans
    import workloads

    fingerprint = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    return spans, workloads, fingerprint


def normalized(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


class Oracle:
    """Counts checked and failed operations across the jobs of a run."""

    def __init__(self, pinned, seed: int) -> None:
        self.pinned = pinned if seed == DEFAULT_SEED else None
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, verdict, label: str, problem=None) -> None:
        """Account one job; ``problem`` (a trace finding) fails it whole."""
        failed = verdict.failed
        if verdict.failed:
            self.problems.append(f"{label}: {verdict.failed} operations failed")
        if problem:
            self.problems.append(f"{label}: {problem}")
            failed = verdict.attempted
        if self.first is None:
            self.first = verdict
        outputs = normalized(verdict.outputs)
        if self.pinned is not None and outputs != self.pinned:
            self.problems.append(f"{label}: outputs differ from pinned.json")
            failed = verdict.attempted
        if outputs != normalized(self.first.outputs):
            self.problems.append(f"{label}: outputs differ from the first job")
            failed = verdict.attempted
        if verdict.counts != self.first.counts:
            self.problems.append(f"{label}: counts differ from the first job")
            failed = verdict.attempted
        self.attempted += verdict.attempted
        self.failed += failed


def _untraced(args, workload, oracle):
    """End-to-end metrics: untraced jobs until the time budget is spent."""
    clock = time.perf_counter
    setup_s, rates, walls = [], [], []
    began = clock()
    while True:
        start = clock()
        sliced = 0.0
        while sliced < SETUP_SLICE_S:
            inputs = workload.setup(args.seed)
            setup_s.append(clock() - start - sliced)
            sliced = clock() - start
        job = workload.run(inputs)
        walls.append(clock() - start)
        oracle.check(workload.check(inputs, job.artifacts), f"job {len(walls)}")
        rates.append(job.ops / job.timed_s)
        elapsed = clock() - began
        if len(walls) >= MIN_JOBS and elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"job_wall_s": walls, "ops_per_s": rates, "setup_s": setup_s}
    return metrics, detail


def _traced(args, workload, oracle, spans, fingerprint):
    """Per-layer metrics: alternate untraced and traced jobs, set-up included."""
    from layers import PER_LAYER, count_problem, layer_values
    from workloads import SCRATCH

    clock = time.perf_counter
    plain_walls, traced_walls, samples = [], [], []
    tracer = None
    began = clock()
    while True:
        traced = len(traced_walls) < len(plain_walls)
        if traced:
            tracer = spans.Tracer()
            spans.install_layer_spans(tracer)
        try:
            start = clock()
            inputs = workload.setup(args.seed)
            job = workload.run(inputs)
            wall = clock() - start
        finally:
            if traced:
                tracer.uninstall()
        verdict = workload.check(inputs, job.artifacts)
        label = f"job {len(plain_walls) + len(traced_walls) + 1}"
        problem = None
        if traced:
            traced_walls.append(wall)
            try:
                values = layer_values(tracer.summary(wall), tracer, verdict)
            except ValueError as error:
                problem = str(error)
            else:
                first = samples[0] if samples else None
                problem = count_problem(values, verdict, first)
                samples.append(values)
        else:
            plain_walls.append(wall)
        oracle.check(verdict, label, problem)
        walls = plain_walls + traced_walls
        elapsed = clock() - began
        if (
            traced_walls
            and len(traced_walls) == len(plain_walls)
            and elapsed + 2 * statistics.median(walls) > args.seconds
        ):
            break
    metrics = {}
    for name, unit, _better in PER_LAYER:
        if name == "trace.overhead_fraction":
            ratio = statistics.median(traced_walls) / statistics.median(plain_walls)
            value = ratio - 1.0
        elif samples:
            value = statistics.fmean(sample[name] for sample in samples)
        else:
            value = 0.0
        metrics[name] = (value, unit)
    meta = {"workload": args.workload, "seed": args.seed, "fingerprint": fingerprint}
    tracer.write(SCRATCH / f"spans-{args.workload}.npz", meta)
    detail = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        spans, workloads, fingerprint = load_program()
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(sorted(workloads.WORKLOADS))
        print(f"error: unknown workload {args.workload!r} ({known})", file=sys.stderr)
        return 2
    try:
        pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]
    except (OSError, KeyError, ValueError) as error:
        print(f"error: no pinned outputs for {args.workload}: {error}", file=sys.stderr)
        return 2
    oracle = Oracle(pinned["outputs"], args.seed)
    if args.trace:
        metrics, detail = _traced(args, workload, oracle, spans, fingerprint)
    else:
        metrics, detail = _untraced(args, workload, oracle)
    for problem in oracle.problems:
        print(f"oracle: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "fingerprint": fingerprint}
    print(json.dumps({**record, **detail}))
    result = {
        "correct": oracle.failed == 0 and not oracle.problems,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
