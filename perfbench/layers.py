"""The per-layer metrics of a traced job, derived from its spans and counts.

Times are self times (a span minus its child spans) summed over the job,
except the two codec throughputs, which use the encoder's and decoder's
inclusive time.  Every metric is reported on every workload; a layer the
workload does not reach reads 0.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.codec.instrumentation import KERNELS
from repro.simd.analysis import REFERENCE_FREQ_HZ

from spans import CODEC_STAGES

__all__ = ["DETERMINISTIC", "PER_LAYER", "count_problem", "layer_values"]


def _calls_and_self(prefix: str):
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.s", "s", "lower")]


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    _calls_and_self("codec.encoder")
    + _calls_and_self("codec.decoder")
    + [
        ("codec.encode_mpixel_s", "Mpixel/s", "higher"),
        ("codec.decode_mpixel_s", "Mpixel/s", "higher"),
    ]
    + [m for stage in CODEC_STAGES for m in _calls_and_self(f"codec.{stage}")]
    + [("codec.modeled_s", "s", "lower")]
    + [(f"codec.kernel.{kernel}.mcycles", "Mcycles", "lower") for kernel in KERNELS]
    + _calls_and_self("metrics.psnr")
    + [
        ("exec.memo.hits", "count", "higher"),
        ("exec.memo.misses", "count", "lower"),
        ("exec.memo.hit_ratio", "ratio", "higher"),
        ("exec.memo.s", "s", "lower"),
    ]
    + _calls_and_self("exec.cache_key")
    + [
        ("exec.cache.hits", "count", "higher"),
        ("exec.cache.misses", "count", "lower"),
        ("exec.cache.stores", "count", "lower"),
        ("exec.cache.bytes_read", "B", "lower"),
        ("exec.cache.bytes_written", "B", "lower"),
        ("exec.cache.load_s", "s", "lower"),
        ("exec.cache.store_s", "s", "lower"),
    ]
    + _calls_and_self("encoders.transcode")
    + _calls_and_self("pipeline.farm.execute_job")
    + [("pipeline.farm.attempts_per_job", "ratio", "lower")]
    + _calls_and_self("pipeline.scheduler.choose")
    + _calls_and_self("predict.extract_features")
    + [
        ("traffic.arrivals.count", "count", "higher"),
        ("traffic.arrivals.s", "s", "lower"),
    ]
    + _calls_and_self("traffic.admission.decide")
    + _calls_and_self("traffic.autoscaler.evaluate")
    + _calls_and_self("traffic.fleet")
    + [
        ("traffic.simulator.events", "count", "lower"),
        ("traffic.simulator.self_s", "s", "lower"),
        ("traffic.simulator.us_per_event", "us", "lower"),
        ("traffic.slo.report_s", "s", "lower"),
    ]
    + _calls_and_self("core.harness")
    + [("core.harness.probes_per_video", "ratio", "lower")]
    + _calls_and_self("core.reference")
    + [
        ("core.selection.s", "s", "lower"),
        ("video.synthesis.s", "s", "lower"),
        ("trace.other_s", "s", "lower"),
        ("trace.overhead_fraction", "ratio", "lower"),
    ]
)

#: Per-layer values that are counts of work, not times: equal in every
#: traced job of a run.  Cache bytes are left out because each disk
#: entry records the wall time of its encode, whose printed length varies.
DETERMINISTIC = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "Mcycles", "ratio")
    and name != "trace.overhead_fraction"
) + ("codec.modeled_s",)

#: Span names whose self time and calls are reported under ``<span>.s``
#: and ``<span>.calls``.
_SPANS = (
    ["codec.encoder", "codec.decoder"]
    + [f"codec.{stage}" for stage in CODEC_STAGES]
    + [
        "metrics.psnr",
        "exec.cache_key",
        "encoders.transcode",
        "pipeline.farm.execute_job",
        "pipeline.scheduler.choose",
        "predict.extract_features",
        "traffic.admission.decide",
        "traffic.autoscaler.evaluate",
        "traffic.fleet",
        "core.harness",
        "core.reference",
    ]
)


def layer_values(summary, tracer, verdict) -> Dict[str, float]:
    """Every per-layer metric of one traced job (tracing overhead aside)."""
    calls, self_s = summary["calls"], summary["self_s"]
    inclusive = summary["inclusive_s"]
    counts = tracer.counts
    values: Dict[str, float] = {}
    for name in _SPANS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.s"] = self_s.get(name, 0.0)

    def rate(pixels: str, span: str) -> float:
        seconds = inclusive.get(span, 0.0)
        return counts.get(pixels, 0.0) / 1e6 / seconds if seconds else 0.0

    values["codec.encode_mpixel_s"] = rate("codec.encoded_pixels", "codec.encoder")
    values["codec.decode_mpixel_s"] = rate("codec.decoded_pixels", "codec.decoder")
    cycles = 0.0
    for kernel in KERNELS:
        kernel_cycles = counts.get(f"codec.kernel.{kernel}.cycles", 0.0)
        values[f"codec.kernel.{kernel}.mcycles"] = kernel_cycles / 1e6
        cycles += kernel_cycles
    values["codec.modeled_s"] = cycles / REFERENCE_FREQ_HZ

    hits = counts.get("exec.memo.hits", 0.0)
    misses = counts.get("exec.memo.misses", 0.0)
    values["exec.memo.hits"] = hits
    values["exec.memo.misses"] = misses
    values["exec.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["exec.memo.s"] = self_s.get("exec.memo", 0.0)
    for field in ("hits", "misses", "stores", "bytes_read", "bytes_written"):
        values[f"exec.cache.{field}"] = counts.get(f"exec.cache.{field}", 0.0)
    values["exec.cache.load_s"] = self_s.get("exec.cache.load", 0.0)
    values["exec.cache.store_s"] = self_s.get("exec.cache.store", 0.0)
    farm_jobs = verdict.counts.get("farm_jobs", 0)
    values["pipeline.farm.attempts_per_job"] = (
        verdict.counts["farm_attempts"] / farm_jobs if farm_jobs else 0.0
    )

    values["traffic.arrivals.count"] = counts.get("traffic.arrivals.count", 0.0)
    values["traffic.arrivals.s"] = self_s.get("traffic.arrivals", 0.0)
    events = counts.get("traffic.simulator.events", 0.0)
    simulator_s = self_s.get("traffic.simulator", 0.0)
    values["traffic.simulator.events"] = events
    values["traffic.simulator.self_s"] = simulator_s
    values["traffic.simulator.us_per_event"] = (
        simulator_s / events * 1e6 if events else 0.0
    )
    values["traffic.slo.report_s"] = self_s.get("traffic.slo", 0.0)

    harness_calls = calls.get("core.harness", 0)
    probes = tracer.count_under("exec.cache.load", "core.harness")
    values["core.harness.probes_per_video"] = (
        probes / harness_calls if harness_calls else 0.0
    )
    values["core.selection.s"] = self_s.get("core.selection", 0.0)
    values["video.synthesis.s"] = self_s.get("video.synthesis", 0.0)
    values["trace.other_s"] = summary["other_s"]
    return values


#: Counts the tracer observes that the program also reports itself in the
#: verdict (``Verdict.counts``); the two must agree.
_REPORTED = (
    ("exec.memo.hits", ("memo_hits",)),
    ("exec.memo.misses", ("memo_misses",)),
    ("traffic.arrivals.count", ("arrived",)),
    ("exec.cache.hits", ("prime.hits", "score.hits")),
    ("exec.cache.misses", ("prime.misses", "score.misses")),
    ("exec.cache.stores", ("prime.stores", "score.stores")),
)


def count_problem(
    values: Dict[str, float], verdict, first: Optional[Dict[str, float]]
) -> Optional[str]:
    """Why this traced job's counts are inconsistent, or ``None``.

    The tracer's counts must match what the program reports about itself;
    every real encode behind a backend is one miss of the layer in front
    of it (the disk cache where the workload uses one, else the memo); and
    a rerun of the same job must repeat every count exactly.
    """
    for name, reported in _REPORTED:
        if all(key in verdict.counts for key in reported):
            expected = sum(verdict.counts[key] for key in reported)
            if values[name] != expected:
                return f"traced {name}={values[name]}, program reports {expected}"
    cache_lookups = values["exec.cache.hits"] + values["exec.cache.misses"]
    misses = values["exec.cache.misses" if cache_lookups else "exec.memo.misses"]
    if values["encoders.transcode.calls"] != misses:
        return (
            f"encoders.transcode.calls={values['encoders.transcode.calls']} "
            f"but the cache/memo missed {misses} times"
        )
    if first is not None:
        for name in DETERMINISTIC:
            if values[name] != first[name]:
                return f"{name} differs between traced jobs"
    return None
