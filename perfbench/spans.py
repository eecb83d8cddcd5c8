"""In-memory span tracing of the repro layers, installed from outside.

The program under test carries no timing code of its own (the vlint
determinism rules forbid clocks in most of ``src``), so the benchmark
records spans by swapping the public functions and methods of each layer
for thin wrappers and swapping them back afterwards.  A span is one call:
its name, its parent span, and its start and end on ``time.perf_counter``.
Counters (cache hits, bytes, kernel cycles, ...) are recorded at the same
boundaries by small probes that look at a call's arguments and result.

Self time is derived from the parent links: a span's duration minus the
durations of its direct children.  Summed over every span, self times
telescope to the total duration of the root spans, so self times plus an
explicit ``other`` bucket (time outside any span) must equal the traced
wall time; :meth:`Tracer.summary` checks that identity.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

__all__ = ["Tracer", "install_layer_spans"]

#: A probe sees a call's positional arguments before the call and returns
#: a callback that receives the result, or ``None`` to record nothing.
Probe = Callable[[tuple], Optional[Callable[[object], None]]]


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Spans and counters of one traced batch job, kept in memory."""

    def __init__(self) -> None:
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: list = []
        # id(wrapper) -> (wrapper, original); the wrapper is held so its id
        # cannot be reused by another object while the entry exists.
        self._wrapped: Dict[int, tuple] = {}
        self._class_patches: list = []

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        """``fn`` wrapped so each call into layer ``name`` records a span."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == name:
                # Already inside this layer: only entries from outside it
                # are spans, so the layer's self time is unchanged.
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            after = probe(args) if probe is not None else None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        self._wrapped[id(traced)] = (traced, fn)
        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call bumps counter ``name`` (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._wrapped[id(counted)] = (counted, fn)
        return counted

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- installation -----------------------------------------------------------

    def function(
        self, original: Callable, name: str, probe: Optional[Probe] = None
    ) -> None:
        """Trace ``original`` at every ``repro`` module attribute that *is* it.

        Call sites look a function up in their own module's namespace
        (``from x import f`` copies the reference), so the wrapper must
        replace each copy, not only the defining one.
        """
        wrapper = self._span(name, original, probe)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def call_site(self, module, attr: str, name: str) -> None:
        """Trace one module attribute only (one caller's view of a name)."""
        setattr(module, attr, self._span(name, getattr(module, attr)))

    def method(
        self, cls: type, attr: str, name: str, probe: Optional[Probe] = None
    ) -> None:
        """Trace ``cls.attr`` for every caller; classmethods stay classmethods."""
        self._replace(cls, attr, lambda fn: self._span(name, fn, probe))

    def count_calls(self, cls: type, attr: str, name: str) -> None:
        """Count calls of ``cls.attr`` under ``name`` without recording spans."""
        self._replace(cls, attr, lambda fn: self._counter(name, fn))

    def _replace(self, cls: type, attr: str, wrap: Callable) -> None:
        raw = cls.__dict__[attr]
        self._class_patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))

    def uninstall(self) -> None:
        """Put back every original the wrappers replaced."""
        for cls, attr, raw in reversed(self._class_patches):
            setattr(cls, attr, raw)
        self._class_patches.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._wrapped.clear()

    # -- accounting -------------------------------------------------------------

    def summary(self, wall_s: float) -> Dict[str, object]:
        """Per-name calls, self and inclusive seconds, and the ``other`` bucket.

        Raises ``ValueError`` if the spans do not nest (a negative self
        time) or if self times plus ``other`` miss the traced wall time.
        """
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[sid]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        inclusive_s: Dict[str, float] = defaultdict(float)
        roots_s = 0.0
        for sid, name in enumerate(names):
            own = durations[sid] - child[sid]
            if own < -1e-9:
                raise ValueError(f"span {name!r} is shorter than its children")
            calls[name] += 1
            self_s[name] += own
            inclusive_s[name] += durations[sid]
            if parents[sid] < 0:
                roots_s += durations[sid]
        other_s = wall_s - roots_s
        accounted = sum(self_s.values()) + other_s
        if other_s < -1e-6 or abs(accounted - wall_s) > 1e-6 * max(wall_s, 1.0):
            raise ValueError(
                f"self times ({accounted:.6f} s with other={other_s:.6f} s) "
                f"do not account for the traced wall time {wall_s:.6f} s"
            )
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive_s),
            "other_s": other_s,
            "wall_s": wall_s,
        }

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` that have an ``ancestor`` span above them."""
        inside = [False] * len(self.names)
        total = 0
        for sid, span_name in enumerate(self.names):
            parent = self.parents[sid]
            under = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            inside[sid] = under
            if under and span_name == name:
                total += 1
        return total

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        """Write the spans out (compressed arrays plus a name table)."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_table=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start_s=np.array(self.starts, dtype=np.float64) - origin,
            end_s=np.array(self.ends, dtype=np.float64) - origin,
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


# ---------------------------------------------------------------------------
# The layer map: which public callables become which spans
# ---------------------------------------------------------------------------

#: Codec stages traced where ``repro.codec.encoder``/``decoder`` look them
#: up.  Functions internal to a stage are not spans of their own.
CODEC_STAGES = (
    "motion",
    "transform",
    "quant",
    "predict",
    "entropy_coding",
    "deblock",
    "ratecontrol",
)

def _public_methods(cls: type):
    for attr, raw in list(cls.__dict__.items()):
        if attr.startswith("_") or isinstance(raw, (type, staticmethod, property)):
            continue
        if isinstance(raw, classmethod) or callable(raw):
            yield attr


def _codec_stage(value) -> Optional[str]:
    home = getattr(value, "__module__", None) or ""
    for stage in CODEC_STAGES:
        if home == f"repro.codec.{stage}" or home.startswith(f"repro.codec.{stage}."):
            return stage
    return None


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    # Import every module that holds a copy of a traced function, so the
    # identity patching in Tracer.function sees all of them.
    import repro.core.benchmark  # noqa: F401
    import repro.exec.runner  # noqa: F401
    from repro.codec import decoder, encoder
    from repro.core.harness import candidate_for_scenario
    from repro.core.reference import ReferenceStore
    from repro.core.selection import select_suite_videos
    from repro.encoders.hardware import HardwareTranscoder
    from repro.encoders.software import SoftwareTranscoder
    from repro.exec.cache import MemoizingTranscoder, TranscodeCache, cache_key
    from repro.metrics.psnr import psnr
    from repro.pipeline.farm import TranscodeFarm
    from repro.pipeline.scheduler import DeadlineScheduler
    from repro.predict.features import extract_features
    from repro.robust.clock import EventQueue
    from repro.simd.analysis import cycle_breakdown
    from repro.traffic.admission import AdmissionController
    from repro.traffic.arrivals import generate_arrivals
    from repro.traffic.autoscaler import QueueDepthAutoscaler
    from repro.traffic.fleet import FleetState
    from repro.traffic.simulator import TrafficSimulator
    from repro.traffic.slo import LatencySummary, PredictionStats
    from repro.video.synthesis import synthesize

    add = tracer.add

    # -- codec: the encoder and decoder entry points, then each stage ------

    def encode_probe(args):
        video = args[1]

        def after(result):
            add("codec.encoded_pixels", video.pixels)
            for kernel, cycles in cycle_breakdown(result.counters).items():
                add(f"codec.kernel.{kernel}.cycles", cycles)

        return after

    def decode_probe(args):
        return lambda result: add("codec.decoded_pixels", result.video.pixels)

    tracer.method(encoder.Encoder, "encode", "codec.encoder", encode_probe)
    tracer.method(decoder.Decoder, "decode", "codec.decoder", decode_probe)
    traced_classes = set()
    for site in (encoder, decoder):
        for attr, value in list(vars(site).items()):
            stage = _codec_stage(value)
            if stage is None:
                continue
            if not isinstance(value, type):
                if callable(value):
                    tracer.call_site(site, attr, f"codec.{stage}")
            elif value not in traced_classes:
                traced_classes.add(value)
                for method in _public_methods(value):
                    tracer.method(value, method, f"codec.{stage}")

    # -- quality metric, memo and disk cache, backends --------------------

    tracer.function(psnr, "metrics.psnr")
    tracer.function(cache_key, "exec.cache_key")

    def memo_probe(args):
        memo = args[0]
        hits, misses = memo.hits, memo.misses

        def after(result):
            add("exec.memo.hits", memo.hits - hits)
            add("exec.memo.misses", memo.misses - misses)

        return after

    tracer.method(MemoizingTranscoder, "transcode", "exec.memo", memo_probe)

    def cache_probe(args):
        stats = args[0].stats
        before = stats.copy()

        def after(result):
            delta = stats.since(before)
            for field in ("hits", "misses", "stores", "bytes_read", "bytes_written"):
                add(f"exec.cache.{field}", getattr(delta, field))

        return after

    tracer.method(TranscodeCache, "load", "exec.cache.load", cache_probe)
    tracer.method(TranscodeCache, "store", "exec.cache.store", cache_probe)
    for backend in (SoftwareTranscoder, HardwareTranscoder):
        tracer.method(backend, "transcode", "encoders.transcode")

    # -- farm, scheduler, predictor ----------------------------------------

    tracer.method(TranscodeFarm, "execute_job", "pipeline.farm.execute_job")
    tracer.method(DeadlineScheduler, "choose", "pipeline.scheduler.choose")
    tracer.function(extract_features, "predict.extract_features")

    # -- traffic layers -------------------------------------------------------

    def arrivals_probe(args):
        return lambda result: add("traffic.arrivals.count", len(result))

    tracer.function(generate_arrivals, "traffic.arrivals", arrivals_probe)
    tracer.method(AdmissionController, "decide", "traffic.admission.decide")
    tracer.method(QueueDepthAutoscaler, "evaluate", "traffic.autoscaler.evaluate")
    for method in _public_methods(FleetState):
        tracer.method(FleetState, method, "traffic.fleet")
    tracer.method(TrafficSimulator, "run", "traffic.simulator")
    tracer.count_calls(EventQueue, "pop", "traffic.simulator.events")
    for summary in (LatencySummary, PredictionStats):
        tracer.method(summary, "from_samples", "traffic.slo")

    # -- suite scoring and set-up -------------------------------------------

    tracer.function(candidate_for_scenario, "core.harness")
    tracer.method(ReferenceStore, "reference", "core.reference")
    tracer.function(select_suite_videos, "core.selection")
    tracer.function(synthesize, "video.synthesis")
