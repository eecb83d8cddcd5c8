"""The benchmark's four batch workloads.

Each workload builds its inputs from the benchmark seed (``setup``), runs
one batch job through the public ``repro`` API (``run``), and then checks
the job's outputs with an oracle that holds at every seed (``check``).
``run`` times only the calls into the program; ``check`` runs after the
timed and traced part, so the oracle's own calls are never spans.  Why
each workload exists is written down in README.md.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro import Scenario, run_scenario, vbench_suite
from repro.codec import Decoder, encode
from repro.core.benchmark import BenchmarkSuite
from repro.corpus.synthetic import SyntheticCorpus
from repro.exec.cache import (
    CacheStats,
    MemoizingTranscoder,
    TranscodeCache,
    video_digest,
)
from repro.exec.runner import prime_references
from repro.metrics.psnr import psnr
from repro.simd.analysis import cycle_breakdown
from repro.traffic import (
    RECOVERY_POLICY,
    ArrivalConfig,
    TrafficConfig,
    TrafficSimulator,
    resolve_profile,
)
from repro.video.synthesis import synthesize

__all__ = ["Job", "SCRATCH", "Verdict", "WORKLOADS"]

#: Scratch space inside the checkout (the disk cache of score-cached and
#: the written-out spans); ignored by git.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass
class Job:
    """One timed batch job: its work items and what it produced.

    Attributes:
        ops: Work items completed; the numerator of ``ops_per_s``.
        timed_s: Host seconds of the calls into the program.
        artifacts: The program's outputs, handed to the workload's
            ``check`` after the timed (and traced) part is over.
    """

    ops: float
    timed_s: float
    artifacts: object


@dataclass
class Verdict:
    """The oracle's findings on one job.

    Attributes:
        attempted: Operations whose output the oracle checked.
        failed: Operations whose output failed the oracle.
        outputs: Seed-pinned outputs (bitstream digests, PSNR, modeled
            kernel cycles, SLO digests, score rows).  Equal in every job
            of a run; equal to ``pinned.json`` at the default seed.
        counts: Deterministic counts (hits, misses, stores, ...).  Equal
            in every job of a run, traced or not.
    """

    attempted: int
    failed: int
    outputs: Dict[str, object] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# codec-matrix
# ---------------------------------------------------------------------------


class CodecMatrix:
    """Every preset x content cell, encoded then decoded.

    One op is one source megapixel through encode and decode, so
    ``ops_per_s`` is the round-trip Mpixel/s of the codec.
    """

    name = "codec-matrix"
    presets = ("ultrafast", "medium", "placebo")
    contents = ("slideshow", "natural", "sports")
    width, height, frames, fps, crf = 192, 128, 12, 24.0, 28

    def setup(self, seed: int):
        return [
            synthesize(
                content, self.width, self.height, self.frames, self.fps,
                seed=seed * 1000 + i, name=content,
            )
            for i, content in enumerate(self.contents)
        ]

    def run(self, clips) -> Job:
        timed = 0.0
        cells = []
        clock = time.perf_counter
        for preset in self.presets:
            for clip in clips:
                start = clock()
                encoded = encode(clip, config=preset, crf=self.crf)
                decoded = Decoder().decode(encoded.bitstream, name=clip.name)
                timed += clock() - start
                cells.append((preset, clip, encoded, decoded))
        ops = sum(c.pixels for c in clips) * len(self.presets) / 1e6
        return Job(ops=ops, timed_s=timed, artifacts=cells)

    def check(self, clips, cells) -> Verdict:
        failed = 0
        outputs: Dict[str, object] = {}
        for preset, clip, encoded, decoded in cells:
            bit_exact = (
                decoded.frames_concealed == 0
                and len(decoded.video) == len(encoded.recon)
                and all(a == b for a, b in zip(decoded.video, encoded.recon))
            )
            failed += not bit_exact
            outputs[f"{preset}/{clip.name}"] = {
                "sha256": hashlib.sha256(encoded.bitstream).hexdigest(),
                "psnr_db": round(psnr(clip, encoded.recon), 6),
                "kernel_cycles": cycle_breakdown(encoded.counters),
            }
        return Verdict(attempted=len(cells), failed=failed, outputs=outputs)


# ---------------------------------------------------------------------------
# traffic-steady / traffic-chaos
# ---------------------------------------------------------------------------


def _memo_layers(farm) -> List[MemoizingTranscoder]:
    memos = []
    for backend in farm.pool.values():
        while backend is not None and not isinstance(backend, MemoizingTranscoder):
            backend = getattr(backend, "inner", None)
        if backend is not None:
            memos.append(backend)
    return memos


class Traffic:
    """One traffic simulation over a long horizon; one op is one arrival."""

    def __init__(self, name: str, chaos: bool, horizon_s: float) -> None:
        self.name = name
        self.chaos = chaos
        self.horizon_s = horizon_s

    def setup(self, seed: int) -> TrafficSimulator:
        arrivals = ArrivalConfig(duration_s=self.horizon_s)
        if self.chaos:
            config = TrafficConfig(
                arrivals=arrivals,
                fleet=resolve_profile("full", seed),
                recovery=RECOVERY_POLICY,
                use_predictor=True,
                chaos_profile="full",
            )
        else:
            config = TrafficConfig(arrivals=arrivals)
        return TrafficSimulator(config=config, seed=seed)

    def run(self, sim: TrafficSimulator) -> Job:
        start = time.perf_counter()
        report = sim.run()
        timed = time.perf_counter() - start
        return Job(ops=report.arrived, timed_s=timed, artifacts=report)

    def check(self, sim: TrafficSimulator, report) -> Verdict:
        failed = 0
        for stats in report.scenarios.values():
            terminal = (
                stats.completed + stats.shed + stats.timed_out + stats.dead_lettered
            )
            if terminal != stats.arrived:
                failed += stats.arrived
        memos = _memo_layers(sim.farm)
        farm_report = sim.farm.report
        counts = {
            "arrived": report.arrived,
            "memo_hits": sum(m.hits for m in memos),
            "memo_misses": sum(m.misses for m in memos),
            "farm_jobs": farm_report.jobs_total,
            "farm_attempts": farm_report.attempts,
        }
        return Verdict(
            attempted=report.arrived,
            failed=failed,
            outputs={"slo_digest": report.digest()},
            counts=counts,
        )


# ---------------------------------------------------------------------------
# score-cached
# ---------------------------------------------------------------------------


def _stats_sum(reports) -> CacheStats:
    total = CacheStats()
    for report in reports:
        total.merge(report.cache)
    return total


def _same_result(a, b) -> bool:
    return (
        a.compressed_bytes == b.compressed_bytes
        and a.seconds == b.seconds
        and video_digest(a.output) == video_digest(b.output)
    )


class ScoreCached:
    """Prime references into a fresh disk cache, then score a candidate.

    One op is one suite-video x scenario result.  The corpus is the
    repository's default synthetic corpus; the seed drives selection and
    clip rendering, so every seed yields the same suite geometry.
    """

    name = "score-cached"
    k = 3
    profile = "tiny"
    backend = "x264:ultrafast"
    scenarios = (Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD)

    def setup(self, seed: int) -> BenchmarkSuite:
        return vbench_suite(
            profile=self.profile, k=self.k, seed=seed, corpus=SyntheticCorpus()
        )

    def run(self, suite: BenchmarkSuite) -> Job:
        root = SCRATCH / "cache"
        shutil.rmtree(root, ignore_errors=True)
        cache = TranscodeCache(root)
        # Two fresh suite objects around the same selection, as
        # vbench_suite() hands out: each has its own empty ReferenceStore.
        primed, scoring = (
            BenchmarkSuite(videos=suite.videos, profile=suite.profile, seed=suite.seed)
            for _ in range(2)
        )
        try:
            start = time.perf_counter()
            prime = prime_references(primed, list(self.scenarios), cache=cache)
            timed = time.perf_counter() - start
            primed_entries = {p.name for p in root.glob("*/*.vbt")}
            start = time.perf_counter()
            reports = [
                run_scenario(scoring, scenario, self.backend, cache=cache)
                for scenario in self.scenarios
            ]
            timed += time.perf_counter() - start
            new_entries = {p.name for p in root.glob("*/*.vbt")} - primed_entries
        finally:
            shutil.rmtree(root, ignore_errors=True)
        ops = len(suite.videos) * len(self.scenarios)
        return Job(
            ops=ops,
            timed_s=timed,
            artifacts=(primed, prime, reports, primed_entries, new_entries),
        )

    def check(self, suite: BenchmarkSuite, artifacts) -> Verdict:
        primed, prime, reports, primed_entries, new_entries = artifacts
        score = _stats_sum(reports)
        # Every primed reference must come back from disk: no evictions
        # (no corrupt entry), no primed entry re-encoded and rewritten, and
        # at least one hit per primed entry.
        readback = (
            prime.evictions == 0
            and score.evictions == 0
            and score.stores == len(new_entries)
            and score.hits >= len(primed_entries)
        )
        failed = 0
        for report in reports:
            for entry, reference in zip(suite.videos, report.references):
                expected = primed.references.reference(entry.video, report.scenario)
                if not readback or not _same_result(reference, expected.result):
                    failed += 1
        counts = {}
        for label, stats in (("prime", prime), ("score", score)):
            for name in ("hits", "misses", "stores", "evictions"):
                counts[f"{label}.{name}"] = getattr(stats, name)
        return Verdict(
            attempted=len(suite.videos) * len(self.scenarios),
            failed=failed,
            outputs={r.scenario.value: r.to_table().splitlines() for r in reports},
            counts=counts,
        )


WORKLOADS = {
    w.name: w
    for w in (
        CodecMatrix(),
        Traffic("traffic-steady", chaos=False, horizon_s=12_000.0),
        Traffic("traffic-chaos", chaos=True, horizon_s=7_000.0),
        ScoreCached(),
    )
}
