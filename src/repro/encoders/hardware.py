"""Hardware transcoder models: NVENC-class and QSV-class fixed-function
encoders.

Section 5.3 of the paper: hardware encoders are fast because they pipeline
the whole algorithm in silicon, but they "need to be selective about which
compression tools to implement" -- so they trade bitrate for speed.  The
models here reproduce both halves of that trade honestly:

* **Toolset**: the codec runs with the restricted configuration real
  fixed-function encoders ship (short motion search, no sub-pel
  refinement beyond one step, VLC entropy coding, no RDOQ, aggressive
  early-skip).  The bitrate penalty versus the software references is an
  *output* of the codec, not an assumption.

* **Speed**: an analytic pipeline model.  Each frame costs a fixed
  overhead (driver, DMA transfer, pipeline fill) plus pixels divided by
  the engine throughput.  The fixed term is scaled by
  ``actual_pixels / nominal_pixels`` so that a reduced-scale stand-in
  clip amortizes its overhead exactly the way its full-size original
  would -- this is what preserves the paper's "speedups grow with
  resolution" trend (Table 3) at simulation scale.

Both GPUs expose no two-pass mode (real NVENC/QSV rate control is single
pass); requesting ``two_pass`` raises, mirroring the driver.
"""

from __future__ import annotations

import time

from repro.codec.encoder import encode
from repro.codec.presets import EncoderConfig
from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.metrics.psnr import psnr
from repro.video.video import Video

__all__ = ["HardwareTranscoder", "NvencTranscoder", "QsvTranscoder"]

#: The fixed-function toolset: what survives the silicon-area budget.
_HW_CONFIG = EncoderConfig(
    search_method="log",
    search_range=8,       # short search: silicon area scales with range
    subpel_depth=0,       # sub-pel interpolators cost area for little gain
    me_iterations=1,
    entropy_coder="cavlc",
    transform_size=8,
    rdoq=False,
    deblock=True,
    early_skip=True,
    skip_bias=3.0,        # aggressive early-out keeps the pipeline full
)


class HardwareTranscoder(Transcoder):
    """A fixed-function encoder: restricted tools + pipeline speed model.

    Args:
        name: Report name (e.g. ``"nvenc"``).
        frame_overhead_s: Per-frame fixed cost at full (nominal) scale --
            driver submission, DMA, pipeline fill.
        pixel_throughput: Engine throughput in pixels/second.
        config: Toolset override (defaults to the fixed-function set).
    """

    def __init__(
        self,
        name: str,
        frame_overhead_s: float,
        pixel_throughput: float,
        config: EncoderConfig = _HW_CONFIG,
    ) -> None:
        if frame_overhead_s < 0:
            raise ValueError(f"frame overhead must be >= 0, got {frame_overhead_s}")
        if pixel_throughput <= 0:
            raise ValueError(
                f"pixel throughput must be positive, got {pixel_throughput}"
            )
        self.name = name
        self.frame_overhead_s = frame_overhead_s
        self.pixel_throughput = pixel_throughput
        self.config = config

    def modeled_seconds(self, video: Video) -> float:
        """Pipeline-model transcode time for ``video``.

        ``overhead * actual/nominal`` keeps the overhead:work ratio of the
        full-size original (see module docstring).
        """
        scale = video.frame_pixels / video.nominal_pixels
        per_frame = self.frame_overhead_s * scale + (
            video.frame_pixels / self.pixel_throughput
        )
        return len(video) * per_frame

    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        start = time.perf_counter()
        if rate.two_pass:
            raise ValueError(
                f"{self.name} is a fixed-function encoder: no two-pass mode"
            )
        if rate.kind == "crf":
            result = encode(video, config=self.config, crf=rate.crf)
        else:
            result = encode(video, config=self.config, bitrate_bps=rate.bitrate_bps)
        return TranscodeResult(
            source=video,
            output=result.recon,
            compressed_bytes=len(result.bitstream),
            seconds=self.modeled_seconds(video),
            wall_seconds=time.perf_counter() - start,
            counters=result.counters,
            backend=self.name,
            quality_db=psnr(video, result.recon),
        )


class NvencTranscoder(HardwareTranscoder):
    """NVIDIA NVENC-class model (GTX 1060 generation, highest-effort mode)."""

    def __init__(self) -> None:
        super().__init__(
            "nvenc", frame_overhead_s=4.2e-3, pixel_throughput=320e6
        )


class QsvTranscoder(HardwareTranscoder):
    """Intel Quick Sync Video-class model (Skylake generation).

    The paper found QSV generally faster than NVENC at comparable bitrate
    ratios (Table 3); the model gives it lower overhead and higher
    throughput.
    """

    def __init__(self) -> None:
        super().__init__(
            "qsv", frame_overhead_s=3.2e-3, pixel_throughput=400e6
        )
