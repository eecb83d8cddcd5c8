"""A raw video: an ordered sequence of frames plus timing metadata.

``Video`` is the unit every transcoder in :mod:`repro.encoders` consumes and
produces, and the unit all of the paper's normalized metrics are defined
over: bitrate in bits/pixel/second and speed in pixels/second both divide by
``Video.pixels`` (Section 2.3).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.video.frame import Frame

__all__ = ["Video"]


class Video:
    """An immutable sequence of equally sized YUV 4:2:0 frames.

    Args:
        frames: The pictures, in display order.  All must share a resolution.
        fps: Frames per second; must be positive.
        name: Optional human-readable label (e.g. the vbench video name).
        nominal_resolution: The resolution this clip *stands for*.  The
            benchmark synthesizes stand-in clips at a reduced scale so a
            pure-Python codec stays tractable; ``nominal_resolution`` records
            the category resolution (e.g. 1920x1080) the clip represents.
            Defaults to the actual frame resolution.
    """

    def __init__(
        self,
        frames: Iterable[Frame],
        fps: float,
        name: str = "",
        nominal_resolution: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._frames: List[Frame] = list(frames)
        if not self._frames:
            raise ValueError("a video needs at least one frame")
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        first = self._frames[0].resolution
        for i, frame in enumerate(self._frames):
            if frame.resolution != first:
                raise ValueError(
                    f"frame {i} has resolution {frame.resolution}, expected {first}"
                )
        self._fps = float(fps)
        self._name = name
        self._nominal = nominal_resolution or first

    # -- basic properties ----------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable label; relabel with :meth:`with_name`."""
        return self._name

    @property
    def fps(self) -> float:
        """Frames per second."""
        return self._fps

    @property
    def frames(self) -> List[Frame]:
        """The frames, in display order (the list itself is a copy)."""
        return list(self._frames)

    @property
    def width(self) -> int:
        return self._frames[0].width

    @property
    def height(self) -> int:
        return self._frames[0].height

    @property
    def resolution(self) -> Tuple[int, int]:
        """Actual ``(width, height)`` of the stored frames."""
        return self._frames[0].resolution

    @property
    def nominal_resolution(self) -> Tuple[int, int]:
        """The resolution this clip represents in its corpus category."""
        return self._nominal

    @property
    def nominal_pixels(self) -> int:
        """Pixels per frame at the nominal resolution."""
        return self._nominal[0] * self._nominal[1]

    @property
    def frame_pixels(self) -> int:
        """Luma pixels per stored frame."""
        return self._frames[0].pixels

    @property
    def pixels(self) -> int:
        """Total luma pixels across all stored frames."""
        return self.frame_pixels * len(self._frames)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self._frames) / self._fps

    @property
    def pixel_rate(self) -> float:
        """Pixels per second of playback (frame_pixels * fps)."""
        return self.frame_pixels * self._fps

    @property
    def nominal_pixel_rate(self) -> float:
        """Pixels per second at the nominal resolution."""
        return self.nominal_pixels * self._fps

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sub = self._frames[index]
            if not sub:
                raise ValueError("slice would produce an empty video")
            return Video(sub, self._fps, self.name, self._nominal)
        return self._frames[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Video):
            return NotImplemented
        return (
            self._fps == other._fps
            and len(self) == len(other)
            and all(a == b for a, b in zip(self._frames, other._frames))
        )

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 of the pixels and identity metadata, computed once.

        The video part of :func:`repro.exec.cache.cache_key`: changing what
        it hashes invalidates every persisted cache entry.  Safe to keep
        per instance because nothing it covers can change -- the frame
        list is private, frame planes are read-only, and the metadata has
        no setters.
        """
        digest = hashlib.sha256(
            f"{self.width}x{self.height}@{self._fps!r}x{len(self)}"
            f"|{self._name}|{self._nominal}".encode("utf-8")
        )
        for frame in self._frames:
            digest.update(frame.y.tobytes())
            digest.update(frame.u.tobytes())
            digest.update(frame.v.tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Video({self.width}x{self.height} @ {self._fps:g}fps, "
            f"{len(self._frames)} frames{label})"
        )

    # -- derived videos ---------------------------------------------------------

    def with_name(self, name: str) -> "Video":
        """Return the same video relabelled."""
        return Video(self._frames, self._fps, name, self._nominal)

    def with_nominal_resolution(self, width: int, height: int) -> "Video":
        """Return the same video representing a different nominal resolution."""
        return Video(self._frames, self._fps, self.name, (width, height))

    def chunk(self, seconds: float) -> List["Video"]:
        """Split into non-overlapping chunks of at most ``seconds`` each.

        vbench videos are 5-second chunks of full uploads; the selection
        pipeline picks the chunk whose bitrate best matches the whole video
        (Section 4.1).
        """
        if seconds <= 0:
            raise ValueError(f"chunk length must be positive, got {seconds}")
        per_chunk = max(1, int(round(seconds * self._fps)))
        chunks = []
        for start in range(0, len(self._frames), per_chunk):
            frames = self._frames[start : start + per_chunk]
            chunks.append(Video(frames, self._fps, self.name, self._nominal))
        return chunks

    def mean_luma(self) -> float:
        """Average luma value across all frames (a cheap content statistic)."""
        return float(np.mean([frame.y.mean() for frame in self._frames]))

    def motion_profile(self) -> np.ndarray:
        """Per-transition mean absolute luma difference.

        A length ``len(self) - 1`` array; high values indicate motion or
        scene cuts.  Useful for content characterization and for tests that
        assert the synthesizers produce the advertised motion classes.
        """
        if len(self._frames) < 2:
            return np.zeros(0)
        return np.array(
            [
                self._frames[i].mean_abs_diff(self._frames[i + 1])
                for i in range(len(self._frames) - 1)
            ]
        )
