"""Stream front end: primary band-pass filter, frame shaper, channel adaptation.

The shaper cuts each channel's sample stream into overlapping frames of
``frame_size`` samples.  Frame ``n`` starts at ``n * frame_size /
overlap_factor`` and spans ``frame_size`` samples, so ``overlap_factor=1``
tiles the stream and larger factors slide the window in fractional steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from . import SAMPLE_RATE_HZ, NYQUIST_HZ
from .errors import ConfigurationError


@dataclass
class IntensityStream:
    """Channel-major sample matrix in ADC digital levels (DL)."""

    samples: np.ndarray  # (channels, n_samples) float64, at SAMPLE_RATE_HZ

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_count(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class FrameShaperConfig:
    frame_size: int = 2048   # ~1.23 s at 1666 Hz
    overlap_factor: int = 2

    def __post_init__(self):
        if self.frame_size <= 0:
            raise ConfigurationError("frame_size must be positive")
        if self.overlap_factor not in range(1, 9):
            raise ConfigurationError("overlap_factor must be an integer in 1..8")
        if self.frame_size % self.overlap_factor != 0:
            raise ConfigurationError("frame_size must be divisible by overlap_factor")

    @property
    def step(self) -> int:
        return self.frame_size // self.overlap_factor


def frame_bounds(n: int, cfg: FrameShaperConfig) -> tuple[int, int]:
    """First and last sample index covered by frame ``n``."""
    k_b = n * cfg.step
    return k_b, k_b + cfg.frame_size - 1


def frame_count(n_samples: int, cfg: FrameShaperConfig) -> int:
    if n_samples < cfg.frame_size:
        return 0
    return (n_samples - cfg.frame_size) // cfg.step + 1


def primary_filter(stream: IntensityStream, band=(5.0, 800.0)) -> IntensityStream:
    """Zero-phase band-pass over every channel.

    Forward-backward second-order sections keep the output aligned with the
    input, so frame boundaries stay consistent with ground-truth marks.
    """
    f_lo, f_hi = band
    if not (0.0 <= f_lo < f_hi <= NYQUIST_HZ):
        raise ConfigurationError(
            f"band must satisfy 0 <= lo < hi <= {NYQUIST_HZ:.0f} Hz, got {band}"
        )
    sos = signal.butter(4, [f_lo, f_hi], btype="bandpass",
                        fs=SAMPLE_RATE_HZ, output="sos")
    filtered = signal.sosfiltfilt(sos, stream.samples, axis=1)
    return IntensityStream(filtered)


def frame_matrix(stream: IntensityStream, cfg: FrameShaperConfig) -> np.ndarray:
    """All frames of all channels as one view of shape (channels, n_frames, frame_size).

    Streams shorter than one frame yield an empty frame axis.
    """
    total = frame_count(stream.sample_count, cfg)
    if total == 0:
        return np.empty((stream.channel_count, 0, cfg.frame_size))
    windows = np.lib.stride_tricks.sliding_window_view(
        stream.samples, cfg.frame_size, axis=1)
    return windows[:, ::cfg.step][:, :total]


def adapt_frames(frames: np.ndarray, decay: float, index=np.s_[:, :]) -> np.ndarray:
    """Standardize each frame by its channel's running mean and variance.

    ``frames`` is (channels, n_frames, frame_size).  Per channel, the mean
    and variance of every frame feed an exponential moving average with
    weight ``decay`` per frame, started at the first frame's statistics, so
    decay 0 freezes them there.  Frame n is standardized by the averages
    after its own update.  A running standard deviation at or below 1e-6
    (a dead channel) yields zeros.  ``index`` picks entries of the
    (channels, n_frames) grid; the result keeps the frame axis last.
    ``features.Pipeline`` checks that ``decay`` lies in [0, 1].
    """
    run_m = frames.mean(axis=2)
    run_v = frames.var(axis=2)
    for i in range(1, run_m.shape[1]):
        run_m[:, i] = (1 - decay) * run_m[:, i - 1] + decay * run_m[:, i]
        run_v[:, i] = (1 - decay) * run_v[:, i - 1] + decay * run_v[:, i]
    raw = frames[index]
    mu = run_m[index][..., None]
    sd = np.sqrt(np.maximum(run_v[index], 0.0))[..., None]
    return np.where(sd > 1e-6, (raw - mu) / np.where(sd > 0, sd, 1.0), 0.0)
