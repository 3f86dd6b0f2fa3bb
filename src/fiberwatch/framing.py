"""Stream front end: primary band-pass filter, frame shaper, channel adaptation.

The shaper cuts each channel's sample stream into overlapping frames of
``frame_size`` samples.  Frame ``n`` starts at ``n * frame_size /
overlap_factor`` and spans ``frame_size`` samples, so ``overlap_factor=1``
tiles the stream and larger factors slide the window in fractional steps.
Channel adaptation standardizes frame ``n`` as (x - mu_n) / sd_n with its
channel's running statistics; ``running_stats`` gives mu_n and sd_n, and
``features.blobs_from_windows`` applies the map to sub-window statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal

from . import SAMPLE_RATE_HZ, NYQUIST_HZ
from .errors import ConfigurationError

# A running standard deviation at or below this marks a dead channel.
DEAD_SD = 1e-6


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
    """The ``framing`` section: frame shape, band-pass band and adaptation."""
    frame_size: int = 2048   # ~1.23 s at 1666 Hz
    overlap_factor: int = 2
    band_lo_hz: float = 5.0
    band_hi_hz: float = 800.0
    adapt_decay: float = 0.05  # weight of each frame in the running statistics

    def __post_init__(self):
        if self.frame_size <= 0:
            raise ConfigurationError("frame_size must be positive")
        if self.overlap_factor not in range(1, 9):
            raise ConfigurationError("overlap_factor must be an integer in 1..8")
        if self.frame_size % self.overlap_factor != 0:
            raise ConfigurationError("frame_size must be divisible by overlap_factor")
        check_band(self.band, "band_lo_hz and band_hi_hz")
        if not 0.0 <= self.adapt_decay <= 1.0:
            raise ConfigurationError(f"adapt_decay must lie in [0, 1], got {self.adapt_decay}")

    @property
    def step(self) -> int:
        return self.frame_size // self.overlap_factor

    @property
    def band(self) -> tuple[float, float]:
        return self.band_lo_hz, self.band_hi_hz


def frame_bounds(n: int, cfg: FrameShaperConfig) -> tuple[int, int]:
    """First and last sample index covered by frame ``n``."""
    k_b = n * cfg.step
    return k_b, k_b + cfg.frame_size - 1


def frame_count(n_samples: int, cfg: FrameShaperConfig) -> int:
    if n_samples < cfg.frame_size:
        return 0
    return (n_samples - cfg.frame_size) // cfg.step + 1


@lru_cache(maxsize=16)
def _bandpass_sos(f_lo: float, f_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The 4th-order Butterworth band-pass design and its unit-step initial
    state (``sosfilt_zi``), built once per band and process; both read-only,
    so callers filter with a copy.  Raises ``np.linalg.LinAlgError`` where
    ``sosfiltfilt`` would: an edge so near 0 Hz that a pole sits at z = 1
    makes the initial-state system singular."""
    sos = signal.butter(4, [f_lo, f_hi], btype="bandpass",
                        fs=SAMPLE_RATE_HZ, output="sos")
    zi = signal.sosfilt_zi(sos)
    sos.setflags(write=False)
    zi.setflags(write=False)
    return sos, zi


def check_band(band, name: str = "band") -> None:
    """Reject a band-pass band (lo, hi) Hz unless 0 < lo < hi < NYQUIST_HZ
    (the digital design needs both edges strictly inside (0, Nyquist)) and
    its filter is regular."""
    if not 0.0 < band[0] < band[1] < NYQUIST_HZ:
        raise ConfigurationError(
            f"{name} must satisfy 0 < lo < hi < {NYQUIST_HZ:.0f} Hz, got {band}")
    try:
        _bandpass_sos(float(band[0]), float(band[1]))
    except np.linalg.LinAlgError as err:
        raise ConfigurationError(f"{name} {band} gives a singular filter ({err})") from err


def primary_filter(stream: IntensityStream, band) -> IntensityStream:
    """Zero-phase band-pass over every channel to ``band``, (lo, hi) Hz.

    Forward-backward second-order sections keep the output aligned with the
    input, so frame boundaries stay consistent with ground-truth marks.  The
    steps are ``signal.sosfiltfilt``'s, with the band's cached initial state:
    an odd extension of ``pad`` samples at each end, a forward pass started
    from the first sample's steady state, and a backward pass started from
    the last output's.
    """
    check_band(band)
    sos, zi = _bandpass_sos(float(band[0]), float(band[1]))
    # scipy's compiled filter loop refuses a read-only coefficient array.
    sos = sos.copy()
    pad = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
    x = stream.samples
    if x.shape[1] <= pad:
        raise ValueError("The length of the input vector x must be greater than "
                         f"padlen, which is {pad}.")
    ext = np.concatenate((2 * x[:, :1] - x[:, pad:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-pad - 2:-1]), axis=1)
    zi = zi[:, None, :]                  # (sections, channels, 2) once scaled
    y, _ = signal.sosfilt(sos, ext, axis=1, zi=zi * ext[:, :1])
    y, _ = signal.sosfilt(sos, y[:, ::-1], axis=1, zi=zi * y[:, -1:])
    return IntensityStream(y[:, ::-1][:, pad:-pad])


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


def running_stats(frames: np.ndarray, decay: float,
                  index=np.s_[:, :]) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's adaptation: its channel's running mean and standard deviation.

    ``frames`` is (channels, n_frames, frame_size).  Per channel, the mean
    and variance of every frame feed an exponential moving average with
    weight ``decay`` per frame, started at the first frame's statistics, so
    decay 0 freezes them there.  Frame n is standardized as (x - mean) / sd
    with the averages after its own update.  A running standard deviation
    at or below DEAD_SD (a dead channel) is returned as 0: such a frame
    standardizes to zeros.  ``index`` picks entries of the (channels,
    n_frames) grid for both results; ``FrameShaperConfig`` range-checks ``decay``.
    """
    run_m = frames.mean(axis=2)
    run_v = frames.var(axis=2)
    for i in range(1, run_m.shape[1]):
        run_m[:, i] = (1 - decay) * run_m[:, i - 1] + decay * run_m[:, i]
        run_v[:, i] = (1 - decay) * run_v[:, i - 1] + decay * run_v[:, i]
    sd = np.sqrt(np.maximum(run_v[index], 0.0))
    return run_m[index], np.where(sd > DEAD_SD, sd, 0.0)
