"""Decision statistics and the primary-features array.

Each frame is cut into ``subwindows`` time slices; every slice contributes
a row of filter-bank log energies plus four time-domain statistics.  The
resulting blob (subwindows x feature dims) is what the classifier members
consume, after standardization against frozen training-set statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import SAMPLE_RATE_HZ, ADC_FULL_SCALE
from .errors import ConfigurationError, DegenerateFrameError
from .framing import IntensityFrame

# Log floor: 1e-10 of full-scale power keeps band energies finite on silence.
POWER_FLOOR = 1e-10 * float(ADC_FULL_SCALE) ** 2


@dataclass
class PowerSpectrum:
    power: np.ndarray      # one-sided linear power per bin
    bin_width_hz: float
    window: str = "hamming"

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.power.shape[-1]) * self.bin_width_hz


@dataclass(frozen=True)
class FeatureConfig:
    subwindows: int = 16          # time slices per frame
    bank_bands: int = 60          # linear filter-bank bands
    band_lo_hz: float = 5.0
    band_hi_hz: float = 800.0
    clip: float = 8.0             # bound in standard units after normalization

    @property
    def feature_dim(self) -> int:
        return self.bank_bands + 4

    def band_edges(self) -> np.ndarray:
        return np.linspace(self.band_lo_hz, self.band_hi_hz, self.bank_bands + 1)


@dataclass
class FeatureBlob:
    values: np.ndarray            # (subwindows, feature_dim)
    frame_index: int = -1
    channel_index: int = -1


@dataclass
class NormalizerStats:
    mean: np.ndarray              # (feature_dim,)
    std: np.ndarray               # (feature_dim,) floored at std_eps
    std_eps: float = 1e-8


def power_spectrum(samples: np.ndarray, window: str = "hamming") -> PowerSpectrum:
    """One-sided windowed periodogram; zero-pads to the next power of two."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 8:
        raise ConfigurationError("power_spectrum needs a 1-D input of >= 8 samples")
    n = 1 << (x.size - 1).bit_length()
    if n != x.size:
        x = np.concatenate([x, np.zeros(n - x.size)])
    if window != "hamming":
        raise ConfigurationError(f"unsupported window {window!r}")
    w = np.hamming(n)
    spec = np.fft.rfft(x * w)
    # Periodogram scaling: doubling for interior bins keeps total power
    # equal to the windowed mean-square (Parseval on the one-sided view).
    scale = 1.0 / (np.sum(w ** 2))
    p = (np.abs(spec) ** 2) * scale
    p[1:-1] *= 2.0
    return PowerSpectrum(p, bin_width_hz=SAMPLE_RATE_HZ / n)


def time_stats(samples: np.ndarray) -> tuple[float, float, float, float]:
    """Excess kurtosis, skewness, RMS, and peak factor of one sample vector."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 4:
        raise ConfigurationError("time_stats needs at least 4 samples")
    m = x.mean()
    d = x - m
    m2 = np.mean(d ** 2)
    if m2 <= 0.0:
        raise DegenerateFrameError("zero variance: moment statistics undefined")
    m3 = np.mean(d ** 3)
    m4 = np.mean(d ** 4)
    kurt = m4 / m2 ** 2 - 3.0
    skew = m3 / m2 ** 1.5
    rms = float(np.sqrt(np.mean(x ** 2)))
    peak = float(np.max(np.abs(x)) / rms) if rms > 0 else 0.0
    return float(kurt), float(skew), rms, peak


def _band_bin_slices(spectrum: PowerSpectrum, edges: np.ndarray) -> list[slice]:
    freqs = spectrum.frequencies
    slices = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        idx = np.nonzero((freqs >= lo) & (freqs < hi))[0]
        if idx.size == 0:
            raise ConfigurationError(
                f"band [{lo:.1f}, {hi:.1f}) Hz contains no spectrum bins")
        slices.append(slice(idx[0], idx[-1] + 1))
    return slices


def band_powers(spectrum: PowerSpectrum, edges: np.ndarray) -> np.ndarray:
    """Linear summed power per band; bands are contiguous [lo, hi) intervals."""
    return np.array([spectrum.power[s].sum() for s in _band_bin_slices(spectrum, edges)])


def filter_bank_energies(spectrum: PowerSpectrum, edges: np.ndarray) -> np.ndarray:
    """Log-compressed band powers, floored at POWER_FLOOR."""
    return np.log(np.maximum(band_powers(spectrum, edges), POWER_FLOOR))


def build_feature_blob(frame: IntensityFrame, cfg: FeatureConfig) -> FeatureBlob:
    """Assemble the subwindows x feature_dim array for one frame.

    Sub-windows with degenerate (zero-variance) content contribute zeros for
    the four time statistics instead of failing the whole frame.
    """
    x = np.asarray(frame.samples, dtype=np.float64)
    if x.size % cfg.subwindows != 0:
        raise ConfigurationError(
            f"frame size {x.size} not divisible by {cfg.subwindows} subwindows")
    rows = blobs_from_windows(x.reshape(cfg.subwindows, -1), cfg)
    return FeatureBlob(rows, frame.frame_index, frame.channel_index)


def _band_matrix(n_fft: int, cfg: FeatureConfig) -> np.ndarray:
    """(bins, bands) indicator of each band's bins, carrying the periodogram
    scale of :func:`power_spectrum`, so ``|rfft|^2 @ bank`` gives band powers."""
    ham = np.hamming(n_fft)
    ref = PowerSpectrum(np.zeros(n_fft // 2 + 1), SAMPLE_RATE_HZ / n_fft)
    bank = np.zeros((ref.power.size, cfg.bank_bands))
    for j, s in enumerate(_band_bin_slices(ref, cfg.band_edges())):
        bank[s, j] = 1.0
    bank[1:-1] *= 2.0
    return bank / np.sum(ham * ham)


def blobs_from_windows(windows: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Vectorized feature rows for a stack of equal-length sub-windows.

    ``windows`` has shape (..., sub_len); the result appends the feature
    axis of length ``cfg.feature_dim``.
    """
    w = np.asarray(windows, dtype=np.float64)
    sub_len = w.shape[-1]
    if sub_len < 8:
        raise ConfigurationError("sub-windows must hold at least 8 samples")
    n_fft = 1 << (sub_len - 1).bit_length()
    spec = np.fft.rfft(w * np.hamming(n_fft)[:sub_len], n=n_fft, axis=-1)
    power = spec.real * spec.real
    power += spec.imag * spec.imag
    out = np.empty(w.shape[:-1] + (cfg.feature_dim,))
    nb = cfg.bank_bands
    bands = power @ _band_matrix(n_fft, cfg)
    np.log(np.maximum(bands, POWER_FLOOR, out=bands), out=out[..., :nb])

    d = w - w.mean(axis=-1, keepdims=True)
    d2 = d * d
    m2 = d2.mean(axis=-1)
    m3 = (d2 * d).mean(axis=-1)
    m4 = (d2 * d2).mean(axis=-1)
    ok = m2 > 0.0
    safe_m2 = np.where(ok, m2, 1.0)
    out[..., nb] = np.where(ok, m4 / (safe_m2 * safe_m2) - 3.0, 0.0)
    out[..., nb + 1] = np.where(ok, m3 / (safe_m2 * np.sqrt(safe_m2)), 0.0)
    rms = np.sqrt((w * w).mean(axis=-1))
    safe_rms = np.where(rms > 0.0, rms, 1.0)
    out[..., nb + 2] = rms
    out[..., nb + 3] = np.where(rms > 0.0, np.abs(w).max(axis=-1) / safe_rms, 0.0)
    return out


def fit_normalizer(blobs, std_eps: float = 1e-8) -> NormalizerStats:
    """Per-feature mean/std over the training blobs, pooled across sub-windows."""
    stack = np.concatenate([np.asarray(b.values if isinstance(b, FeatureBlob) else b)
                            for b in blobs], axis=0)
    if stack.shape[0] < 2:
        raise ConfigurationError("need at least 2 rows to fit a normalizer")
    mean = stack.mean(axis=0)
    std = np.maximum(stack.std(axis=0), std_eps)
    return NormalizerStats(mean, std, std_eps)


def normalize_blob(blob: FeatureBlob, stats: NormalizerStats,
                   clip: float = 8.0) -> FeatureBlob:
    """Standardize featurewise and clamp to +-clip standard units."""
    v = (blob.values - stats.mean) / stats.std
    if clip is not None:
        v = np.clip(v, -clip, clip)
    return FeatureBlob(v, blob.frame_index, blob.channel_index)


def denormalize(values: np.ndarray, stats: NormalizerStats) -> np.ndarray:
    return values * stats.std + stats.mean
