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
from .errors import ConfigurationError

# Log floor: 1e-10 of full-scale power keeps band energies finite on silence.
POWER_FLOOR = 1e-10 * float(ADC_FULL_SCALE) ** 2


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
class NormalizerStats:
    mean: np.ndarray              # (feature_dim,)
    std: np.ndarray               # (feature_dim,) floored at std_eps
    std_eps: float = 1e-8


def _band_matrix(n_fft: int, cfg: FeatureConfig) -> np.ndarray:
    """(bins, bands) indicator of each band's bins, carrying the one-sided
    periodogram scale, so ``|rfft|^2 @ bank`` gives band powers.

    Bands are contiguous [lo, hi) intervals of ``cfg.band_edges()``.  The
    scale divides by the window's energy and doubles the interior bins, so
    the bins' total equals the windowed mean square (Parseval).
    """
    ham = np.hamming(n_fft)
    freqs = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE_HZ / n_fft)
    edges = cfg.band_edges()
    bank = np.zeros((freqs.size, cfg.bank_bands))
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        idx = np.nonzero((freqs >= lo) & (freqs < hi))[0]
        if idx.size == 0:
            raise ConfigurationError(
                f"band [{lo:.1f}, {hi:.1f}) Hz contains no spectrum bins")
        bank[idx[0]:idx[-1] + 1, j] = 1.0
    bank[1:-1] *= 2.0
    return bank / np.sum(ham * ham)


def blobs_from_windows(windows: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Vectorized feature rows for a stack of equal-length sub-windows.

    ``windows`` has shape (..., sub_len); the result appends the feature
    axis of length ``cfg.feature_dim``: the log band powers of the Hamming
    windowed periodogram (zero-padded to a power of two, floored at
    POWER_FLOOR), then excess kurtosis, skewness, RMS and peak factor.
    A zero-variance sub-window gets 0 kurtosis and skewness instead of
    failing, and an all-zero one also gets a 0 peak factor.
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
    stack = np.concatenate([np.asarray(b) for b in blobs], axis=0)
    if stack.shape[0] < 2:
        raise ConfigurationError("need at least 2 rows to fit a normalizer")
    mean = stack.mean(axis=0)
    std = np.maximum(stack.std(axis=0), std_eps)
    return NormalizerStats(mean, std, std_eps)


def standardize(blobs: np.ndarray, stats: NormalizerStats, clip: float) -> np.ndarray:
    """Standardize featurewise and clamp to +-clip standard units."""
    return np.clip((blobs - stats.mean) / stats.std, -clip, clip)
