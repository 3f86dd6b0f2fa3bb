"""Decision statistics and the primary-features array.

Each frame is cut into ``subwindows`` time slices; every slice contributes
a row of filter-bank log energies plus four time-domain statistics.  The
resulting blob (subwindows x feature dims) is what the classifier members
consume, after standardization against frozen training-set statistics.
``Pipeline`` bundles every setting between a raw stream and that input.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import SAMPLE_RATE_HZ, ADC_FULL_SCALE
from .config import schema_of, validate_config
from .errors import ConfigurationError
from .framing import FrameShaperConfig

# Log floor: 1e-10 of full-scale power keeps band energies finite on silence.
POWER_FLOOR = 1e-10 * float(ADC_FULL_SCALE) ** 2
# Floor of a normalizer deviation, so a constant feature divides by a finite value.
STD_FLOOR = 1e-8


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


@dataclass(frozen=True)
class Pipeline:
    """Everything between a raw stream and the classifier input: framing,
    the band-pass band, channel adaptation and features, clip included.

    A trained model stores the pipeline it was trained with, so scoring
    cannot silently use a different one.
    """
    framing: FrameShaperConfig = FrameShaperConfig()
    band: tuple[float, float] = (5.0, 800.0)
    adapt_decay: float = 0.05
    features: FeatureConfig = FeatureConfig()

    def __post_init__(self):
        if not 0.0 <= self.adapt_decay <= 1.0:
            raise ConfigurationError(f"adapt_decay must lie in [0, 1], got {self.adapt_decay}")
        if not self.features.clip > 0:
            raise ConfigurationError(f"clip must be positive, got {self.features.clip}")
        if self.features.subwindows < 1 or self.framing.frame_size % self.features.subwindows:
            raise ConfigurationError(
                f"frame size {self.framing.frame_size} not divisible by "
                f"{self.features.subwindows} subwindows")

    def to_dict(self) -> dict:
        """The ``framing`` and ``features`` sections of a configuration."""
        return {"framing": {**asdict(self.framing), "band_lo_hz": self.band[0],
                            "band_hi_hz": self.band[1], "adapt_decay": self.adapt_decay},
                "features": asdict(self.features)}

    @classmethod
    def from_dict(cls, doc: dict) -> "Pipeline":
        """Inverse of ``to_dict``; other keys of ``doc`` are ignored.  Both
        sections must hold every key, typed as in a configuration."""
        want = cls().to_dict()
        have = {s: doc.get(s) for s in want} if isinstance(doc, dict) else None
        validate_config(have, schema_of(want), "pipeline.")
        for section, keys in want.items():
            if have[section].keys() != keys.keys():
                raise ConfigurationError(f"pipeline.{section}: expected the keys "
                                         f"{sorted(keys)}")
        fr = doc["framing"]
        return cls(FrameShaperConfig(fr["frame_size"], fr["overlap_factor"]),
                   (fr["band_lo_hz"], fr["band_hi_hz"]), fr["adapt_decay"],
                   FeatureConfig(**doc["features"]))


@dataclass
class NormalizerStats:
    mean: np.ndarray              # (feature_dim,)
    std: np.ndarray               # (feature_dim,) floored at STD_FLOOR


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


def fit_normalizer(blobs) -> NormalizerStats:
    """Per-feature mean/std over the training blobs, pooled across sub-windows."""
    stack = np.concatenate([np.asarray(b) for b in blobs], axis=0)
    if stack.shape[0] < 2:
        raise ConfigurationError("need at least 2 rows to fit a normalizer")
    mean = stack.mean(axis=0)
    std = np.maximum(stack.std(axis=0), STD_FLOOR)
    return NormalizerStats(mean, std)


def standardize(blobs: np.ndarray, stats: NormalizerStats, clip: float) -> np.ndarray:
    """Standardize featurewise and clamp to +-clip standard units."""
    return np.clip((blobs - stats.mean) / stats.std, -clip, clip)
