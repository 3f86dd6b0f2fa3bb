"""Decision statistics and the primary-features array.

Each frame is cut into ``subwindows`` time slices; every slice contributes
a row of filter-bank log energies plus four time-domain statistics.  The
resulting blob (subwindows x feature dims) is what the classifier members
consume, after standardization against frozen training-set statistics.
``Pipeline`` bundles every setting between a raw stream and that input.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import SAMPLE_RATE_HZ, ADC_FULL_SCALE
from .config import at_least, build_section, schema_of, validate_config
from .errors import ConfigurationError
from .framing import FrameShaperConfig

# Log floor: 1e-10 of full-scale power keeps band energies finite on silence.
POWER_FLOOR = 1e-10 * float(ADC_FULL_SCALE) ** 2
# Floor of a normalizer deviation, so a constant feature divides by a finite value.
STD_FLOOR = 1e-8
# Upper bound on one feature chunk's largest temporary: sub-windows and
# feature rows are processed in chunks that fit it, so each stays in cache.
FEATURE_BUFFER_BYTES = 1 << 18


@dataclass(frozen=True)
class FeatureConfig:
    """The ``features`` section."""
    subwindows: int = 16          # time slices per frame
    bank_bands: int = 60          # linear filter-bank bands
    band_lo_hz: float = 5.0
    band_hi_hz: float = 800.0
    clip: float = 8.0             # bound in standard units after normalization

    def __post_init__(self):
        at_least(self, subwindows=1, bank_bands=1)
        if not self.clip > 0:
            raise ConfigurationError(f"clip must be positive, got {self.clip}")

    @property
    def feature_dim(self) -> int:
        return self.bank_bands + 4

    def band_edges(self) -> np.ndarray:
        return np.linspace(self.band_lo_hz, self.band_hi_hz, self.bank_bands + 1)


@dataclass(frozen=True)
class Pipeline:
    """Everything between a raw stream and the classifier input: the
    ``framing`` and ``features`` sections, which check their own ranges,
    and the conditions between them: the sub-windows divide the frame and
    hold at least 8 samples each, and every filter-bank band holds a bin
    of their spectrum.

    A trained model stores the pipeline it was trained with, so scoring
    cannot silently use a different one.
    """
    framing: FrameShaperConfig = FrameShaperConfig()
    features: FeatureConfig = FeatureConfig()

    def __post_init__(self):
        frame_size, ft = self.framing.frame_size, self.features
        if frame_size % ft.subwindows:
            raise ConfigurationError(f"features.subwindows: frame size {frame_size} not "
                                     f"divisible by {ft.subwindows} subwindows")
        sub_len = frame_size // ft.subwindows
        if sub_len < 8:
            raise ConfigurationError(
                f"features.subwindows: {ft.subwindows} subwindows of a {frame_size}-"
                f"sample frame hold {sub_len} samples each, fewer than 8")
        try:
            _spectral_tables(sub_len, ft)
        except ConfigurationError as err:
            raise ConfigurationError(f"features.bank_bands, band_lo_hz and band_hi_hz: "
                                     f"{err} of {sub_len}-sample sub-windows") from err

    def to_dict(self) -> dict:
        """The ``framing`` and ``features`` sections of a configuration."""
        return {"framing": asdict(self.framing), "features": asdict(self.features)}

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
        return cls(build_section("framing", FrameShaperConfig, doc["framing"]),
                   build_section("features", FeatureConfig, doc["features"]))


@dataclass
class NormalizerStats:
    mean: np.ndarray              # (feature_dim,)
    std: np.ndarray               # (feature_dim,) floored at STD_FLOOR


@lru_cache(maxsize=16)
def _spectral_tables(sub_len: int, cfg: FeatureConfig) -> tuple:
    """Fixed tables for sub-windows of ``sub_len`` samples, built once per
    (sub_len, cfg) and process, and read-only: the FFT length, the
    truncated Hamming window, the band bounds, the per-bin scale and the
    window's spectrum H over the bins the bank covers, ``bounds[0]`` to
    ``bounds[-1] - 1``.  Band j is the bins ``bounds[j]:bounds[j + 1]``,
    those in its [lo, hi) of ``band_edges()``.  ``scale`` is the one-sided
    periodogram scale of the covered bins: 2/E, or 1/E at bin 0 and the
    Nyquist bin, E being the full window's energy, so the bins sum to the
    windowed mean square."""
    n_fft = 1 << (sub_len - 1).bit_length()
    ham = np.hamming(n_fft)
    freqs = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE_HZ / n_fft)
    edges = cfg.band_edges()
    bounds = np.searchsorted(freqs, edges)
    # Reversed edges give falling bounds, and equal bounds an empty band.
    empty = np.flatnonzero(np.diff(bounds) <= 0)
    if empty.size:
        lo, hi = edges[empty[0]:empty[0] + 2]
        raise ConfigurationError(f"band [{lo:.1f}, {hi:.1f}) Hz contains no spectrum bins")
    bins = np.arange(bounds[0], bounds[-1])
    scale = np.where(bins % (n_fft // 2), 2.0, 1.0) / np.sum(ham * ham)
    ham = ham[:sub_len]
    h = np.fft.rfft(ham, n=n_fft)[bounds[0]:bounds[-1]]
    for table in (ham, bounds, scale, h):
        table.setflags(write=False)
    return n_fft, ham, bounds, scale, h


def _subwindow_stats(w: np.ndarray, tables: tuple, spec: np.ndarray,
                     st: np.ndarray) -> None:
    """Statistics of the sub-windows ``w`` (n, sub_len), written to the
    complex ``spec`` (n, covered bins): X over the bins the bank covers,
    and to ``st`` (7, n): first sample, mean after subtracting it, m2,
    excess kurtosis, skewness, max and min.  X is the spectrum of the
    centered Hamming windowed sub-window; moments and extremes are of the
    centered samples.  Shifting by the first sample, then centering, keeps
    a stream offset out of the spectrum and the moments.  A constant
    sub-window gets 0 kurtosis and skewness."""
    n_fft, ham, bounds = tables[:3]
    st[0] = w[:, 0]
    c = w - st[0][:, None]
    st[1] = c.mean(axis=1)
    c -= st[1][:, None]
    spec[...] = np.fft.rfft(c * ham, n=n_fft, axis=1)[:, bounds[0]:bounds[-1]]
    c.max(axis=1, out=st[5])
    c.min(axis=1, out=st[6])
    # Kurtosis and skewness are scale-free; taking the moments of the
    # samples scaled to unit peak keeps a decayed sub-window's powers from
    # underflowing.
    peak = np.maximum(st[5], -st[6])
    live = peak > 0.0
    c *= np.where(live, 1.0 / np.where(live, peak, 1.0), 0.0)[:, None]
    c2 = c * c
    m2 = np.einsum("ij,ij->i", c, c) / c.shape[1]
    safe_m2 = np.where(live, m2, 1.0)
    st[2] = m2 * (peak * peak)
    st[3] = np.where(live, np.einsum("ij,ij->i", c2, c2) / c.shape[1]
                     / (safe_m2 * safe_m2) - 3.0, 0.0)
    st[4] = np.where(live, np.einsum("ij,ij->i", c2, c) / c.shape[1]
                     / (safe_m2 * np.sqrt(safe_m2)), 0.0)


def blobs_from_windows(windows: np.ndarray, cfg: FeatureConfig, pick=None,
                       mean=0.0, sd=1.0) -> np.ndarray:
    """Vectorized feature rows of standardized sub-windows.

    ``windows`` has shape (..., sub_len).  Alone, each sub-window gives one
    row, and the result appends the feature axis of length
    ``cfg.feature_dim`` to the leading axes: the log band powers of the
    Hamming windowed periodogram (zero-padded to a power of two, floored at
    POWER_FLOOR), then excess kurtosis, skewness, RMS and peak factor.
    A zero-variance sub-window gets 0 kurtosis and skewness instead of
    failing, and an all-zero one also gets a 0 peak factor.

    ``pick`` indexes the flattened leading axes instead; the result has
    shape ``pick.shape + (feature_dim,)``, and each row is the row of the
    standardized sub-window ``(windows[pick] - mean) / sd``, with ``mean``
    and ``sd`` broadcast against ``pick``.  An ``sd`` of 0 (a dead channel,
    see ``framing.running_stats``) gives the row of an all-zero sub-window.
    Each sub-window is transformed once, however often it is picked: the
    standardization is applied to its statistics, which is exact, since it
    is an affine map.  With X the spectrum of the centered sub-window, H
    that of the window and delta its mean minus ``mean``, the row's
    spectrum is X + delta H, and a band power is the band sum of
    |X + delta H|^2 over sd^2; central moments scale by powers of ``sd``,
    and the extremes shift by delta.
    """
    w = np.asarray(windows, dtype=np.float64)
    sub_len = w.shape[-1]
    if sub_len < 8:
        raise ConfigurationError("sub-windows must hold at least 8 samples")
    if pick is None:
        pick = np.arange(w.size // sub_len).reshape(w.shape[:-1])
    shape = np.shape(pick)
    pick = np.reshape(pick, -1)
    mean = np.broadcast_to(mean, shape).reshape(-1)
    sd = np.broadcast_to(sd, shape).reshape(-1)
    w = w.reshape(-1, sub_len)
    tables = _spectral_tables(sub_len, cfg)
    n_fft, _, bounds, scale, h = tables
    nb = cfg.bank_bands

    spec = np.empty((w.shape[0], h.size), dtype=np.complex128)
    st = np.empty((7, w.shape[0]))
    step = max(1, FEATURE_BUFFER_BYTES // (8 * n_fft))
    for lo in range(0, w.shape[0], step):
        part = slice(lo, lo + step)
        _subwindow_stats(w[part], tables, spec[part], st[:, part])
    first, shifted_mean, m2, kurt, skew, top, bottom = st

    out = np.empty((pick.size, cfg.feature_dim))
    step = max(1, FEATURE_BUFFER_BYTES // (16 * h.size))
    # Output index of each covered bin of a chunk's rows, in row-major order.
    # ``np.bincount`` adds each band's bins in order, so a row's band powers
    # do not depend on the other rows of the call, as a matrix product's
    # blocking can make them.
    band_of = (np.arange(step)[:, None] * nb
               + np.repeat(np.arange(nb), np.diff(bounds))).reshape(-1)
    for lo in range(0, pick.size, step):
        rows = slice(lo, lo + step)
        u = pick[rows]
        live = sd[rows] > 0.0
        inv_sd = np.where(live, 1.0 / np.where(live, sd[rows], 1.0), 0.0)
        delta = (first[u] - mean[rows]) + shifted_mean[u]
        y = spec[u]
        y += delta[:, None] * h
        per_bin = y.real * y.real
        per_bin += y.imag * y.imag
        per_bin *= scale
        bands = np.bincount(band_of[:per_bin.size], per_bin.reshape(-1),
                            u.size * nb).reshape(-1, nb)
        bands *= (inv_sd * inv_sd)[:, None]
        np.log(np.maximum(bands, POWER_FLOOR, out=bands), out=out[rows, :nb])
        o = out[rows]
        o[:, nb] = np.where(live, kurt[u], 0.0)
        o[:, nb + 1] = np.where(live, skew[u], 0.0)
        spread = np.sqrt(m2[u] + delta * delta)
        o[:, nb + 2] = spread * inv_sd
        peak = np.maximum(np.abs(top[u] + delta), np.abs(bottom[u] + delta))
        o[:, nb + 3] = np.where(live & (spread > 0.0),
                                peak / np.where(spread > 0.0, spread, 1.0), 0.0)
    return out.reshape(shape + (cfg.feature_dim,))


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
