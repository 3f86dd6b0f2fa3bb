import numpy as np
import pytest

from fiberwatch import SAMPLE_RATE_HZ
from fiberwatch.errors import ConfigurationError
from fiberwatch.features import (POWER_FLOOR, FeatureConfig, NormalizerStats,
                                 _band_matrix, blobs_from_windows, fit_normalizer,
                                 standardize)

NB = FeatureConfig().bank_bands


def power_spectrum(x):
    """Oracle: one-sided Hamming periodogram, zero-padded to a power of two,
    with its bin width in Hz."""
    n = 1 << (x.size - 1).bit_length()
    w = np.hamming(n)
    p = np.abs(np.fft.rfft(np.concatenate([x, np.zeros(n - x.size)]) * w)) ** 2
    p /= np.sum(w ** 2)
    p[1:-1] *= 2.0
    return p, SAMPLE_RATE_HZ / n


def filter_bank_energies(x, edges):
    """Oracle: log power summed over each [lo, hi) band, floored."""
    power, bin_width = power_spectrum(x)
    freqs = np.arange(power.size) * bin_width
    bands = [power[(freqs >= lo) & (freqs < hi)].sum() for lo, hi in zip(edges[:-1], edges[1:])]
    return np.log(np.maximum(bands, POWER_FLOOR))


def time_stats(x):
    """Oracle: excess kurtosis, skewness, RMS, peak factor; zeros where undefined."""
    d = x - x.mean()
    m2 = np.mean(d ** 2)
    rms = np.sqrt(np.mean(x ** 2))
    if m2 <= 0.0:
        return 0.0, 0.0, rms, (np.max(np.abs(x)) / rms if rms > 0 else 0.0)
    return (np.mean(d ** 4) / m2 ** 2 - 3.0, np.mean(d ** 3) / m2 ** 1.5, rms,
            np.max(np.abs(x)) / rms)


class TestPowerSpectrum:
    def test_sine_at_bin_center_peaks_there(self):
        cfg = FeatureConfig()
        n, bin_idx = 512, 40
        freq = bin_idx * SAMPLE_RATE_HZ / n
        t = np.arange(n) / SAMPLE_RATE_HZ
        row = blobs_from_windows(np.sin(2 * np.pi * freq * t)[None], cfg)[0]
        edges = cfg.band_edges()
        band = int(np.searchsorted(edges, freq, side="right")) - 1
        assert int(np.argmax(row[:NB])) == band

    def test_too_short_input_rejected(self):
        with pytest.raises(ConfigurationError):
            blobs_from_windows(np.zeros((1, 4)), FeatureConfig())

    def test_white_noise_flat_within_1db(self, rng):
        # Monte-Carlo averaging oracle: 1e4 windows of white noise; each
        # band's mean power per bin should be the same.
        cfg = FeatureConfig()
        rows = blobs_from_windows(rng.standard_normal((10_000, 128)), cfg)
        per_bin = np.exp(rows[:, :NB]).mean(axis=0) / (_band_matrix(128, cfg) > 0).sum(axis=0)
        mid = per_bin[2:-2]
        db_spread = 10 * np.log10(mid.max() / mid.min())
        assert db_spread < 1.0


class TestTimeStats:
    def stats(self, x):
        return blobs_from_windows(np.asarray(x, dtype=float)[None], FeatureConfig())[0, NB:]

    def test_two_point_symmetric(self):
        kurt, skew, rms, peak = self.stats([-1.0, 1.0] * 64)
        assert skew == pytest.approx(0.0, abs=1e-12)
        assert kurt == pytest.approx(-2.0, abs=1e-12)
        assert rms == pytest.approx(1.0)
        assert peak == pytest.approx(1.0)

    def test_hand_computed_skewness(self):
        # moments for {0,0,0,1}: m2 = 0.1875, m3 = 0.09375
        kurt, skew, rms, peak = self.stats([0.0, 0.0, 0.0, 1.0] * 32)
        assert skew == pytest.approx(0.09375 / 0.1875 ** 1.5, abs=1e-9)
        assert skew == pytest.approx(1.1547, abs=1e-4)

    def test_constant_input_gives_zero_moments(self):
        kurt, skew, rms, peak = self.stats(np.full(128, 3.0))
        assert kurt == 0.0 and skew == 0.0
        assert rms == pytest.approx(3.0) and peak == pytest.approx(1.0)

    def test_gaussian_sanity(self, rng):
        rows = blobs_from_windows(rng.standard_normal((100, 2000)), FeatureConfig())
        kurt, skew = rows[:, NB].mean(), rows[:, NB + 1].mean()
        assert abs(kurt) < 0.1
        assert abs(skew) < 0.05


class TestFilterBank:
    def test_zero_spectrum_floors_every_band(self):
        cfg = FeatureConfig()
        row = blobs_from_windows(np.zeros((1, 256)), cfg)[0]
        assert np.allclose(row[:NB], np.log(POWER_FLOOR))

    def test_each_bin_in_at_most_one_contiguous_band(self):
        bank = _band_matrix(256, FeatureConfig(bank_bands=10))
        assert np.all((bank > 0).sum(axis=1) <= 1)
        for j in range(bank.shape[1]):
            idx = np.nonzero(bank[:, j])[0]
            assert idx.size > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))

    def test_doubling_adds_log2(self, rng):
        cfg = FeatureConfig(bank_bands=12)
        x = rng.normal(0, 100, (1, 512))
        e1 = blobs_from_windows(x, cfg)[0]
        e2 = blobs_from_windows(np.sqrt(2.0) * x, cfg)[0]
        nb = cfg.bank_bands
        assert np.allclose(e2[:nb] - e1[:nb], np.log(2.0), atol=1e-12)
        assert np.allclose(e2[nb:nb + 2], e1[nb:nb + 2], atol=1e-9)
        assert e2[nb + 2] == pytest.approx(np.sqrt(2.0) * e1[nb + 2])

    def test_empty_band_rejected(self):
        # 8-sample sub-windows have 208 Hz bins, wider than a 13 Hz band.
        with pytest.raises(ConfigurationError):
            blobs_from_windows(np.zeros((1, 8)), FeatureConfig())

    def test_band_powers_conserve_total(self, rng):
        # Parseval: bands tiling [0, Nyquist) sum to the windowed mean square
        # scaled by n / sum(w^2), less the Nyquist bin on the last edge.
        cfg = FeatureConfig(bank_bands=16, band_lo_hz=0.0, band_hi_hz=SAMPLE_RATE_HZ / 2)
        x = rng.normal(0, 50, 1024)
        total = np.exp(blobs_from_windows(x[None], cfg)[0, :16]).sum()
        w = np.hamming(1024)
        nyquist = np.abs(np.fft.rfft(x * w)[-1]) ** 2
        expected = (1024 * np.sum((x * w) ** 2) - nyquist) / np.sum(w ** 2)
        assert total == pytest.approx(expected, rel=1e-9)


class TestFeatureBlob:
    def blob(self, frame, cfg):
        return blobs_from_windows(frame.reshape(cfg.subwindows, -1), cfg)

    def test_default_shape(self, rng):
        assert self.blob(rng.normal(0, 30, 2048), FeatureConfig()).shape == (16, 64)

    def test_all_zero_frame_is_deterministic_constant(self):
        cfg = FeatureConfig()
        blob = self.blob(np.zeros(2048), cfg)
        assert np.allclose(blob[:, :cfg.bank_bands], np.log(POWER_FLOOR))
        assert np.allclose(blob[:, cfg.bank_bands:], 0.0)

    def test_identical_frames_identical_blobs(self, rng):
        x = rng.normal(0, 30, 2048)
        cfg = FeatureConfig()
        assert np.array_equal(self.blob(x, cfg), self.blob(x.copy(), cfg))


class TestBatchMatchesScalarDefinitions:
    @pytest.mark.parametrize("sub_len", [128, 120])
    def test_rows_equal_scalar_features(self, rng, sub_len):
        # Log energies compare absolutely: an error of 1e-12 in a log is a
        # relative error of 1e-12 in the band power.
        cfg = FeatureConfig()
        windows = rng.normal(0, 30, (5, 3, sub_len)) * rng.uniform(0.01, 100, (5, 3, 1))
        windows[2, 1] = 0.0
        got = blobs_from_windows(windows, cfg)
        assert got.shape == (5, 3, cfg.feature_dim)
        for idx in np.ndindex(5, 3):
            w = windows[idx]
            want = np.concatenate([filter_bank_energies(w, cfg.band_edges()), time_stats(w)])
            np.testing.assert_allclose(got[idx], want, rtol=1e-12, atol=1e-12)
        assert np.all(got[2, 1, cfg.bank_bands:] == 0.0)


class TestNormalizer:
    def make_blobs(self, rng, n=20):
        cfg = FeatureConfig()
        return blobs_from_windows(rng.normal(0, 30, (n, 16, 128)), cfg), cfg

    def test_self_normalization_is_standard(self, rng):
        blobs, _ = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        stack = standardize(blobs, stats, np.inf).reshape(-1, blobs.shape[-1])
        assert np.allclose(stack.mean(axis=0), 0.0, atol=1e-6)
        live = stats.std > stats.std_eps
        assert np.allclose(stack.std(axis=0)[live], 1.0, atol=1e-6)

    def test_identity_stats(self, rng):
        blobs, _ = self.make_blobs(rng, n=2)
        dim = blobs.shape[-1]
        stats = NormalizerStats(np.zeros(dim), np.ones(dim))
        assert np.allclose(standardize(blobs[0], stats, np.inf), blobs[0])

    def test_outlier_bounded_by_clip(self, rng):
        blobs, cfg = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        wild = blobs[0].copy()
        wild[5, 62] = 1e9
        assert np.max(np.abs(standardize(wild, stats, cfg.clip))) <= cfg.clip

    def test_round_trip_where_std_above_eps(self, rng):
        blobs, _ = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        x = blobs[3]
        back = standardize(x, stats, np.inf) * stats.std + stats.mean
        live = stats.std > stats.std_eps
        assert np.allclose(back[:, live], x[:, live], rtol=1e-9, atol=1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(ConfigurationError):
            fit_normalizer([np.zeros((1, 64))[:0]])
