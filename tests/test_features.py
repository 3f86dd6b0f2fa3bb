import tracemalloc

import numpy as np
import pytest

from fiberwatch import SAMPLE_RATE_HZ
from fiberwatch.errors import ConfigurationError
from fiberwatch.features import (POWER_FLOOR, STD_FLOOR, FeatureConfig, NormalizerStats,
                                 Pipeline, _spectral_tables, blobs_from_windows,
                                 fit_normalizer, standardize)
from fiberwatch.framing import FrameShaperConfig, IntensityStream, frame_matrix, running_stats
from frame_oracle import adapt_frames

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
        bounds = _spectral_tables(128, cfg)[2]
        per_bin = np.exp(rows[:, :NB]).mean(axis=0) / np.diff(bounds)
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
        cfg = FeatureConfig(bank_bands=10)
        bounds = _spectral_tables(256, cfg)[2]
        freqs = np.arange(129) * (SAMPLE_RATE_HZ / 256)
        edges = cfg.band_edges()
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            want = np.flatnonzero((freqs >= lo) & (freqs < hi))
            assert want.size > 0
            assert np.array_equal(np.arange(bounds[j], bounds[j + 1]), want)

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

    @pytest.mark.parametrize("sub_len", [128, 120])
    def test_dc_and_nyquist_bins_take_half_weight(self, sub_len):
        # Bands from below 0 Hz to above Nyquist hold bin 0 and the Nyquist
        # bin.  A band power is the band sum of |X + delta H|^2, a sum of
        # non-negative terms, so none of its terms cancel.
        cfg = FeatureConfig(band_lo_hz=-10.0, band_hi_hz=834.0)
        x = np.stack([np.full(sub_len, 3.0), 50.0 * (-1.0) ** np.arange(sub_len)])
        got = blobs_from_windows(x, cfg)[:, :cfg.bank_bands]
        want = [filter_bank_energies(w, cfg.band_edges()) for w in x]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

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
    @pytest.mark.parametrize("cfg", [FeatureConfig(), FeatureConfig(bank_bands=12),
                                     FeatureConfig(band_lo_hz=-10.0, band_hi_hz=834.0)],
                             ids=["60-bands", "12-bands", "bin-0-band"])
    @pytest.mark.parametrize("sub_len", [128, 120])
    def test_rows_equal_scalar_features(self, rng, sub_len, cfg):
        # Log energies compare absolutely: an error of 1e-12 in a log is a
        # relative error of 1e-12 in the band power.
        windows = rng.normal(0, 30, (5, 3, sub_len)) * rng.uniform(0.01, 100, (5, 3, 1))
        windows[2, 1] = 0.0
        got = blobs_from_windows(windows, cfg)
        assert got.shape == (5, 3, cfg.feature_dim)
        for idx in np.ndindex(5, 3):
            w = windows[idx]
            want = np.concatenate([filter_bank_energies(w, cfg.band_edges()), time_stats(w)])
            np.testing.assert_allclose(got[idx], want, rtol=1e-12, atol=1e-12)
        assert np.all(got[2, 1, cfg.bank_bands:] == 0.0)


def relative_error(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))


class TestAdaptationOnStatistics:
    """Rows from sub-window statistics against the materialized oracle:
    standardize each frame, then featurize its sub-windows."""

    def offset_stream(self, rng, frames=12):
        """+5 DL offset; channel 1 dead, channel 2 dead for its first half,
        channel 3 crossing the dead threshold."""
        n = (frames + 1) * 1024
        x = 5.0 + rng.normal(0, 30, (4, n)) * rng.uniform(0.5, 2.0, (4, 1))
        x[1] = 5.0
        x[2, :n // 2] = 5.0
        x[3] = 5.0 + rng.normal(0, 1.0, n) * np.where(np.arange(n) < n // 2, 5e-7, 2e-6)
        return x

    def test_shared_subwindows_match_standardized_frames(self, rng):
        cfg, fr_cfg = FeatureConfig(), FrameShaperConfig()
        x = self.offset_stream(rng)
        frames = frame_matrix(IntensityStream(x), fr_cfg)
        n_ch, n_fr, _ = frames.shape
        mean, sd = running_stats(frames, 0.05)
        # Overlap 2 with 16 sub-windows: frame n's sub-window j is tile 8n + j.
        tiles = x[:, :(n_fr + 1) * 1024].reshape(n_ch, -1, 128)
        pick = (np.arange(n_ch)[:, None, None] * tiles.shape[1]
                + 8 * np.arange(n_fr)[None, :, None] + np.arange(16))
        got = blobs_from_windows(tiles, cfg, pick, mean[..., None], sd[..., None])
        normed = adapt_frames(frames, 0.05)
        want = np.stack([[blobs_from_windows(f.reshape(16, -1), cfg) for f in ch]
                         for ch in normed])
        assert got.shape == want.shape == (n_ch, n_fr, 16, cfg.feature_dim)
        assert relative_error(got, want) <= 1e-9
        dead = sd == 0.0
        assert dead[1].all() and dead[2, 0] and not dead[2, -1] and not dead[0].any()
        assert 0 < dead[3].sum() < n_fr
        dead_row = np.r_[np.full(NB, np.log(POWER_FLOOR)), np.zeros(4)]
        assert np.array_equal(got[dead], np.broadcast_to(dead_row, got[dead].shape))
        assert np.array_equal(want[dead], got[dead])

    def test_repeated_picks_equal_single_rows(self, rng):
        cfg = FeatureConfig()
        windows = 5.0 + rng.normal(0, 30, (6, 128))
        pick = np.array([[3, 0], [3, 5], [1, 3]])
        mean = np.array([[4.0], [6.5], [-2.0]])
        sd = np.array([[20.0], [0.0], [45.0]])
        got = blobs_from_windows(windows, cfg, pick, mean, sd)
        for r, c in np.ndindex(pick.shape):
            live = sd[r, 0] > 0.0
            w = (windows[pick[r, c]] - mean[r, 0]) / sd[r, 0] if live else np.zeros(128)
            want = blobs_from_windows(w, cfg)
            assert relative_error(got[r, c], want) <= 1e-12


class TestNormalizer:
    def make_blobs(self, rng, n=20):
        cfg = FeatureConfig()
        return blobs_from_windows(rng.normal(0, 30, (n, 16, 128)), cfg), cfg

    def test_self_normalization_is_standard(self, rng):
        blobs, _ = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        stack = standardize(blobs, stats, np.inf).reshape(-1, blobs.shape[-1])
        assert np.allclose(stack.mean(axis=0), 0.0, atol=1e-6)
        live = stats.std > STD_FLOOR
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
        live = stats.std > STD_FLOOR
        assert np.allclose(back[:, live], x[:, live], rtol=1e-9, atol=1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(ConfigurationError):
            fit_normalizer([np.zeros((1, 64))[:0]])


class TestFeatureConfig:
    @pytest.mark.parametrize("clip", [0.0, -1.0, float("nan")])
    def test_clip_must_be_positive(self, clip):
        with pytest.raises(ConfigurationError, match="clip must be positive"):
            FeatureConfig(clip=clip)

    @pytest.mark.parametrize("key", ["subwindows", "bank_bands"])
    def test_counts_must_be_positive(self, key):
        with pytest.raises(ConfigurationError, match=f"^{key} must be >= 1, got 0$"):
            FeatureConfig(**{key: 0})


class TestPipeline:
    @pytest.mark.parametrize("subwindows", [7, 3000])
    def test_subwindows_must_divide_frame(self, subwindows):
        with pytest.raises(ConfigurationError, match=f"not divisible by {subwindows}"):
            Pipeline(features=FeatureConfig(subwindows=subwindows))

    @pytest.mark.parametrize("frame_size, subwindows", [(64, 16), (2048, 512), (112, 16)])
    def test_subwindows_must_hold_8_samples(self, frame_size, subwindows):
        with pytest.raises(ConfigurationError,
                           match=r"^features\.subwindows: .* fewer than 8$"):
            Pipeline(FrameShaperConfig(frame_size), FeatureConfig(subwindows=subwindows))

    @pytest.mark.parametrize("features", [
        FeatureConfig(subwindows=32),                           # 64 samples: 26 Hz bins
        FeatureConfig(band_lo_hz=5.0, band_hi_hz=5.0),
        FeatureConfig(band_lo_hz=900.0, band_hi_hz=1000.0),     # above Nyquist
        FeatureConfig(bank_bands=200),
        FeatureConfig(band_lo_hz=800.0, band_hi_hz=5.0)])       # reversed
    def test_every_bank_band_must_hold_a_bin(self, features):
        with pytest.raises(ConfigurationError,
                           match=r"^features\.bank_bands, .* contains no spectrum bins"):
            Pipeline(features=features)

    def test_large_frame_builds_no_bins_by_bands_table(self):
        # A (bins x bands) table at 131,073 bins and 60 bands alone takes 63 MB.
        _spectral_tables.cache_clear()
        tracemalloc.start()
        try:
            Pipeline(FrameShaperConfig(frame_size=2**18), FeatureConfig(subwindows=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_dict_round_trip_uses_config_sections(self):
        p = Pipeline(FrameShaperConfig(1024, 4, 10.0, 700.0, 0.2),
                     FeatureConfig(subwindows=8, clip=3.0))
        doc = p.to_dict()
        assert doc["framing"] == {"frame_size": 1024, "overlap_factor": 4,
                                  "band_lo_hz": 10.0, "band_hi_hz": 700.0,
                                  "adapt_decay": 0.2}
        assert doc["features"]["subwindows"] == 8 and doc["features"]["clip"] == 3.0
        assert Pipeline.from_dict({**doc, "seed": 3}) == p
        assert Pipeline.from_dict(Pipeline().to_dict()) == Pipeline()

    @pytest.mark.parametrize("section, key, value", [
        ("framing", "frame_size", 0), ("framing", "adapt_decay", 2.0),
        ("features", "clip", 0.0)])
    def test_from_dict_names_the_section_of_a_range_error(self, section, key, value):
        doc = Pipeline().to_dict()
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=f"^{section}\\.{key} "):
            Pipeline.from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("framing", "frame_size", 2048.0),
        ("framing", "overlap_factor", True),
        ("features", "clip", "8"),
        ("features", "subwindows", None),
    ])
    def test_from_dict_rejects_mistyped_values(self, section, key, value):
        doc = Pipeline().to_dict()
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            Pipeline.from_dict(doc)

    @pytest.mark.parametrize("doc", [[], {}, {"framing": {}, "features": {}},
                                     {"framing": Pipeline().to_dict()["framing"]}])
    def test_from_dict_rejects_missing_sections_and_keys(self, doc):
        with pytest.raises(ConfigurationError):
            Pipeline.from_dict(doc)
