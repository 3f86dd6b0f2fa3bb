import numpy as np
import pytest

from fiberwatch import SAMPLE_RATE_HZ
from fiberwatch.errors import ConfigurationError, DegenerateFrameError
from fiberwatch.features import (POWER_FLOOR, FeatureConfig, NormalizerStats,
                                 band_powers, blobs_from_windows,
                                 build_feature_blob, denormalize,
                                 filter_bank_energies, fit_normalizer,
                                 normalize_blob, power_spectrum, time_stats)
from fiberwatch.framing import IntensityFrame


class TestPowerSpectrum:
    def test_sine_at_bin_center_peaks_there(self):
        n = 512
        bin_idx = 40
        freq = bin_idx * SAMPLE_RATE_HZ / n
        t = np.arange(n) / SAMPLE_RATE_HZ
        spec = power_spectrum(np.sin(2 * np.pi * freq * t))
        assert int(np.argmax(spec.power)) == bin_idx

    def test_all_zero_input_gives_zero_spectrum(self):
        spec = power_spectrum(np.zeros(256))
        assert np.all(spec.power == 0.0)

    def test_zero_padding_to_power_of_two(self):
        spec = power_spectrum(np.ones(100))
        assert spec.power.shape[0] == 128 // 2 + 1

    def test_too_short_input_rejected(self):
        with pytest.raises(ConfigurationError):
            power_spectrum(np.zeros(4))

    def test_white_noise_flat_within_1db(self, rng):
        # Monte-Carlo averaging oracle: 1e4 windows of white noise.
        windows = rng.standard_normal((10_000, 128))
        acc = np.zeros(65)
        for w in windows:
            acc += power_spectrum(w).power
        acc /= windows.shape[0]
        mid = acc[4:-4]
        db_spread = 10 * np.log10(mid.max() / mid.min())
        assert db_spread < 1.0


class TestTimeStats:
    def test_two_point_symmetric(self):
        kurt, skew, rms, peak = time_stats(np.array([-1.0, 1.0, -1.0, 1.0]))
        assert skew == pytest.approx(0.0, abs=1e-12)
        assert kurt == pytest.approx(-2.0, abs=1e-12)
        assert rms == pytest.approx(1.0)
        assert peak == pytest.approx(1.0)

    def test_hand_computed_skewness(self):
        # moments for {0,0,0,1}: m2 = 0.1875, m3 = 0.09375
        kurt, skew, rms, peak = time_stats(np.array([0.0, 0.0, 0.0, 1.0]))
        assert skew == pytest.approx(0.09375 / 0.1875 ** 1.5, abs=1e-9)
        assert skew == pytest.approx(1.1547, abs=1e-4)

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateFrameError):
            time_stats(np.full(16, 3.0))

    def test_gaussian_sanity(self, rng):
        kurt, skew, _, _ = time_stats(rng.standard_normal(200_000))
        assert abs(kurt) < 0.1
        assert abs(skew) < 0.05


class TestFilterBank:
    def edges(self, n):
        return np.linspace(0.0, SAMPLE_RATE_HZ / 2, n + 1)

    def test_zero_spectrum_floors_every_band(self):
        spec = power_spectrum(np.zeros(256))
        e = filter_bank_energies(spec, self.edges(10))
        assert np.allclose(e, np.log(POWER_FLOOR))

    def test_single_bin_lights_single_band(self):
        spec = power_spectrum(np.zeros(256))
        spec.power[30] = 1e6
        e = filter_bank_energies(spec, self.edges(10))
        above = np.nonzero(e > np.log(POWER_FLOOR) + 1e-9)[0]
        assert above.size == 1

    def test_doubling_adds_log2(self, rng):
        spec = power_spectrum(rng.normal(0, 100, 512))
        edges = self.edges(12)
        e1 = filter_bank_energies(spec, edges)
        spec.power *= 2.0
        e2 = filter_bank_energies(spec, edges)
        assert np.allclose(e2 - e1, np.log(2.0), atol=1e-12)

    def test_empty_band_rejected(self):
        spec = power_spectrum(np.zeros(256))
        bad = np.array([0.0, 1.0, 2.0, 800.0])   # 1-2 Hz band has no bins
        with pytest.raises(ConfigurationError):
            filter_bank_energies(spec, bad)

    def test_band_powers_conserve_total(self, rng):
        # Parseval-style: full-range contiguous bands sum to the whole spectrum.
        spec = power_spectrum(rng.normal(0, 50, 1024))
        totals = band_powers(spec, self.edges(16)).sum()
        # include the Nyquist bin, which falls on the last edge
        expected = spec.power[:-1].sum()
        assert totals == pytest.approx(expected, rel=1e-6)


class TestFeatureBlob:
    def test_default_shape(self, rng):
        frame = IntensityFrame(3, 1, rng.normal(0, 30, 2048))
        blob = build_feature_blob(frame, FeatureConfig())
        assert blob.values.shape == (16, 64)
        assert blob.frame_index == 3 and blob.channel_index == 1

    def test_all_zero_frame_is_deterministic_constant(self):
        cfg = FeatureConfig()
        blob = build_feature_blob(IntensityFrame(0, 0, np.zeros(2048)), cfg)
        assert np.allclose(blob.values[:, :cfg.bank_bands], np.log(POWER_FLOOR))
        assert np.allclose(blob.values[:, cfg.bank_bands:], 0.0)

    def test_identical_frames_identical_blobs(self, rng):
        x = rng.normal(0, 30, 2048)
        cfg = FeatureConfig()
        b1 = build_feature_blob(IntensityFrame(0, 0, x), cfg)
        b2 = build_feature_blob(IntensityFrame(0, 0, x.copy()), cfg)
        assert np.array_equal(b1.values, b2.values)

    def test_indivisible_frame_rejected(self):
        with pytest.raises(ConfigurationError):
            build_feature_blob(IntensityFrame(0, 0, np.zeros(2050)), FeatureConfig())


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
            log_e = filter_bank_energies(power_spectrum(w), cfg.band_edges())
            try:
                stats = time_stats(w)
            except DegenerateFrameError:
                stats = (0.0, 0.0, 0.0, 0.0)
            want = np.concatenate([log_e, stats])
            np.testing.assert_allclose(got[idx], want, rtol=1e-12, atol=1e-12)
        assert np.all(got[2, 1, cfg.bank_bands:] == 0.0)


class TestNormalizer:
    def make_blobs(self, rng, n=20):
        cfg = FeatureConfig()
        return [build_feature_blob(IntensityFrame(i, 0, rng.normal(0, 30, 2048)), cfg)
                for i in range(n)], cfg

    def test_self_normalization_is_standard(self, rng):
        blobs, _ = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        stack = np.concatenate([normalize_blob(b, stats, clip=None).values
                                for b in blobs], axis=0)
        assert np.allclose(stack.mean(axis=0), 0.0, atol=1e-6)
        live = stats.std > stats.std_eps
        assert np.allclose(stack.std(axis=0)[live], 1.0, atol=1e-6)

    def test_identity_stats(self, rng):
        blobs, _ = self.make_blobs(rng, n=2)
        dim = blobs[0].values.shape[1]
        stats = NormalizerStats(np.zeros(dim), np.ones(dim))
        out = normalize_blob(blobs[0], stats, clip=None)
        assert np.allclose(out.values, blobs[0].values)

    def test_outlier_bounded_by_clip(self, rng):
        blobs, cfg = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        wild = blobs[0].values.copy()
        wild[5, 62] = 1e9
        from fiberwatch.features import FeatureBlob
        out = normalize_blob(FeatureBlob(wild), stats, clip=cfg.clip)
        assert np.max(np.abs(out.values)) <= cfg.clip

    def test_round_trip_where_std_above_eps(self, rng):
        blobs, _ = self.make_blobs(rng)
        stats = fit_normalizer(blobs)
        x = blobs[3].values
        back = denormalize(normalize_blob(blobs[3], stats, clip=None).values, stats)
        live = stats.std > stats.std_eps
        assert np.allclose(back[:, live], x[:, live], rtol=1e-9, atol=1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(ConfigurationError):
            fit_normalizer([np.zeros((1, 64))[:0]])
