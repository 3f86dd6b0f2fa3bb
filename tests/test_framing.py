import numpy as np
import pytest

from fiberwatch import SAMPLE_RATE_HZ
from fiberwatch.errors import ConfigurationError
from fiberwatch.framing import (FrameShaperConfig, IntensityStream, adapt_frames,
                                frame_bounds, frame_count, frame_matrix,
                                primary_filter)


def tone(freq, duration_s=2.0, amp=100.0):
    t = np.arange(round(duration_s * SAMPLE_RATE_HZ)) / SAMPLE_RATE_HZ
    return amp * np.sin(2 * np.pi * freq * t)


def dft_amplitude(x, freq):
    """Single-bin DFT probe: amplitude of the component at freq."""
    t = np.arange(x.size) / SAMPLE_RATE_HZ
    c = np.exp(-2j * np.pi * freq * t)
    return 2.0 * abs(np.sum(x * c)) / x.size


class TestFrameShaper:
    def test_first_frame_covers_prefix(self):
        cfg = FrameShaperConfig(1024, 1)
        assert frame_bounds(0, cfg) == (0, 1023)

    def test_overlap_bounds_direct_substitution(self):
        cfg = FrameShaperConfig(1024, 2)
        assert frame_bounds(1, cfg) == (512, 1535)

    def test_ten_frame_stream_gives_19_frames(self):
        cfg = FrameShaperConfig(1024, 2)
        stream = IntensityStream(np.zeros((1, 10 * 1024)))
        assert frame_matrix(stream, cfg).shape == (1, 19, 1024)
        assert frame_count(10 * 1024, cfg) == 19

    @pytest.mark.parametrize("frame_size", [256, 1024, 2048])
    @pytest.mark.parametrize("overlap", list(range(1, 9)))
    def test_bounds_match_closed_form(self, frame_size, overlap):
        if frame_size % overlap:
            pytest.skip("frame_size not divisible")
        cfg = FrameShaperConfig(frame_size, overlap)
        for n in range(50):
            k_b, k_e = frame_bounds(n, cfg)
            assert k_b == n * frame_size // overlap
            assert k_e - k_b + 1 == frame_size
            nb_next, _ = frame_bounds(n + 1, cfg)
            assert nb_next - k_b == frame_size // overlap

    def test_no_overlap_tiles_stream_exactly(self):
        cfg = FrameShaperConfig(256, 1)
        data = np.arange(256 * 5, dtype=float)[None, :]
        frames = frame_matrix(IntensityStream(data), cfg)
        assert np.array_equal(frames[0].reshape(-1), data[0])

    def test_short_stream_yields_no_frames(self):
        cfg = FrameShaperConfig(2048, 2)
        frames = frame_matrix(IntensityStream(np.zeros((2, 100))), cfg)
        assert frames.shape == (2, 0, 2048)

    def test_frame_matrix_rows_match_frame_bounds(self, rng):
        cfg = FrameShaperConfig(256, 4)
        stream = IntensityStream(rng.normal(size=(3, 2000)))
        mat = frame_matrix(stream, cfg)
        assert mat.shape == (3, frame_count(2000, cfg), 256)
        for l in range(3):
            for n in range(mat.shape[1]):
                k_b, k_e = frame_bounds(n, cfg)
                assert np.array_equal(mat[l, n], stream.samples[l, k_b:k_e + 1])

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameShaperConfig(0, 1)
        with pytest.raises(ConfigurationError):
            FrameShaperConfig(1024, 9)
        with pytest.raises(ConfigurationError):
            FrameShaperConfig(1000, 3)


class TestPrimaryFilter:
    def test_in_band_tone_preserved(self):
        stream = IntensityStream(tone(400.0, duration_s=4.0)[None, :])
        out = primary_filter(stream, (5.0, 800.0))
        core = slice(1000, -1000)
        ratio = dft_amplitude(out.samples[0][core], 400.0) / \
            dft_amplitude(stream.samples[0][core], 400.0)
        assert abs(20 * np.log10(ratio)) < 1.0

    def test_dc_offset_rejected(self):
        stream = IntensityStream(np.full((1, 6000), 1000.0))
        out = primary_filter(stream, (5.0, 800.0))
        assert abs(out.samples[0].mean()) < 1.0

    def test_one_hz_attenuated_20db(self):
        stream = IntensityStream(tone(1.0, duration_s=6.0)[None, :])
        out = primary_filter(stream, (5.0, 800.0))
        atten = dft_amplitude(out.samples[0], 1.0) / dft_amplitude(stream.samples[0], 1.0)
        assert 20 * np.log10(atten) <= -20.0

    def test_linearity(self, rng):
        x = IntensityStream(rng.normal(size=(2, 4000)))
        y = IntensityStream(rng.normal(size=(2, 4000)))
        a, b = 2.5, -1.25
        combined = primary_filter(IntensityStream(a * x.samples + b * y.samples))
        separate = a * primary_filter(x).samples + b * primary_filter(y).samples
        scale = np.abs(separate).max()
        assert np.max(np.abs(combined.samples - separate)) < 1e-9 * scale

    def test_invalid_band_rejected(self):
        stream = IntensityStream(np.zeros((1, 100)))
        with pytest.raises(ConfigurationError):
            primary_filter(stream, (800.0, 5.0))
        with pytest.raises(ConfigurationError):
            primary_filter(stream, (5.0, 900.0))


class TestAdaptFrames:
    def test_constant_stream_goes_to_zero_after_warmup(self):
        out = adapt_frames(np.full((1, 5, 256), 42.0), 0.05)
        assert out.shape == (1, 5, 256)
        assert np.all(out == 0.0)

    def test_frozen_state_is_identity(self, rng):
        x = rng.normal(size=(1, 6, 512)) * np.arange(1, 7)[None, :, None]
        x[0, 0] = (x[0, 0] - x[0, 0].mean()) / x[0, 0].std()
        out = adapt_frames(x, 0.0)
        assert np.allclose(out, x, atol=1e-12)

    def test_decay_zero_freezes_at_first_frame_statistics(self, rng):
        x = rng.normal(5.0, 3.0, (2, 8, 256)) * rng.uniform(1, 50, (2, 8, 1))
        out = adapt_frames(x, 0.0)
        m0 = x[:, :1].mean(axis=2, keepdims=True)
        s0 = x[:, :1].std(axis=2, keepdims=True)
        assert np.allclose(out, (x - m0) / s0, rtol=1e-12, atol=1e-12)

    def test_degenerate_variance_still_updates(self, rng):
        x = rng.normal(0, 10, (1, 6, 64))
        x[0, 0] = 3.0
        out = adapt_frames(x, 0.5)
        assert np.all(out[0, 0] == 0.0)
        assert np.all(np.abs(out[0, 1:]).max(axis=1) > 0.0)

    def test_gain_step_recovers_rms(self, rng):
        decay = 0.05
        base = rng.normal(0, 10, (50, 256))
        stepped = rng.normal(0, 100, (int(10 / decay), 256))
        out = adapt_frames(np.concatenate([base, stepped])[None], decay)
        rms = np.sqrt(np.mean(out[0] ** 2, axis=1))
        assert abs(rms[-1] - rms[49]) <= 0.2 * rms[49]

    def test_dead_channel_gives_zeros_and_spares_the_others(self, rng):
        x = rng.normal(0, 30, (3, 10, 128))
        x[1] = 17.0
        out = adapt_frames(x, 0.05)
        assert np.all(out[1] == 0.0)
        assert np.array_equal(out[[0, 2]], adapt_frames(x[[0, 2]], 0.05))
        assert np.all(np.abs(out[[0, 2]]).max(axis=2) > 0.0)

    def test_index_picks_grid_entries(self, rng):
        x = rng.normal(0, 30, (3, 10, 64))
        chans, frames = np.array([2, 0, 1]), np.array([9, 0, 4])
        picked = adapt_frames(x, 0.05, (chans, frames))
        assert np.array_equal(picked, adapt_frames(x, 0.05)[chans, frames])

    @pytest.mark.parametrize("decay", [-3.0, -1e-9, 1.5, float("nan")])
    def test_decay_outside_unit_interval_rejected(self, decay):
        with pytest.raises(ConfigurationError):
            adapt_frames(np.zeros((1, 2, 64)), decay)
