import numpy as np
import pytest
from scipy import signal

from fiberwatch import SAMPLE_RATE_HZ
from fiberwatch.errors import ConfigurationError
from fiberwatch.framing import FrameShaperConfig, frame_bounds
from fiberwatch.siggen import (ClassProfile, EventSpec, ScenarioSpec,
                               default_profiles, generate_dataset,
                               generate_stream, ground_truth, load_stream,
                               render_scenario, save_dataset)


class TestProfiles:
    def test_default_set_covers_all_classes(self):
        profiles = default_profiles()
        assert sorted(profiles) == list(range(7))
        for c, p in profiles.items():
            assert p.class_id == c

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassProfile(1, ((900.0, 10.0, 5.0),))

    def test_negative_burst_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassProfile(1, (), impulsiveness=-1.0)


class TestGenerateStream:
    def test_bit_identical_for_same_arguments(self):
        prof = default_profiles()[2]
        a = generate_stream(prof, 1.0, 4, seed=7)
        b = generate_stream(prof, 1.0, 4, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        prof = default_profiles()[2]
        a = generate_stream(prof, 1.0, 2, seed=7)
        b = generate_stream(prof, 1.0, 2, seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_count_and_range(self):
        stream = generate_stream(default_profiles()[0], 1.5, 3, seed=0)
        assert stream.sample_count == round(1.5 * SAMPLE_RATE_HZ)
        assert stream.channel_count == 3
        assert np.max(np.abs(stream.samples)) <= 32768

    def test_psd_peak_lands_in_configured_band(self):
        # Welch periodogram oracle on a single 100 Hz bump.
        prof = ClassProfile(3, ((100.0, 10.0, 10.0),), 0.0, 0.0, 30.0)
        stream = generate_stream(prof, 60.0, 1, seed=3)
        freqs, psd = signal.welch(stream.samples[0], fs=SAMPLE_RATE_HZ, nperseg=2048)
        assert 90.0 <= freqs[np.argmax(psd)] <= 110.0

    @pytest.mark.parametrize("center,width", [(50.0, 8.0), (300.0, 20.0), (620.0, 30.0)])
    def test_psd_peak_within_one_width(self, center, width):
        prof = ClassProfile(1, ((center, width, 12.0),), 0.0, 0.0, 30.0)
        stream = generate_stream(prof, 40.0, 1, seed=11)
        freqs, psd = signal.welch(stream.samples[0], fs=SAMPLE_RATE_HZ, nperseg=4096)
        assert abs(freqs[np.argmax(psd)] - center) <= width

    def test_flat_profile_is_gaussian(self):
        # Sample-kurtosis oracle: colored-noise synthesis keeps Gaussianity.
        prof = ClassProfile(0, (), 0.0, 0.0, 30.0)
        stream = generate_stream(prof, 80.0, 1, seed=1)
        x = stream.samples[0]
        assert x.size >= 100_000
        d = x - x.mean()
        m2 = np.mean(d ** 2)
        kurt = np.mean(d ** 4) / m2 ** 2 - 3.0
        assert abs(kurt) <= 0.2

    def test_impulsiveness_raises_kurtosis(self):
        quiet = ClassProfile(0, (), 0.0, 0.0, 30.0)
        spiky = ClassProfile(0, (), 8.0, 0.0, 30.0)
        def kurt(profile):
            x = generate_stream(profile, 30.0, 1, seed=5).samples[0]
            d = x - x.mean()
            return np.mean(d ** 4) / np.mean(d ** 2) ** 2 - 3.0
        assert kurt(spiky) > kurt(quiet) + 0.5

    def test_amplitude_sets_rms(self):
        prof = ClassProfile(0, (), 0.0, 0.0, 40.0)
        x = generate_stream(prof, 10.0, 1, seed=2).samples[0]
        rms_db = 20 * np.log10(np.sqrt(np.mean(x ** 2)))
        assert rms_db == pytest.approx(40.0, abs=0.5)

    def test_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            generate_stream(default_profiles()[0], 0.0, 1, seed=0)


class TestRenderScenario:
    def test_no_events_pure_background(self):
        spec = ScenarioSpec(4.0, 2, default_profiles()[0], (), seed=9)
        stream, truth = render_scenario(spec)
        assert truth == []
        bg = generate_stream(default_profiles()[0], 4.0, 2, seed=9)
        assert np.array_equal(stream.samples, bg.samples)

    def test_single_event_center_channel(self):
        ev = EventSpec(6, 10.0, 20.0, 5, 7)
        spec = ScenarioSpec(30.0, 8, default_profiles()[0], (ev,), seed=4)
        _, truth = render_scenario(spec)
        assert len(truth) == 1
        assert truth[0].class_id == 6
        assert truth[0].center_channel == 6

    def test_two_disjoint_events_in_order(self):
        evs = (EventSpec(2, 5.0, 12.0, 0, 1), EventSpec(5, 5.0, 12.0, 3, 4))
        spec = ScenarioSpec(20.0, 6, default_profiles()[0], evs, seed=4)
        _, truth = render_scenario(spec)
        assert [t.class_id for t in truth] == [2, 5]

    def test_overlapping_events_rejected(self):
        evs = (EventSpec(2, 5.0, 12.0, 0, 2), EventSpec(5, 8.0, 15.0, 2, 4))
        with pytest.raises(ConfigurationError):
            ScenarioSpec(20.0, 6, default_profiles()[0], evs, seed=4)

    def test_ground_truth_cells_never_overlap(self):
        # same channels, back-to-back in time; same time span, split channels
        evs = (EventSpec(2, 4.0, 10.0, 0, 2), EventSpec(5, 10.0, 16.0, 0, 2),
               EventSpec(6, 4.0, 10.0, 3, 5))
        spec = ScenarioSpec(20.0, 6, default_profiles()[0], evs, seed=8)
        _, truth = render_scenario(spec)
        cells = set()
        for t in truth:
            for n in range(t.frame_begin, t.frame_end + 1):
                for l in range(t.chan_lo, t.chan_hi + 1):
                    assert (n, l) not in cells
                    cells.add((n, l))

    def test_event_mixes_additively(self):
        ev = EventSpec(6, 2.0, 6.0, 0, 0, overrides=(("amplitude_db", 50.0),))
        spec = ScenarioSpec(8.0, 1, default_profiles()[0], (ev,), seed=4)
        with_event, _ = render_scenario(spec)
        without, _ = render_scenario(ScenarioSpec(8.0, 1, default_profiles()[0], (), seed=4))
        inside = slice(round(2.5 * SAMPLE_RATE_HZ), round(5.5 * SAMPLE_RATE_HZ))
        boost = with_event.samples[0][inside].std() / without.samples[0][inside].std()
        assert boost > 3.0

    def test_ground_truth_frames_fully_inside_event(self):
        cfg = FrameShaperConfig(2048, 2)
        ev = EventSpec(3, 10.0, 20.0, 0, 0)
        spec = ScenarioSpec(30.0, 1, default_profiles()[0], (ev,), seed=0)
        truth = ground_truth(spec, cfg)[0]
        s0 = round(10.0 * SAMPLE_RATE_HZ)
        s1 = round(20.0 * SAMPLE_RATE_HZ) - 1
        k_b, _ = frame_bounds(truth.frame_begin, cfg)
        _, k_e = frame_bounds(truth.frame_end, cfg)
        assert k_b >= s0 and k_e <= s1
        # one step earlier/later would poke outside
        assert frame_bounds(truth.frame_begin - 1, cfg)[0] < s0
        assert frame_bounds(truth.frame_end + 1, cfg)[1] > s1


class TestGenerateDataset:
    def test_uniform_class_shares(self):
        manifest = generate_dataset(frames_per_class=100, seed=1)
        counts = manifest.class_counts()
        assert sum(counts.values()) == 700
        assert all(counts[c] == 100 for c in range(7))

    def test_split_disjoint_by_scenario(self):
        manifest = generate_dataset(frames_per_class=64, seed=2)
        train_sids = {e.scenario_id for e in manifest.entries if e.split == "train"}
        test_sids = {e.scenario_id for e in manifest.entries if e.split == "test"}
        assert train_sids and test_sids
        assert not (train_sids & test_sids)

    def test_default_ratio_near_7_to_1(self):
        manifest = generate_dataset(frames_per_class=160, seed=3)
        n_train = sum(1 for e in manifest.entries if e.split == "train")
        n_test = sum(1 for e in manifest.entries if e.split == "test")
        assert n_train / n_test == pytest.approx(7.0, rel=0.05)

    def test_same_seed_identical_manifest(self):
        a = generate_dataset(frames_per_class=40, seed=4)
        b = generate_dataset(frames_per_class=40, seed=4)
        assert a.entries == b.entries
        assert a.scenarios == b.scenarios

    def test_no_duplicate_cells(self):
        manifest = generate_dataset(frames_per_class=80, seed=5)
        cells = [(e.scenario_id, e.frame_index, e.channel) for e in manifest.entries]
        assert len(cells) == len(set(cells))

    def test_save_and_reload_stream(self, tmp_path):
        manifest = generate_dataset(frames_per_class=16, seed=6,
                                    scenarios_per_class=2, channels=2,
                                    split_ratio=1)
        out = save_dataset(manifest, tmp_path / "ds")
        assert (out / "meta.json").exists()
        assert (out / "manifest.jsonl").exists()
        sid = next(iter(manifest.scenarios))
        stream, _ = render_scenario(manifest.scenarios[sid], manifest.framing)
        back = load_stream(out / "scenarios" / f"{sid}.i16", 2)
        assert np.array_equal(back.samples, stream.samples)

    @pytest.mark.parametrize("n_bytes,channels", [(2 * 7, 2), (2 * 6 + 1, 2), (12, 0)])
    def test_load_stream_rejects_ragged_files(self, tmp_path, n_bytes, channels):
        path = tmp_path / "ragged.i16"
        path.write_bytes(bytes(n_bytes))
        with pytest.raises(ConfigurationError):
            load_stream(path, channels)
