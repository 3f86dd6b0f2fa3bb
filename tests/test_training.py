import numpy as np
import pytest

from fiberwatch import SAMPLE_RATE_HZ
from fiberwatch.ensemble import EnsembleModel, default_thresholds, predict_fused
from fiberwatch.errors import ConfigurationError, DivergenceError
from fiberwatch.features import FeatureConfig, NormalizerStats, standardize
from fiberwatch.framing import FrameShaperConfig, IntensityStream
from fiberwatch.siggen import DatasetManifest, ManifestEntry
from fiberwatch.tensornet import DenseSpec, Network, NetworkSpec, ReluSpec
from fiberwatch.training import (TrainConfig, cross_entropy_loss, one_hot,
                                 relabel_dataset, split_dataset, stream_features,
                                 stream_scores, train_member)

BLOB_SHAPE = (4, 6)


def toy_clusters(rng, per_class=30, spread=0.05):
    """7 well-separated Gaussian blobs in feature space."""
    xs, ys = [], []
    for c in range(7):
        center = np.zeros(BLOB_SHAPE)
        center[c % 4, c % 6] = 3.0
        center[(c + 1) % 4, (c * 2) % 6] = -2.0
        xs.append(center + spread * rng.standard_normal((per_class,) + BLOB_SHAPE))
        ys.append(np.full(per_class, c))
    return np.concatenate(xs), np.concatenate(ys)


def toy_net(seed=0):
    return Network(NetworkSpec(BLOB_SHAPE, (DenseSpec(24), ReluSpec())), seed=seed)


class TestCrossEntropy:
    def test_perfect_one_hot_predictions(self):
        t = one_hot(np.array([0, 3, 6]))
        assert cross_entropy_loss(t, t) <= 1e-11

    def test_uniform_predictions_ln7(self):
        p = np.full((10, 7), 1.0 / 7.0)
        t = one_hot(np.arange(10) % 7)
        assert cross_entropy_loss(p, t) == pytest.approx(np.log(7.0), abs=1e-12)

    def test_half_confidence_ln2(self):
        p = np.array([[0.5, 0.5, 0, 0, 0, 0, 0]])
        t = one_hot(np.array([0]))
        assert cross_entropy_loss(p, t) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            p = rng.dirichlet(np.ones(7), size=8)
            t = one_hot(rng.integers(0, 7, 8))
            assert cross_entropy_loss(p, t) >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            cross_entropy_loss(np.zeros((0, 7)), np.zeros((0, 7)))


class TestTrainMember:
    def test_separable_toy_reaches_full_accuracy(self, rng):
        x, y = toy_clusters(rng)
        xt, yt = toy_clusters(np.random.default_rng(999), per_class=10)
        cfg = TrainConfig(epochs=50, batch_size=16, lr=0.1, momentum=0.9,
                          weight_decay=1e-5, seed=0)
        best, history = train_member(toy_net(), (x, y), (xt, yt), cfg)
        assert max(r.test_accuracy for r in history.records) == 1.0
        # returned parameters are the best-epoch snapshot
        from fiberwatch.training import evaluate_accuracy
        assert evaluate_accuracy(best, xt, yt) == 1.0

    def test_zero_lr_keeps_parameters(self, rng):
        x, y = toy_clusters(rng, per_class=5)
        net = toy_net(seed=3)
        before = [p.copy() for p in net.parameters()]
        cfg = TrainConfig(epochs=3, batch_size=8, lr=0.0, seed=0)
        best, history = train_member(net, (x, y), (x, y), cfg)
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)
        accs = {r.test_accuracy for r in history.records}
        assert len(accs) == 1

    def test_same_seed_identical_history(self, rng):
        x, y = toy_clusters(rng, per_class=8)
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.05, momentum=0.9, seed=42)
        b1, h1 = train_member(toy_net(1), (x, y), (x, y), cfg)
        b2, h2 = train_member(toy_net(1), (x, y), (x, y), cfg)
        assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]
        assert [r.test_accuracy for r in h1.records] == [r.test_accuracy for r in h2.records]
        for p, q in zip(b1.parameters(), b2.parameters()):
            assert np.array_equal(p, q)

    def test_divergence_aborts_with_last_good(self, rng):
        x, y = toy_clusters(rng, per_class=5)
        net = toy_net(seed=4)
        cfg = TrainConfig(epochs=10, batch_size=8, lr=1e9, momentum=0.9, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                train_member(net, (x, y), (x, y), cfg)
        assert err.value.last_good is not None

    def test_early_stop_caps_epochs(self, rng):
        x, y = toy_clusters(rng)
        cfg = TrainConfig(epochs=50, batch_size=16, lr=0.1, momentum=0.9,
                          seed=0, early_stop_acc=0.9)
        _, history = train_member(toy_net(), (x, y), (x, y), cfg)
        assert len(history.records) < 50
        assert history.records[-1].test_accuracy >= 0.9


class TestRelabel:
    def trained_model(self, rng):
        x, y = toy_clusters(rng, per_class=20)
        members = []
        for j in range(3):
            cfg = TrainConfig(epochs=40, batch_size=16, lr=0.1, momentum=0.9, seed=j)
            best, _ = train_member(toy_net(seed=j), (x, y), (x, y), cfg)
            members.append(best)
        return EnsembleModel(members, default_thresholds()), x, y

    def test_agreeing_labels_unchanged(self, rng):
        model, x, y = self.trained_model(rng)
        new_labels, changes = relabel_dataset(model, x, y, np.full(7, 0.5))
        assert changes == []
        assert np.array_equal(new_labels, y)

    def test_planted_mislabel_flips_back(self, rng):
        model, x, y = self.trained_model(rng)
        corrupted = y.copy()
        corrupted[7] = (y[7] + 3) % 7
        new_labels, changes = relabel_dataset(model, x, corrupted, np.full(7, 0.5),
                                              confidence=0.9)
        assert len(changes) == 1
        assert changes[0].index == 7
        assert changes[0].new_class == y[7]
        assert np.array_equal(new_labels, y)

    def test_unreachable_threshold_changes_nothing(self, rng):
        model, x, y = self.trained_model(rng)
        corrupted = y.copy()
        corrupted[::5] = (corrupted[::5] + 1) % 7
        new_labels, changes = relabel_dataset(model, x, corrupted, np.full(7, 0.5),
                                              confidence=1.01)
        assert changes == []
        assert np.array_equal(new_labels, corrupted)

    def test_never_more_changes_than_disagreements(self, rng):
        model, x, y = self.trained_model(rng)
        corrupted = y.copy()
        corrupted[:11] = (corrupted[:11] + 2) % 7
        _, changes = relabel_dataset(model, x, corrupted, np.full(7, 0.5),
                                     confidence=0.0 + 1e-9)
        assert len(changes) <= 11


def synthetic_manifest(per_scenario, scenarios_per_class, classes=(0,)):
    cfg = FrameShaperConfig(2048, 2)
    entries = []
    for c in classes:
        for s in range(scenarios_per_class):
            sid = f"c{c}_s{s:03d}"
            entries.extend(ManifestEntry(c, "train", sid, n, 0)
                           for n in range(per_scenario))
    return DatasetManifest(entries, {}, cfg, seed=0)


class TestSplitDataset:
    def test_exact_600_100_split(self):
        # 700 frames in 7 scenarios; ratio 6 -> one whole scenario to test.
        manifest = synthetic_manifest(per_scenario=100, scenarios_per_class=7)
        train, test = split_dataset(manifest, ratio=6, seed=0)
        assert len(train.entries) == 600
        assert len(test.entries) == 100
        train_sids = {e.scenario_id for e in train.entries}
        test_sids = {e.scenario_id for e in test.entries}
        assert not (train_sids & test_sids)

    def test_test_shares_exactly_equal(self):
        manifest = synthetic_manifest(per_scenario=10, scenarios_per_class=8,
                                      classes=range(7))
        train, test = split_dataset(manifest, ratio=7, seed=1)
        counts = test.class_counts()
        assert len(set(counts.values())) == 1

    def test_unequal_scenarios_balanced_by_subsampling(self):
        cfg = FrameShaperConfig(2048, 2)
        entries = []
        sizes = {0: 30, 1: 18, 2: 24, 3: 30, 4: 12, 5: 30, 6: 30}
        for c, size in sizes.items():
            for s in range(8):
                entries.extend(ManifestEntry(c, "train", f"c{c}_s{s}", n, 0)
                               for n in range(size))
        manifest = DatasetManifest(entries, {}, cfg, seed=0)
        _, test = split_dataset(manifest, ratio=7, seed=2)
        counts = test.class_counts()
        assert len(set(counts.values())) == 1
        assert set(counts.values()) == {min(sizes.values())}

    def test_same_seed_same_split(self):
        manifest = synthetic_manifest(per_scenario=10, scenarios_per_class=8,
                                      classes=range(7))
        a = split_dataset(manifest, ratio=7, seed=5)
        b = split_dataset(manifest, ratio=7, seed=5)
        assert a[0].entries == b[0].entries
        assert a[1].entries == b[1].entries

    def test_class_without_scenarios_rejected(self):
        manifest = synthetic_manifest(per_scenario=4, scenarios_per_class=1)
        with pytest.raises(ConfigurationError):
            split_dataset(manifest, ratio=6, seed=0)

    def test_split_of_generated_manifest(self):
        from fiberwatch.siggen import generate_dataset
        manifest = generate_dataset(frames_per_class=64, seed=9,
                                    scenarios_per_class=8, channels=2)
        train, test = split_dataset(manifest, ratio=7, seed=3)
        train_sids = {e.scenario_id for e in train.entries}
        test_sids = {e.scenario_id for e in test.entries}
        assert train_sids and test_sids and not (train_sids & test_sids)
        counts = test.class_counts()
        assert len(set(counts.values())) == 1


class TestStreamPipeline:
    def stream(self, rng, channels=3, seconds=4):
        return IntensityStream(rng.normal(0, 200, (channels, seconds * SAMPLE_RATE_HZ)))

    def test_cells_run_channel_by_channel(self, rng):
        blobs, cells = stream_features(self.stream(rng), FrameShaperConfig(),
                                       FeatureConfig())
        n_frames = len(cells) // 3
        assert cells == [(n, l) for l in range(3) for n in range(n_frames)]
        assert blobs.shape == (len(cells), 16, 64)

    def test_selected_cells_equal_full_rows(self, rng):
        stream = self.stream(rng)
        full, cells = stream_features(stream, FrameShaperConfig(), FeatureConfig())
        pick = [cells[4], cells[0], cells[-1]]
        part, _ = stream_features(stream, FrameShaperConfig(), FeatureConfig(),
                                  cells=pick)
        assert np.array_equal(part, full[[4, 0, len(cells) - 1]])

    def test_subwindows_must_divide_frame(self, rng):
        with pytest.raises(ConfigurationError, match="not divisible by 7"):
            stream_features(self.stream(rng), FrameShaperConfig(),
                            FeatureConfig(subwindows=7))

    def test_score_grid_holds_each_cell_fused_vector(self, rng):
        stream = self.stream(rng)
        spec = NetworkSpec((16, 64), (DenseSpec(8),))
        model = EnsembleModel([Network(spec, seed=j) for j in range(3)],
                              default_thresholds(),
                              NormalizerStats(np.full(64, 1.0), np.full(64, 2.0)))
        ft_cfg = FeatureConfig(clip=1.5)
        grid = stream_scores(stream, model, FrameShaperConfig(), ft_cfg,
                             fusion="max_confidence")
        blobs, cells = stream_features(stream, FrameShaperConfig(), ft_cfg)
        fused = predict_fused(model, standardize(blobs, model.normalizer, 1.5),
                              "max_confidence")
        assert grid.shape == (len(cells) // 3, 3, 7) and grid.flags.c_contiguous
        for (n, l), vec in zip(cells, fused):
            assert np.array_equal(grid[n, l], vec)
