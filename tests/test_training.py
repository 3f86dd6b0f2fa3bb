import numpy as np
import pytest

from fiberwatch import SAMPLE_RATE_HZ, tensornet
from fiberwatch.ensemble import EnsembleModel, predict_fused
from fiberwatch.errors import ConfigurationError, DivergenceError
from fiberwatch.features import (FeatureConfig, NormalizerStats, Pipeline, blobs_from_windows,
                                 standardize)
from fiberwatch.framing import FrameShaperConfig, IntensityStream, frame_matrix, primary_filter
from fiberwatch.siggen import DatasetConfig, generate_dataset, save_dataset
from fiberwatch.tensornet import (DenseSpec, Network, NetworkSpec, ReluSpec,
                                  reference_member_specs)
from fiberwatch.training import (TrainConfig, cross_entropy_loss, dataset_labels,
                                 load_dataset_features, one_hot, relabel_dataset,
                                 stream_features, stream_scores, train_member)
from frame_oracle import adapt_frames
from pool_oracle import PoolOracle

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
                          weight_decay=1e-5)
        best, history = train_member(toy_net(), (x, y), (xt, yt), cfg, 0)
        assert max(r.test_accuracy for r in history.records) == 1.0
        # returned parameters are the best-epoch snapshot
        from fiberwatch.training import evaluate_accuracy
        assert evaluate_accuracy(best, xt, yt) == 1.0

    def test_zero_lr_keeps_parameters(self, rng):
        x, y = toy_clusters(rng, per_class=5)
        net = toy_net(seed=3)
        before = [p.copy() for p in net.parameters()]
        cfg = TrainConfig(epochs=3, batch_size=8, lr=0.0)
        best, history = train_member(net, (x, y), (x, y), cfg, 0)
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)
        accs = {r.test_accuracy for r in history.records}
        assert len(accs) == 1

    def test_same_seed_identical_history(self, rng):
        x, y = toy_clusters(rng, per_class=8)
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.05, momentum=0.9)
        b1, h1 = train_member(toy_net(1), (x, y), (x, y), cfg, 42)
        b2, h2 = train_member(toy_net(1), (x, y), (x, y), cfg, 42)
        assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]
        assert [r.test_accuracy for r in h1.records] == [r.test_accuracy for r in h2.records]
        for p, q in zip(b1.parameters(), b2.parameters()):
            assert np.array_equal(p, q)

    def test_divergence_aborts_with_last_good(self, rng):
        x, y = toy_clusters(rng, per_class=5)
        net = toy_net(seed=4)
        cfg = TrainConfig(epochs=10, batch_size=8, lr=1e9, momentum=0.9)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                train_member(net, (x, y), (x, y), cfg, 0)
        assert err.value.last_good is not None

    def test_trains_to_the_bytes_of_the_argmax_pool_oracle(self, rng, monkeypatch):
        # Inputs at 0 or +-clip, one all-zero row, and small-integer kernels
        # (biases start at 0): until the first steps move them, conv outputs
        # are small integers and the pool windows are full of ties.
        clip = FeatureConfig().clip
        spec = reference_member_specs()[0]
        x = rng.integers(-1, 2, (40,) + spec.input_shape) * clip
        x[0] = 0
        y = np.arange(40) % 7
        kernels = rng.integers(-1, 2, (8, 1, 3, 3)), rng.integers(-1, 2, (16, 8, 3, 3))

        def trained():
            net = Network(spec, seed=2)
            net.parameters()[0][...], net.parameters()[2][...] = kernels
            best, _ = train_member(net, (x, y), (x, y), TrainConfig(epochs=3, batch_size=16), 5)
            return [p.tobytes() for p in net.parameters() + best.parameters()]

        got = trained()
        monkeypatch.setattr(tensornet, "_Pool", PoolOracle)
        assert trained() == got

    def test_early_stop_caps_epochs(self, rng):
        x, y = toy_clusters(rng)
        cfg = TrainConfig(epochs=50, batch_size=16, lr=0.1, momentum=0.9,
                          early_stop_acc=0.9)
        _, history = train_member(toy_net(), (x, y), (x, y), cfg, 0)
        assert len(history.records) < 50
        assert history.records[-1].test_accuracy >= 0.9


class TestRelabel:
    def trained_model(self, rng):
        x, y = toy_clusters(rng, per_class=20)
        members = []
        for j in range(3):
            cfg = TrainConfig(epochs=40, batch_size=16, lr=0.1, momentum=0.9)
            best, _ = train_member(toy_net(seed=j), (x, y), (x, y), cfg, j)
            members.append(best)
        return EnsembleModel(members, NormalizerStats(np.zeros(64), np.ones(64))), x, y

    def test_agreeing_labels_unchanged(self, rng):
        model, x, y = self.trained_model(rng)
        new_labels, changes = relabel_dataset(model, x, y, 0.5, confidence=0.95)
        assert changes == []
        assert np.array_equal(new_labels, y)

    def test_planted_mislabel_flips_back(self, rng):
        model, x, y = self.trained_model(rng)
        corrupted = y.copy()
        corrupted[7] = (y[7] + 3) % 7
        new_labels, changes = relabel_dataset(model, x, corrupted, 0.5,
                                              confidence=0.9)
        assert len(changes) == 1
        assert changes[0].index == 7
        assert changes[0].new_class == y[7]
        assert np.array_equal(new_labels, y)

    def test_unreachable_threshold_changes_nothing(self, rng):
        model, x, y = self.trained_model(rng)
        corrupted = y.copy()
        corrupted[::5] = (corrupted[::5] + 1) % 7
        new_labels, changes = relabel_dataset(model, x, corrupted, 0.5,
                                              confidence=1.01)
        assert changes == []
        assert np.array_equal(new_labels, corrupted)

    def test_never_more_changes_than_disagreements(self, rng):
        model, x, y = self.trained_model(rng)
        corrupted = y.copy()
        corrupted[:11] = (corrupted[:11] + 2) % 7
        _, changes = relabel_dataset(model, x, corrupted, 0.5,
                                     confidence=0.0 + 1e-9)
        assert len(changes) <= 11


class TestLoadDataset:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        manifest = generate_dataset(DatasetConfig(frames_per_class=8, scenarios_per_class=2,
                                                  channels=2, split_ratio=1), 4,
                                    FrameShaperConfig())
        return save_dataset(manifest, tmp_path_factory.mktemp("load") / "ds")

    def test_labels_match_the_loaded_features(self, dataset):
        blobs, labels, splits = load_dataset_features(dataset, Pipeline())
        got_labels, got_splits = dataset_labels(dataset, Pipeline())
        assert blobs.shape == (56, 16, 64)
        assert np.array_equal(got_labels, labels) and np.array_equal(got_splits, splits)
        assert set(splits) == {"train", "test"}

    def test_kept_entries_equal_their_full_rows(self, dataset):
        full, labels, splits = load_dataset_features(dataset, Pipeline())
        keep = splits == "test"
        keep[3] = True
        part, part_labels, part_splits = load_dataset_features(dataset, Pipeline(), keep)
        assert np.array_equal(part, full[keep])
        assert np.array_equal(part_labels, labels[keep])
        assert list(part_splits) == list(splits[keep])

    def test_other_framing_rejected(self, dataset):
        with pytest.raises(ConfigurationError, match="frames of 2048 samples"):
            dataset_labels(dataset, Pipeline(FrameShaperConfig(4096, 2)))


class TestStreamPipeline:
    def stream(self, rng, channels=3, seconds=4):
        return IntensityStream(rng.normal(0, 200, (channels, seconds * SAMPLE_RATE_HZ)))

    def test_cells_run_channel_by_channel(self, rng):
        blobs, cells = stream_features(self.stream(rng), FrameShaperConfig(),
                                       FeatureConfig())
        n_frames = len(cells) // 3
        assert cells == [(n, l) for l in range(3) for n in range(n_frames)]
        assert blobs.shape == (len(cells), 16, 64)

    @pytest.mark.parametrize("ft_cfg", [FeatureConfig(), FeatureConfig(bank_bands=12)],
                             ids=["60-bands", "12-bands"])
    def test_selected_cells_equal_full_rows(self, rng, ft_cfg):
        stream = self.stream(rng)
        full, cells = stream_features(stream, FrameShaperConfig(), ft_cfg)
        pick = [cells[4], cells[0], cells[-1]]
        part, _ = stream_features(stream, FrameShaperConfig(), ft_cfg, cells=pick)
        assert np.array_equal(part, full[[4, 0, len(cells) - 1]])

    @pytest.mark.parametrize("frame_size, overlap, cells", [
        (2048, 2, None),
        # step 512 is no multiple of the 96-sample sub-windows
        (1536, 3, None),
        (2048, 1, None),
        # duplicate and unsorted cells
        (2048, 2, [(5, 2), (0, 1), (5, 2), (3, 0), (0, 1), (1, 2)]),
    ])
    def test_rows_match_standardized_frames(self, rng, frame_size, overlap, cells):
        stream = self.stream(rng, seconds=6)
        stream.samples[1] = 0.0
        stream.samples[2, :stream.sample_count // 2] = 0.0
        fr_cfg, ft_cfg = FrameShaperConfig(frame_size, overlap), FeatureConfig()
        got, cells = stream_features(stream, fr_cfg, ft_cfg, cells)
        frames = frame_matrix(primary_filter(stream, fr_cfg.band), fr_cfg)
        chans, frame_idx = [l for _, l in cells], [n for n, _ in cells]
        normed = adapt_frames(frames, fr_cfg.adapt_decay, (chans, frame_idx))
        want = np.stack([blobs_from_windows(f.reshape(ft_cfg.subwindows, -1), ft_cfg)
                         for f in normed])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-9
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_subwindows_must_divide_frame(self, rng):
        with pytest.raises(ConfigurationError, match="not divisible by 7"):
            stream_features(self.stream(rng), FrameShaperConfig(),
                            FeatureConfig(subwindows=7))

    def test_score_grid_holds_each_cell_fused_vector(self, rng):
        stream = self.stream(rng)
        spec = NetworkSpec((16, 64), (DenseSpec(8),))
        ft_cfg = FeatureConfig(clip=1.5)
        model = EnsembleModel([Network(spec, seed=j) for j in range(3)],
                              NormalizerStats(np.full(64, 1.0), np.full(64, 2.0)),
                              Pipeline(features=ft_cfg))
        grid = stream_scores(stream, model, fusion="max_confidence")
        blobs, cells = stream_features(stream, FrameShaperConfig(), ft_cfg)
        fused = predict_fused(model, standardize(blobs, model.normalizer, 1.5),
                              "max_confidence")
        assert grid.shape == (len(cells) // 3, 3, 7) and grid.flags.c_contiguous
        for (n, l), vec in zip(cells, fused):
            assert np.array_equal(grid[n, l], vec)
