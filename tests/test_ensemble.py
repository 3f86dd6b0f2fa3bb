import itertools
import json

import numpy as np
import pytest

from fiberwatch import tensornet
from fiberwatch.errors import ConfigurationError
from fiberwatch.ensemble import (EnsembleModel, fuse, load_ensemble, predict_fused,
                                 save_ensemble, threshold_decide, vote_two_of_three)
from fiberwatch.features import FeatureConfig, NormalizerStats, Pipeline
from fiberwatch.framing import FrameShaperConfig
from fiberwatch.tensornet import DenseSpec, Network, NetworkSpec, save_checkpoint

UNIT = NormalizerStats(np.zeros(64), np.ones(64))      # a normalizer that changes nothing


def random_prob_vector(rng):
    v = rng.dirichlet(np.ones(7))
    return v


def pair_agreement_oracle(c1, c2, c3):
    """Independent enumeration rule: any agreeing pair wins, else 0."""
    if c1 == c2 or c1 == c3:
        return c1
    if c2 == c3:
        return c2
    return 0


class TestThresholdDecide:
    def test_above_threshold_returns_argmax(self):
        probs = np.array([0.1, 0.1, 0.5, 0.1, 0.1, 0.05, 0.05])
        assert threshold_decide(probs, 0.4) == 2

    def test_below_threshold_falls_back_to_zero(self):
        probs = np.array([0.1, 0.35, 0.3, 0.05, 0.1, 0.05, 0.05])
        assert threshold_decide(probs, 0.4) == 0

    def test_uniform_scores_fall_back(self):
        probs = np.full(7, 1.0 / 7.0)
        assert threshold_decide(probs, 0.2) == 0

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([0.0, 0.4, 0.4, 0.2, 0.0, 0.0, 0.0])
        assert threshold_decide(probs, 0.3) == 1

    def test_raising_threshold_only_moves_to_zero(self, rng):
        for _ in range(2000):
            probs = random_prob_vector(rng)
            alpha = rng.uniform(0.05, 1.0)
            d1 = threshold_decide(probs, alpha)
            d2 = threshold_decide(probs, min(1.0, alpha + rng.uniform(0, 0.5)))
            assert d2 in (d1, 0)

    def test_grid_matches_vector_rule(self, rng):
        grid = rng.dirichlet(np.ones(7), size=(5, 4))
        alpha = rng.uniform(0.1, 0.6)
        got = threshold_decide(grid, alpha)
        assert got.shape == (5, 4) and got.dtype == np.int64
        for idx in np.ndindex(5, 4):
            assert got[idx] == threshold_decide(grid[idx], alpha)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            threshold_decide(np.full(7, 1.0 / 7.0), bad)


class TestVote:
    def test_agreeing_first_pair(self):
        assert vote_two_of_three(2, 2, 5) == 2

    def test_no_agreement_gives_zero(self):
        assert vote_two_of_three(1, 2, 3) == 0

    def test_agreeing_last_pair(self):
        assert vote_two_of_three(0, 5, 5) == 5

    def test_all_343_triples_match_oracle(self):
        for c1, c2, c3 in itertools.product(range(7), repeat=3):
            assert vote_two_of_three(c1, c2, c3) == pair_agreement_oracle(c1, c2, c3)

    def test_permutation_invariance(self):
        for triple in itertools.product(range(7), repeat=3):
            results = {vote_two_of_three(*perm) for perm in itertools.permutations(triple)}
            assert len(results) == 1

    def test_output_is_zero_or_an_input(self):
        for triple in itertools.product(range(7), repeat=3):
            assert vote_two_of_three(*triple) in {0, *triple}


def member_probs(rng, n=None):
    """Three members' score vectors: (3, 7), or (3, n, 7) for a batch."""
    return rng.dirichlet(np.ones(7), size=(3,) if n is None else (3, n))


class TestFuseL2:
    def test_three_identical_vectors(self, rng):
        v = random_prob_vector(rng)
        fused = fuse(np.stack([v, v, v]))
        assert np.allclose(fused, v / np.linalg.norm(v))

    def test_hand_computed_case(self):
        v1 = np.array([0.6, 0.4, 0, 0, 0, 0, 0])
        v2 = np.array([0.2, 0.8, 0, 0, 0, 0, 0])
        v3 = np.array([0.5, 0.5, 0, 0, 0, 0, 0])
        fused = fuse(np.stack([v1, v2, v3]))
        # s = (1.3, 1.7, 0...), |s| = sqrt(4.58)
        norm = np.sqrt(4.58)
        assert fused[0] == pytest.approx(1.3 / norm, abs=1e-12)
        assert fused[1] == pytest.approx(1.7 / norm, abs=1e-12)
        assert fused[0] == pytest.approx(0.6075, abs=5e-5)
        assert fused[1] == pytest.approx(0.7944, abs=5e-5)

    def test_unit_norm_and_argmax_equals_mean_fusion(self, rng):
        vecs = member_probs(rng, 3000)
        fused = fuse(vecs)
        assert np.all(np.abs(np.linalg.norm(fused, axis=1) - 1.0) < 1e-9)
        assert np.array_equal(np.argmax(fused, axis=1), np.argmax(vecs.mean(axis=0), axis=1))

    def test_batch_rows_equal_single_vectors(self, rng):
        trip = member_probs(rng, 5)
        for rule in ("l2", "max_confidence"):
            batch = fuse(trip, rule)
            for i in range(5):
                assert np.array_equal(batch[i], fuse(trip[:, i], rule))

    def test_unknown_rule_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            fuse(member_probs(rng), "mean")

    def test_predict_fused_fuses_member_forward_passes(self, rng, monkeypatch):
        model = EnsembleModel(tiny_members(seed=3), UNIT)
        blobs = rng.normal(size=(6, 4, 4))
        probs = np.stack([net.forward_batch(blobs)[0] for net in model.members])
        # Row chunks of 2: the members' forward passes chunk the blobs.
        monkeypatch.setattr(tensornet, "ROW_BUFFER_BYTES",
                            2 * model.members[0]._row_bytes)
        for rule in ("l2", "max_confidence"):
            chunked = predict_fused(model, blobs, rule)
            assert np.allclose(chunked, fuse(probs, rule), atol=1e-12)


class TestFuseMaxConfidence:
    def test_most_confident_member_wins(self):
        v1 = np.array([0.9, 0.1, 0, 0, 0, 0, 0])
        v2 = np.array([0.6, 0.4, 0, 0, 0, 0, 0])
        v3 = np.array([0.7, 0.3, 0, 0, 0, 0, 0])
        for members in itertools.permutations([v1, v2, v3]):
            assert np.array_equal(fuse(np.stack(members), "max_confidence"), v1)

    def test_identical_members_return_that_vector(self, rng):
        v = random_prob_vector(rng)
        assert np.array_equal(fuse(np.stack([v, v, v]), "max_confidence"), v)

    def test_output_is_exactly_one_input(self, rng):
        vecs = member_probs(rng, 1000)
        fused = fuse(vecs, "max_confidence")
        for i in range(1000):
            assert any(np.array_equal(fused[i], vecs[j, i]) for j in range(3))

    def test_tie_goes_to_lowest_member(self):
        v = np.array([0.5, 0.5, 0, 0, 0, 0, 0])
        w = np.array([0, 0, 0.5, 0.5, 0, 0, 0])
        fused = fuse(np.stack([v, w, w]), "max_confidence")
        assert np.array_equal(fused, v)


def tiny_members(seed=0):
    spec = NetworkSpec((4, 4), (DenseSpec(5),))
    return [Network(spec, seed=seed + j) for j in range(3)]


class TestEnsembleModel:
    def test_needs_three_members(self):
        with pytest.raises(ConfigurationError):
            EnsembleModel(tiny_members()[:2], UNIT)

    def test_member_scores_fixed_order_and_deterministic(self, rng):
        model = EnsembleModel(tiny_members(), UNIT)
        blobs = rng.normal(size=(3, 4, 4))
        first = predict_fused(model, blobs, "max_confidence")
        assert np.array_equal(first, predict_fused(model, blobs, "max_confidence"))
        probs = [net.forward_batch(blobs)[0] for net in model.members]
        assert not np.array_equal(probs[0], probs[1])
        for p in probs:
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(p > 0)

    def test_identical_members_identical_scores(self, rng):
        net = tiny_members()[0]
        model = EnsembleModel([net, net, net], UNIT)
        blobs = rng.normal(size=(2, 4, 4))
        probs = net.forward_batch(blobs)[0]
        assert np.array_equal(predict_fused(model, blobs, "max_confidence"), probs)

    def test_checkpoint_round_trip(self, tmp_path, rng):
        pipeline = Pipeline(FrameShaperConfig(1024, 4, 8.0, 600.0, 0.1),
                            FeatureConfig(subwindows=4, bank_bands=2, clip=3.0))
        normalizer = NormalizerStats(rng.normal(size=6), rng.uniform(0.5, 2.0, 6))
        model = EnsembleModel(tiny_members(seed=5), normalizer, pipeline)
        path = save_ensemble(model, tmp_path / "ens.json")
        back = load_ensemble(path)
        blobs = rng.normal(size=(2, 4, 4))
        for a, b in zip(model.members, back.members):
            assert np.array_equal(a.forward_batch(blobs)[0], b.forward_batch(blobs)[0])
        assert np.array_equal(back.normalizer.mean, normalizer.mean)
        assert np.array_equal(back.normalizer.std, normalizer.std)
        assert back.pipeline == pipeline


class TestDescriptorFile:
    @pytest.fixture
    def path(self, tmp_path):
        model = EnsembleModel(tiny_members(), UNIT)
        return save_ensemble(model, tmp_path / "ens.json")

    def test_missing_pipeline_loads_as_default(self, path):
        desc = json.loads(path.read_text())
        del desc["pipeline"]
        path.write_text(json.dumps(desc))
        assert load_ensemble(path).pipeline == Pipeline()

    def test_threshold_table_of_older_descriptors_ignored(self, path):
        desc = json.loads(path.read_text())
        assert "thresholds" not in desc
        before = load_ensemble(path)
        path.write_text(json.dumps({**desc, "thresholds": [[0.5] * 7] * 3}))
        back = load_ensemble(path)
        blobs = np.random.default_rng(2).normal(size=(2, 4, 4))
        assert np.array_equal(predict_fused(back, blobs), predict_fused(before, blobs))
        assert np.array_equal(back.normalizer.mean, before.normalizer.mean)

    def test_std_eps_of_older_descriptors_ignored(self, path):
        desc = json.loads(path.read_text())
        assert "std_eps" not in desc["normalizer"]
        path.write_text(json.dumps({**desc, "normalizer": {**desc["normalizer"],
                                                           "std_eps": 1e-8}}))
        back = load_ensemble(path)
        assert np.array_equal(back.normalizer.std, np.ones(64))

    def test_not_json_rejected(self, path):
        path.write_bytes(b'{"members": [\xff')
        with pytest.raises(ConfigurationError, match="ens.json"):
            load_ensemble(path)

    @pytest.mark.parametrize("key, value", [
        ("members", None), ("members", "ens.c1.net"), ("members", [1, 2, 3]),
        ("members", ["ens.c1.net", "ens.c2.net"]),
        ("normalizer", [0.0] * 64), ("normalizer", {"mean": [0.0] * 64}),
        ("normalizer", {"mean": [0.0] * 63, "std": [1.0] * 63}),
        ("normalizer", {"mean": [0.0] * 64, "std": [0.0] * 64}),
        ("normalizer", {"mean": ["a"] * 64, "std": [1.0] * 64}),
        ("pipeline", "none"), ("pipeline", {"framing": {}}),
        ("pipeline", {"framing": Pipeline().to_dict()["framing"],
                      "features": {**Pipeline().to_dict()["features"], "clip": "8"}}),
        ("pipeline", {"framing": {**Pipeline().to_dict()["framing"], "frame_size": 100},
                      "features": Pipeline().to_dict()["features"]}),
        ("normalizer", None),
    ])
    def test_missing_or_mistyped_entry_rejected(self, path, key, value):
        desc = json.loads(path.read_text())
        if value is None:
            del desc[key]
        else:
            desc[key] = value
        path.write_text(json.dumps(desc))
        with pytest.raises(ConfigurationError, match="ens.json"):
            load_ensemble(path)

    def test_member_scoring_other_class_count_rejected(self, path):
        spec = NetworkSpec((4, 4), (DenseSpec(5),), n_classes=5)
        save_checkpoint(Network(spec), path.with_suffix(".c3.net"))
        with pytest.raises(ConfigurationError, match="7 classes"):
            load_ensemble(path)
