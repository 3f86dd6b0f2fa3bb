import itertools

import numpy as np
import pytest

from fiberwatch.errors import ConfigurationError
from fiberwatch.ensemble import (EnsembleModel, default_thresholds, fuse,
                                 load_ensemble, predict_fused, save_ensemble,
                                 threshold_decide, vote_two_of_three)
from fiberwatch.tensornet import DenseSpec, Network, NetworkSpec


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
        alpha = np.full(7, 0.4)
        assert threshold_decide(probs, alpha) == 2

    def test_below_threshold_falls_back_to_zero(self):
        probs = np.array([0.1, 0.35, 0.3, 0.05, 0.1, 0.05, 0.05])
        alpha = np.full(7, 0.4)
        assert threshold_decide(probs, alpha) == 0

    def test_uniform_scores_fall_back(self):
        probs = np.full(7, 1.0 / 7.0)
        assert threshold_decide(probs, np.full(7, 0.2)) == 0

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([0.0, 0.4, 0.4, 0.2, 0.0, 0.0, 0.0])
        assert threshold_decide(probs, np.full(7, 0.3)) == 1

    def test_raising_threshold_only_moves_to_zero(self, rng):
        for _ in range(2000):
            probs = random_prob_vector(rng)
            alpha = rng.uniform(0.05, 1.0, 7)
            d1 = threshold_decide(probs, alpha)
            bumped = alpha.copy()
            bumped[np.argmax(probs)] = min(1.0, bumped[np.argmax(probs)] + rng.uniform(0, 0.5))
            d2 = threshold_decide(probs, bumped)
            assert d2 in (d1, 0)

    def test_grid_matches_vector_rule(self, rng):
        grid = rng.dirichlet(np.ones(7), size=(5, 4))
        alpha = rng.uniform(0.1, 0.6, 7)
        got = threshold_decide(grid, alpha)
        assert got.shape == (5, 4) and got.dtype == np.int64
        for idx in np.ndindex(5, 4):
            assert got[idx] == threshold_decide(grid[idx], alpha)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, bad):
        alpha = np.full(7, 0.5)
        alpha[3] = bad
        with pytest.raises(ConfigurationError):
            threshold_decide(np.full(7, 1.0 / 7.0), alpha)


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

    def test_predict_fused_fuses_member_forward_passes(self, rng):
        model = EnsembleModel(tiny_members(seed=3), default_thresholds())
        blobs = rng.normal(size=(6, 4, 4))
        probs = np.stack([net.forward_batch(blobs)[0] for net in model.members])
        for rule in ("l2", "max_confidence"):
            batch = predict_fused(model, blobs, rule, batch=2)
            assert np.allclose(batch, fuse(probs, rule), atol=1e-12)


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
            EnsembleModel(tiny_members()[:2], default_thresholds()[:2])

    def test_threshold_range_enforced(self):
        bad = default_thresholds()
        bad[0, 0] = 0.0
        with pytest.raises(ConfigurationError):
            EnsembleModel(tiny_members(), bad)

    def test_member_scores_fixed_order_and_deterministic(self, rng):
        model = EnsembleModel(tiny_members(), default_thresholds())
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
        model = EnsembleModel([net, net, net], default_thresholds())
        blobs = rng.normal(size=(2, 4, 4))
        probs = net.forward_batch(blobs)[0]
        assert np.array_equal(predict_fused(model, blobs, "max_confidence"), probs)

    def test_checkpoint_round_trip(self, tmp_path, rng):
        model = EnsembleModel(tiny_members(seed=5), default_thresholds())
        path = save_ensemble(model, tmp_path / "ens.json")
        back = load_ensemble(path)
        blobs = rng.normal(size=(2, 4, 4))
        for a, b in zip(model.members, back.members):
            assert np.array_equal(a.forward_batch(blobs)[0], b.forward_batch(blobs)[0])
        assert np.array_equal(back.thresholds, model.thresholds)
