import itertools

import numpy as np
import pytest

import tsne_oracle
from fiberwatch import embedding
from fiberwatch.embedding import (EmbeddingConfig, center_distances,
                                  conditional_affinities, joint_affinities,
                                  median_centers, mst, pca, tsne, _q_matrix, _sq_dists,
                                  _tsne_gradient)
from fiberwatch.errors import ConfigurationError, NumericError

# Normalized inter-center distances of the 7 signal classes (reference values).
REFERENCE_DISTANCES_UPPER = {
    (0, 1): 0.486, (0, 2): 0.782, (0, 3): 1.000, (0, 4): 0.551, (0, 5): 0.881,
    (0, 6): 0.626,
    (1, 2): 0.310, (1, 3): 0.575, (1, 4): 0.201, (1, 5): 0.534, (1, 6): 0.312,
    (2, 3): 0.307, (2, 4): 0.353, (2, 5): 0.558, (2, 6): 0.440,
    (3, 4): 0.545, (3, 5): 0.715, (3, 6): 0.626,
    (4, 5): 0.416, (4, 6): 0.153,
    (5, 6): 0.281,
}


def reference_matrix():
    d = np.zeros((7, 7))
    for (i, j), w in REFERENCE_DISTANCES_UPPER.items():
        d[i, j] = d[j, i] = w
    return d


def prufer_tree(seq, n=7):
    """Decode a Prufer sequence into the edge set of a labeled tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


class TestPca:
    def test_line_captures_all_variance(self, rng):
        t = rng.normal(size=200)
        pts = np.stack([t, 2.0 * t], axis=1)
        res = pca(pts, 2)
        share = res.explained_variance[0] / res.explained_variance.sum()
        assert share >= 0.99999

    def test_basis_orthonormal(self, rng):
        res = pca(rng.normal(size=(100, 10)), 6)
        gram = res.basis @ res.basis.T
        assert np.allclose(gram, np.eye(6), atol=1e-9)

    def test_full_rank_round_trip(self, rng):
        x = rng.normal(size=(100, 10))
        res = pca(x, 10)
        rebuilt = res.projection @ res.basis + res.mean
        err = np.linalg.norm(rebuilt - x) / np.linalg.norm(x)
        assert err < 1e-8

    def test_translation_invariance_up_to_sign(self, rng):
        x = rng.normal(size=(60, 5))
        a = pca(x, 3)
        b = pca(x + 100.0, 3)
        for k in range(3):
            same = np.allclose(a.projection[:, k], b.projection[:, k], atol=1e-6)
            flipped = np.allclose(a.projection[:, k], -b.projection[:, k], atol=1e-6)
            assert same or flipped

    def test_rank_deficiency_reported(self, rng):
        t = rng.normal(size=50)
        x = np.stack([t, 2 * t, -t], axis=1)
        res = pca(x, 3)
        assert res.effective_rank == 1

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            pca(rng.normal(size=(3, 8)), 5)


def three_blobs(rng, per=200, spread=0.1, sep=10.0):
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    pts = np.concatenate([c + spread * rng.standard_normal((per, 2)) for c in centers])
    labels = np.repeat(np.arange(3), per)
    return pts, labels


class TestTsne:
    def test_joint_affinities_sum_to_one(self, rng):
        pts = rng.normal(size=(60, 4))
        p_cond = conditional_affinities(_sq_dists(pts), perplexity=15.0)
        p = joint_affinities(p_cond)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.allclose(p, p.T)

    def test_bisection_hits_target_perplexity(self, rng):
        # Independent oracle: recompute the Shannon entropy of each row.
        pts = rng.normal(size=(80, 6))
        target = 20.0
        p_cond = conditional_affinities(_sq_dists(pts), perplexity=target)
        for i in range(p_cond.shape[0]):
            row = p_cond[i]
            nz = row > 0
            entropy = -(row[nz] * np.log(row[nz])).sum()
            assert abs(entropy - np.log(target)) <= 1e-3

    def test_gradient_matches_the_diagonal_form(self, rng):
        pts = rng.normal(size=(90, 5))
        p = joint_affinities(conditional_affinities(_sq_dists(pts), 20.0))
        y = rng.normal(0, 1e-2, (90, 3))
        q, num = _q_matrix(y)
        w = (p - q) * num
        oracle = 4.0 * ((np.diag(w.sum(axis=1)) - w) @ y)
        got = _tsne_gradient(p, y, *_q_matrix(y))
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.abs(oracle).max()

    def test_kl_non_increasing_after_exaggeration(self, rng):
        pts, _ = three_blobs(rng, per=40, spread=0.3, sep=5.0)
        # 160 steps after the fixed 100 of exaggeration.
        cfg = EmbeddingConfig(dims=2, perplexity=15.0, iterations=260)
        trace: list = []
        emb = tsne(pts, cfg, 1, kl_trace=trace)
        assert emb.shape == (120, 2)
        assert len(trace) == cfg.iterations - cfg.exaggeration_iters
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9)

    def test_three_blob_purity(self, rng):
        pts, labels = three_blobs(rng)
        cfg = EmbeddingConfig(dims=2, perplexity=30.0, iterations=300)
        emb = tsne(pts, cfg, 0)
        # 10-NN label purity oracle on the embedding
        d = _sq_dists(emb)
        np.fill_diagonal(d, np.inf)
        nn = np.argsort(d, axis=1)[:, :10]
        votes = labels[nn]
        purity = np.mean([
            np.mean(votes[i] == labels[i]) for i in range(len(labels))])
        assert purity >= 0.95

    def test_deterministic_given_seed(self, rng):
        pts, _ = three_blobs(rng, per=35, sep=6.0)
        cfg = EmbeddingConfig(dims=2, perplexity=20.0, iterations=120)
        a = tsne(pts, cfg, 9)
        b = tsne(pts, cfg, 9)
        assert np.array_equal(a, b)

    def test_duplicate_points_jittered_with_warning(self, rng):
        pts = np.concatenate([rng.normal(size=(70, 3)), np.zeros((2, 3))])
        cfg = EmbeddingConfig(dims=2, perplexity=15.0, iterations=60)
        with pytest.warns(UserWarning, match="duplicate"):
            emb = tsne(pts, cfg, 2)
        assert np.all(np.isfinite(emb))

    def test_too_few_points_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            tsne(rng.normal(size=(20, 3)), EmbeddingConfig(perplexity=30.0), 0)


def rejecting(kl, calls):
    """``kl`` with the KL value of each 0-based call in ``calls`` made +inf,
    so the step that makes those calls accepts none of its attempts.  The
    oracle's ``kl`` returns the value; ``embedding``'s returns (value, Q)."""
    count = itertools.count()

    def wrapped(*args):
        value = kl(*args)
        if next(count) not in calls:
            return value
        return (np.inf, value[1]) if isinstance(value, tuple) else np.inf
    return wrapped


class TestTsneSteps:
    """``tsne`` against the step-by-step oracle in tests/tsne_oracle.py."""

    # 60 post-exaggeration steps.  At learning rate 500 some steps halve
    # their move; at 3000 every step takes its first attempt, so KL call
    # 11 is step 10's first attempt, and every call from 11 on is rejected:
    # step 10 accepts none of its 40 attempts.
    CASES = {"halving": (500.0, range(0)), "no-step-accepted": (3000.0, range(11, 1 << 30))}

    def descend(self, monkeypatch, case):
        rate, rejected = self.CASES[case]
        pts, _ = three_blobs(np.random.default_rng(0), per=30, spread=0.3, sep=5.0)
        cfg = EmbeddingConfig(dims=2, perplexity=10.0, iterations=160,
                              learning_rate=rate)
        monkeypatch.setattr(tsne_oracle, "kl_divergence",
                            rejecting(tsne_oracle.kl_divergence, rejected))
        want = tsne_oracle.tsne(pts, cfg, 3)
        kl_calls, q_inputs = [], []
        kl = rejecting(embedding.kl_divergence, rejected)
        monkeypatch.setattr(embedding, "kl_divergence",
                            lambda *a: kl_calls.append(1) or kl(*a))
        q_matrix = embedding._q_matrix
        monkeypatch.setattr(embedding, "_q_matrix",
                            lambda y: q_inputs.append(y.tobytes()) or q_matrix(y))
        trace: list = []
        got = tsne(pts, cfg, 3, kl_trace=trace)
        return cfg, want, (got, trace, len(kl_calls)), q_inputs

    @pytest.mark.parametrize("case", CASES)
    def test_same_bytes_and_kl_calls_as_the_oracle(self, monkeypatch, case):
        cfg, (want, want_trace, want_calls), (got, trace, calls), _ = \
            self.descend(monkeypatch, case)
        steps = cfg.iterations - cfg.exaggeration_iters
        assert len(want_trace) == steps
        assert np.array_equal(got, want)
        if case == "halving":
            assert want_calls > steps + 1
            assert np.array_equal(trace, want_trace)
            assert calls == want_calls
        else:
            # The oracle keeps stepping from the stalled embedding at zero
            # velocity: each later step scores the same 40 candidates and
            # does not move.  ``tsne`` stops at the stalled step instead.
            assert trace == want_trace[:10]
            assert want_trace[10:] == [want_trace[9]] * (steps - 10)
            assert want_calls == 1 + 10 + 40 * (steps - 10)
            assert calls == 1 + 10 + 40

    @pytest.mark.parametrize("case", CASES)
    def test_no_q_matrix_built_twice_for_one_embedding(self, monkeypatch, case):
        cfg, _, (_, _, calls), q_inputs = self.descend(monkeypatch, case)
        assert len(q_inputs) == len(set(q_inputs))
        assert len(q_inputs) <= cfg.exaggeration_iters + 1 + calls


class TestMedianCenters:
    def test_single_point_per_class(self):
        pts = np.arange(21, dtype=float).reshape(7, 3)
        centers = median_centers(pts, np.arange(7))
        assert np.array_equal(centers, pts)

    def test_symmetric_cloud_centers_at_origin(self, rng):
        half = rng.normal(size=(300, 3))
        pts = np.concatenate([half, -half])
        labels = np.zeros(600, dtype=int)
        pts_all = [pts]
        labs_all = [labels]
        for c in range(1, 7):
            pts_all.append(np.array([[c, c, c]], dtype=float))
            labs_all.append(np.array([c]))
        centers = median_centers(np.concatenate(pts_all), np.concatenate(labs_all))
        assert np.allclose(centers[0], 0.0, atol=1e-9)

    def test_outlier_barely_moves_median(self, rng):
        cluster = rng.normal(0, 1.0, size=(100, 3))
        others = [np.array([[10.0 * c, 0, 0]]) for c in range(1, 7)]
        labels = np.concatenate([np.zeros(100, int)] + [np.array([c]) for c in range(1, 7)])
        base = median_centers(np.concatenate([cluster] + others), labels)
        spiked = np.concatenate([cluster, np.array([[1e6, 1e6, 1e6]])] + others)
        labels2 = np.concatenate([np.zeros(101, int)] + [np.array([c]) for c in range(1, 7)])
        moved = median_centers(spiked, labels2)
        iqr = np.subtract(*np.percentile(cluster, [75, 25], axis=0)).max()
        assert np.linalg.norm(moved[0] - base[0]) < abs(iqr)

    def test_missing_class_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            median_centers(rng.normal(size=(10, 3)), np.zeros(10, int))


class TestCenterDistances:
    def test_normalized_max_is_one(self, rng):
        pts = np.zeros((7, 3))
        pts[3] = [4.0, 0.0, 0.0]
        d = center_distances(pts)
        assert d.max() == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        pts = rng.normal(size=(7, 3))
        a = center_distances(pts)
        b = center_distances(10.0 * pts)
        assert np.allclose(a, b, atol=1e-12)

    def test_reference_matrix_max_pair(self):
        d = reference_matrix()
        i, j = np.unravel_index(np.argmax(d), d.shape)
        assert {int(i), int(j)} == {0, 3}
        assert d[0, 3] == 1.000

    def test_coincident_centers_rejected(self):
        with pytest.raises(NumericError):
            center_distances(np.ones((7, 3)))


class TestMst:
    def test_reference_edges_and_weight(self):
        tree = mst(reference_matrix())
        assert sorted((i, j) for i, j, _ in tree.edges) == \
            [(0, 1), (1, 2), (1, 4), (2, 3), (4, 6), (5, 6)]
        assert tree.total_weight == pytest.approx(1.738, abs=1e-9)

    def test_reference_minimal_by_exhaustion(self):
        # Brute force: all 7^5 = 16807 labeled trees via Prufer sequences.
        d = reference_matrix()
        best = np.inf
        for seq in itertools.product(range(7), repeat=5):
            w = sum(d[i, j] for i, j in prufer_tree(seq))
            best = min(best, w)
        assert mst(d).total_weight == pytest.approx(best, abs=1e-12)

    def test_node_zero_attachment_and_runner_up(self):
        d = reference_matrix()
        tree = mst(d)
        zero_edges = [(i, j) for i, j, _ in tree.edges if 0 in (i, j)]
        assert zero_edges == [(0, 1)]
        row = [(d[0, j], j) for j in range(1, 7)]
        row.sort()
        assert row[0] == (0.486, 1)
        assert row[1] == (0.551, 4)

    def test_chain_metric_recovers_chain(self):
        pos = np.arange(7, dtype=float)[:, None]
        d = np.abs(pos - pos.T)
        tree = mst(d)
        assert sorted((i, j) for i, j, _ in tree.edges) == \
            [(i, i + 1) for i in range(6)]

    def test_tie_break_lexicographic(self):
        d = np.ones((4, 4)) - np.eye(4)
        tree = mst(d[:3, :3])
        assert [(i, j) for i, j, _ in tree.edges] == [(0, 1), (0, 2)]

    def test_disconnected_rejected(self):
        d = reference_matrix()
        d[0, 1:] = np.inf
        d[1:, 0] = np.inf
        with pytest.raises(NumericError):
            mst(d)
