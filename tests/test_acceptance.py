"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two end-to-end
criteria (6 and 10) share one trained ensemble and are marked ``slow``;
``--skip-slow`` skips them for quick iteration.
"""

import itertools
import time

import numpy as np
import pytest

from fiberwatch import cli, embedding, ensemble, framing, metrics, siggen
from fiberwatch import tensornet, tracker, training
from fiberwatch.archsearch import DEConfig, de_optimize
from fiberwatch.features import FeatureConfig
from fiberwatch.tensornet import (ConvSpec, DenseSpec, DropoutSpec, Network,
                                  NetworkSpec, PoolSpec, ReluSpec)

from test_embedding import prufer_tree, reference_matrix
from test_metrics import REFERENCE_F1, REFERENCE_PCT, REFERENCE_PRECISION


def criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number:2d} [{status}] {description}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared end-to-end artifacts (criteria 6 and 10)

EARLY_STOP = 0.95
MAX_EPOCHS = 12          # within the 200-epoch budget


@pytest.fixture(scope="session")
def trained_pipeline():
    """Default synthetic dataset (7 x 2000 train / 7 x 300 test) and the
    three members trained on it."""
    manifest = siggen.generate_dataset(frames_per_class=2400, seed=20,
                                       scenarios_per_class=8, channels=4,
                                       split_ratio=7)
    blobs, labels, splits = training.manifest_features(manifest)
    (x_tr, y_tr), (x_te, y_te), stats = training.standardized_sets(
        blobs, labels, splits)

    def per_class_slice(x, y, cap):
        keep = []
        for c in range(7):
            keep.extend(np.nonzero(y == c)[0][:cap].tolist())
        keep = np.sort(np.array(keep))
        return x[keep], y[keep]

    x_tr, y_tr = per_class_slice(x_tr, y_tr, 2000)
    x_te, y_te = per_class_slice(x_te, y_te, 300)

    members, best_accs = [], []
    for j, spec in enumerate(tensornet.reference_member_specs()):
        cfg = training.TrainConfig(epochs=MAX_EPOCHS, batch_size=64, lr=0.05,
                                   momentum=0.9, weight_decay=1e-4, seed=j,
                                   early_stop_acc=EARLY_STOP)
        net = tensornet.Network(spec, seed=j)
        best, history = training.train_member(net, (x_tr, y_tr), (x_te, y_te), cfg)
        members.append(best)
        best_accs.append(max(r.test_accuracy for r in history.records))
    model = ensemble.EnsembleModel(members, ensemble.default_thresholds(), stats)
    return {
        "model": model,
        "train": (x_tr, y_tr),
        "test": (x_te, y_te),
        "stats": stats,
        "best_accs": best_accs,
        "manifest": manifest,
    }


class TestCriterion1:
    def test_published_metric_reproduction(self):
        cm = metrics.ConfusionMatrix.from_percentages(REFERENCE_PCT)
        report = metrics.precision_f1(cm, balanced=True)
        prec_ok = all(abs(report.precision[c] - REFERENCE_PRECISION[c]) <= 0.02
                      for c in range(7))
        f1_ok = all(abs(report.f1[c] - REFERENCE_F1[c]) <= 0.02 for c in range(7))
        criterion(1, "row-normalized reference matrix reproduces all 14 "
                     "precision/F1 values within 0.02 pp",
                  prec_ok and f1_ok,
                  f"class 0: prec {report.precision[0]:.2f}, F1 {report.f1[0]:.2f}")


class TestCriterion2:
    def test_vote_matches_enumeration_oracle(self):
        def oracle(c1, c2, c3):
            if c1 == c2 or c1 == c3:
                return c1
            return c2 if c2 == c3 else 0
        mismatches = sum(
            ensemble.vote_two_of_three(*t) != oracle(*t)
            for t in itertools.product(range(7), repeat=3))
        criterion(2, "two-out-of-three vote equals pair-agreement oracle on "
                     "all 343 triples", mismatches == 0)


class TestCriterion3:
    def test_reference_distance_mst(self):
        tic = time.perf_counter()
        d = reference_matrix()
        tree = embedding.mst(d)
        edges = sorted((i, j) for i, j, _ in tree.edges)
        edges_ok = edges == [(0, 1), (1, 2), (1, 4), (2, 3), (4, 6), (5, 6)]
        weight_ok = abs(tree.total_weight - 1.738) <= 1e-9

        best = min(sum(d[i, j] for i, j in prufer_tree(seq))
                   for seq in itertools.product(range(7), repeat=5))
        minimal_ok = abs(tree.total_weight - best) <= 1e-12

        zero_edges = [(i, j) for i, j in edges if 0 in (i, j)]
        row = sorted((d[0, j], j) for j in range(1, 7))
        attach_ok = zero_edges == [(0, 1)] and row[0][1] == 1 and row[1][1] == 4
        elapsed = time.perf_counter() - tic
        criterion(3, "reference-matrix MST edges {4-6,1-4,5-6,2-3,1-2,0-1}, "
                     "weight 1.738, minimal over all 16807 trees, 0 attaches "
                     "via 0-1 with 0-4 runner-up",
                  edges_ok and weight_ok and minimal_ok and attach_ok
                  and elapsed < 1.0,
                  f"{elapsed:.2f}s")


class TestCriterion4:
    def test_gradients_against_finite_differences(self):
        tic = time.perf_counter()
        rng = np.random.default_rng(4)
        shape = (8, 12)
        cases = [
            ("dense", (DenseSpec(16),)),
            ("relu", (DenseSpec(16), ReluSpec())),
            ("conv", (ConvSpec((3, 3), 4),)),
            ("pool", (ConvSpec((3, 3), 4), PoolSpec((2, 2)))),
            ("dropout", (DenseSpec(16), DropoutSpec(0.5))),
            ("composed", (ConvSpec((3, 3), 6), ReluSpec(), PoolSpec((2, 2)),
                          DenseSpec(20), ReluSpec(), DropoutSpec(0.5))),
        ]
        worst = {}
        for name, layers in cases:
            net = Network(NetworkSpec(shape, layers), seed=11)
            target = np.eye(7)[int(rng.integers(7))]
            worst[name] = tensornet.gradient_check(
                net, rng.normal(size=shape), target, max_per_tensor=40)
        ok = all(v < 1e-4 for v in worst.values())
        elapsed = time.perf_counter() - tic
        criterion(4, "finite-difference agreement < 1e-4 for every layer type "
                     "and the composed network",
                  ok and elapsed < 60.0,
                  "max rel err " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


class TestCriterion5:
    def test_fusion_invariants_100k(self):
        rng = np.random.default_rng(5)
        n = 100_000
        triples = rng.dirichlet(np.ones(7), size=(3, n))

        fused = ensemble.fuse(triples, "l2")
        norm_ok = np.max(np.abs(np.linalg.norm(fused, axis=1) - 1.0)) <= 1e-9
        mean_argmax = np.argmax(triples.mean(axis=0), axis=1)
        argmax_ok = np.array_equal(np.argmax(fused, axis=1), mean_argmax)

        selected = ensemble.fuse(triples, "max_confidence")
        sel_ok = True
        for i in rng.choice(n, 500, replace=False):
            best = max(range(3), key=lambda j: (triples[j, i].max(), -j))
            if not np.array_equal(selected[i], triples[best, i]):
                sel_ok = False
                break
        exact_ok = all(
            any(np.array_equal(selected[i], triples[j, i]) for j in range(3))
            for i in rng.choice(n, 2000, replace=False))

        probs = triples[0]
        alpha = rng.uniform(0.05, 1.0, (n, 7))
        winners = np.argmax(probs, axis=1)
        win_p = probs[np.arange(n), winners]
        before = np.where(win_p >= alpha[np.arange(n), winners], winners, 0)
        bump = alpha.copy()
        bump[np.arange(n), winners] = np.minimum(
            1.0, bump[np.arange(n), winners] + rng.uniform(0, 0.5, n))
        after = np.where(win_p >= bump[np.arange(n), winners], winners, 0)
        mono_ok = np.all((after == before) | (after == 0))

        criterion(5, "fusion invariants on 1e5 random triples: unit L2 norm, "
                     "argmax = mean-fusion argmax, max-confidence returns an "
                     "input, threshold monotone",
                  norm_ok and argmax_ok and sel_ok and exact_ok and mono_ok)


@pytest.mark.slow
class TestCriterion6:
    def test_members_reach_90_percent(self, trained_pipeline):
        accs = trained_pipeline["best_accs"]
        x_te, y_te = trained_pipeline["test"]
        shape_ok = (trained_pipeline["train"][0].shape[0] == 14_000
                    and x_te.shape[0] == 2_100)
        ok = all(a >= 0.90 for a in accs)
        criterion(6, "each member reaches >= 90% test accuracy within 200 "
                     "epochs on the 7x2000/7x300 synthetic dataset",
                  ok and shape_ok,
                  "member accs " + ", ".join(f"{a:.4f}" for a in accs))


class TestCriterion7:
    def test_tsne_suite_600_points(self):
        tic = time.perf_counter()
        rng = np.random.default_rng(7)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = np.concatenate([c + 0.1 * rng.standard_normal((200, 2))
                              for c in centers])
        labels = np.repeat(np.arange(3), 200)

        dists = embedding._sq_dists(pts)
        p_cond, _ = embedding.conditional_affinities(dists, 30.0)
        p = embedding.joint_affinities(p_cond)
        sum_ok = abs(p.sum() - 1.0) <= 1e-9

        perp_ok = True
        for i in range(600):
            row = p_cond[i]
            nz = row > 0
            h = -(row[nz] * np.log(row[nz])).sum()
            if abs(h - np.log(30.0)) > 1e-3:
                perp_ok = False
                break

        cfg = embedding.EmbeddingConfig(dims=2, perplexity=30.0, iterations=350,
                                        seed=7)
        trace: list = []
        emb = embedding.tsne(pts, cfg, kl_trace=trace)
        kl_ok = np.all(np.diff(trace) <= 1e-9)

        d = embedding._sq_dists(emb)
        np.fill_diagonal(d, np.inf)
        nn = np.argsort(d, axis=1)[:, :10]
        purity = float(np.mean(labels[nn] == labels[:, None]))
        elapsed = time.perf_counter() - tic
        criterion(7, "t-SNE suite at N=600: P sums to 1, per-point perplexity "
                     "within 1e-3 (log), KL non-increasing, 10-NN purity >= 0.95",
                  sum_ok and perp_ok and kl_ok and purity >= 0.95
                  and elapsed < 120.0,
                  f"purity {purity:.3f}, {elapsed:.0f}s")


class TestCriterion8:
    def test_de_sphere(self):
        tic = time.perf_counter()
        bounds = np.array([[-5.0, 5.0]] * 10)
        cfg = DEConfig(population=40, weight=0.5, crossover=0.9,
                       generations=500, seed=8)
        def sphere(x):
            return float(np.sum(x ** 2))
        best1, val1, _ = de_optimize(bounds, sphere, cfg)
        best2, val2, _ = de_optimize(bounds, sphere, cfg)
        elapsed = time.perf_counter() - tic
        criterion(8, "10-D sphere below 1e-6 with NP=40 x 500 generations, "
                     "deterministic per seed",
                  val1 < 1e-6 and val1 == val2 and np.array_equal(best1, best2),
                  f"best {val1:.2e}, {elapsed:.1f}s")


class TestCriterion9:
    def test_frame_boundary_enumeration(self):
        ok = True
        for frame_size in (256, 1024, 2048):
            for overlap in range(1, 9):
                if frame_size % overlap:
                    continue
                cfg = framing.FrameShaperConfig(frame_size, overlap)
                for n in range(200):
                    k_b, k_e = framing.frame_bounds(n, cfg)
                    if k_b != n * frame_size // overlap or k_e != k_b + frame_size - 1:
                        ok = False
        cfg = framing.FrameShaperConfig(1024, 2)
        count_ok = framing.frame_count(10 * 1024, cfg) == 19
        criterion(9, "frame boundaries match the closed form for all "
                     "(n, K', f_d) and a 10-frame stream at f_d=2 yields 19 frames",
                  ok and count_ok)


@pytest.mark.slow
class TestCriterion10:
    def test_single_event_recovered_background_silent(self, trained_pipeline):
        model = trained_pipeline["model"]
        fr_cfg = framing.FrameShaperConfig()
        ft_cfg = FeatureConfig()
        profiles = siggen.default_profiles()

        def decision_map_for(spec):
            stream, truth = siggen.render_scenario(spec, fr_cfg)
            grid = training.stream_scores(stream, model, fr_cfg, ft_cfg)
            return tracker.build_decision_map(grid, np.full(7, 0.5)), truth

        event = siggen.EventSpec(6, 10.0, 20.0, 5, 7)
        spec = siggen.ScenarioSpec(30.0, 8, profiles[0], (event,), seed=1006)
        dmap, truth = decision_map_for(spec)
        tracks = tracker.glue_tracks(dmap, gap=2, width=2, min_duration=3,
                                     min_area=6)
        one_track = len(tracks) == 1 and tracks[0].class_id == 6
        if one_track:
            t, ref = tracks[0], truth[0]
            time_ok = (abs(t.frame_begin - ref.frame_begin) <= 2
                       and abs(t.frame_end - ref.frame_end) <= 2)
            chan_ok = (abs(t.chan_lo - ref.chan_lo) <= 2
                       and abs(t.chan_hi - ref.chan_hi) <= 2)
        else:
            time_ok = chan_ok = False

        quiet = siggen.ScenarioSpec(30.0, 8, profiles[0], (), seed=1007)
        qmap, _ = decision_map_for(quiet)
        quiet_tracks = tracker.glue_tracks(qmap, gap=2, width=2, min_duration=3,
                                           min_area=6)
        criterion(10, "one injected class-6 event -> exactly one class-6 track "
                      "within 2 frames / 2 channels; pure background -> zero tracks",
                  one_track and time_ok and chan_ok and not quiet_tracks,
                  f"tracks {[(t.class_id, t.frame_begin, t.frame_end, t.chan_lo, t.chan_hi) for t in tracks]}, "
                  f"truth ({truth[0].frame_begin}, {truth[0].frame_end}, "
                  f"{truth[0].chan_lo}, {truth[0].chan_hi}), "
                  f"background tracks {len(quiet_tracks)}")


class TestCriterion11:
    def test_benchmark_throughput(self):
        spec = tensornet.reference_member_specs()[0]
        net = tensornet.Network(spec, seed=11)
        rng = np.random.default_rng(11)
        blobs = rng.standard_normal((1000, 16, 64))

        def time_loop() -> float:
            tic = time.perf_counter()
            for i in range(blobs.shape[0]):
                net.forward_batch(blobs[i:i + 1])
            return time.perf_counter() - tic

        # The two runs' repeats alternate, so a spell of host slowness
        # lands on both runs instead of on one; each run is a median of 3.
        reps = ([], [])
        for _ in range(3):
            for run in reps:
                run.append(time_loop())
        t1, t2 = (sorted(run)[1] for run in reps)
        variance = abs(t1 - t2) / min(t1, t2)
        criterion(11, "1000-frame single-worker forward < 60 s with < 20% "
                      "run-to-run variance",
                  max(t1, t2) < 60.0 and variance < 0.20,
                  f"{1e3 * t1 / 1000:.2f} ms/frame, variance {100 * variance:.1f}%")
