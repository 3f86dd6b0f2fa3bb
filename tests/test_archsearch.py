import numpy as np
import pytest

from fiberwatch.archsearch import (DEConfig, SearchSpace, architecture_fitness,
                                   decode_genome, de_optimize, fitness_eval)
from fiberwatch.errors import ConfigurationError
from fiberwatch.tensornet import DenseSpec, Network, NetworkSpec, ReluSpec
from fiberwatch.training import TrainConfig, train_member


def encode_spec(spec: NetworkSpec, cfg: TrainConfig, space: SearchSpace) -> np.ndarray:
    """Inverse of decode_genome for admissible specs (grid points)."""
    b = space.bounds()
    g = b[:, 0].copy()
    convs = [l for l in spec.layers if l.kind == "conv"]
    g[0] = len(convs)
    for i, c in enumerate(convs):
        g[1 + 2 * i] = c.kernel[0]
        g[2 + 2 * i] = c.channels
    dense_idx = 1 + 2 * space.max_convs
    denses = [l for l in spec.layers if l.kind == "dense"]
    g[dense_idx] = denses[0].width
    drops = [l for l in spec.layers if l.kind == "dropout"]
    g[dense_idx + 1] = drops[0].rate if drops else 0.0
    g[dense_idx + 2] = np.log10(cfg.lr)
    g[dense_idx + 3] = np.log10(cfg.weight_decay)
    return g


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class TestDeOptimize:
    def test_sphere_reaches_1e6(self):
        bounds = np.array([[-5.0, 5.0]] * 10)
        cfg = DEConfig(population=40, weight=0.5, crossover=0.9,
                       generations=500)
        best, value, trace = de_optimize(bounds, sphere, cfg, 0)
        assert value < 1e-6
        assert sphere(best) == value

    def test_selection_only_never_worsens_per_individual(self):
        bounds = np.array([[-3.0, 3.0]] * 5)
        cfg = DEConfig(population=8, weight=0.0, crossover=0.0,
                       generations=30)
        per_gen = []
        de_optimize(bounds, sphere, cfg, 1,
                    on_generation=lambda g, pop, vals: per_gen.append(vals))
        stacked = np.stack(per_gen)
        assert np.all(np.diff(stacked, axis=0) <= 1e-15)

    def test_best_fitness_monotone_across_generations(self):
        bounds = np.array([[-5.0, 5.0]] * 6)
        cfg = DEConfig(population=12, weight=0.7, crossover=0.8,
                       generations=60)
        _, _, trace = de_optimize(bounds, sphere, cfg, 3)
        fits = [t.best_fitness for t in trace]
        assert all(b <= a + 1e-15 for a, b in zip(fits, fits[1:]))

    def test_deterministic_trace(self):
        bounds = np.array([[-2.0, 2.0]] * 4)
        cfg = DEConfig(population=10, weight=0.5, crossover=0.9,
                       generations=20)
        a = de_optimize(bounds, sphere, cfg, 7)
        b = de_optimize(bounds, sphere, cfg, 7)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]
        assert [t.best_fitness for t in a[2]] == [t.best_fitness for t in b[2]]

    def test_population_floor(self):
        with pytest.raises(ConfigurationError):
            DEConfig(population=3)

    def test_solutions_respect_bounds(self):
        bounds = np.array([[0.5, 1.5]] * 3)
        cfg = DEConfig(population=8, weight=1.9, crossover=1.0,
                       generations=15)
        best, _, _ = de_optimize(bounds, sphere, cfg, 2)
        assert np.all(best >= 0.5) and np.all(best <= 1.5)


class TestDecodeGenome:
    def test_lower_bounds_give_minimal_net(self):
        space = SearchSpace()
        genome = space.bounds()[:, 0]
        spec, cfg = decode_genome(genome, space)
        convs = [l for l in spec.layers if l.kind == "conv"]
        assert len(convs) == 1
        assert convs[0].kernel == (3, 3)
        assert convs[0].channels == 4
        denses = [l for l in spec.layers if l.kind == "dense"]
        assert denses[0].width == 16
        assert cfg.lr == pytest.approx(1e-3)

    def test_round_trip_on_grid_points(self):
        space = SearchSpace()
        spec = NetworkSpec(space.input_shape, (
            *decode_genome(space.bounds().mean(axis=1), space)[0].layers,))
        cfg = TrainConfig(lr=0.01, weight_decay=1e-4)
        genome = encode_spec(spec, cfg, space)
        spec2, cfg2 = decode_genome(genome, space)
        assert spec2.layers == spec.layers
        assert cfg2.lr == pytest.approx(cfg.lr)
        assert cfg2.weight_decay == pytest.approx(cfg.weight_decay)

    def test_midpoint_rounds_down(self):
        space = SearchSpace()
        genome = space.bounds()[:, 0].copy()
        genome[1] = 3.6          # nearest of {3,5,7} is 3
        spec, _ = decode_genome(genome, space)
        conv = [l for l in spec.layers if l.kind == "conv"][0]
        assert conv.kernel == (3, 3)
        genome[1] = 4.0          # exact midpoint of 3 and 5 -> 3
        spec, _ = decode_genome(genome, space)
        conv = [l for l in spec.layers if l.kind == "conv"][0]
        assert conv.kernel == (3, 3)

    def test_fuzz_all_genomes_build_valid_networks(self):
        # Spec-level invariant: every in-bounds genome decodes and builds.
        space = SearchSpace()
        b = space.bounds()
        rng = np.random.default_rng(99)
        genomes = rng.uniform(b[:, 0], b[:, 1], size=(10_000, b.shape[0]))
        blob = rng.standard_normal((1,) + space.input_shape)
        for k, genome in enumerate(genomes):
            spec, _ = decode_genome(genome, space)
            if k % 500 == 0:       # building every net is the slow part
                net = Network(spec, seed=0)
                probs, _, _ = net.forward_batch(blob)
                assert probs.shape == (1, 7)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_genome(np.zeros(3), SearchSpace())


def toy_sets(rng, per_class=12, shape=(4, 6)):
    xs, ys = [], []
    for c in range(7):
        center = np.zeros(shape)
        center[c % shape[0], c % shape[1]] = 3.0
        xs.append(center + 0.05 * rng.standard_normal((per_class,) + shape))
        ys.append(np.full(per_class, c))
    return np.concatenate(xs), np.concatenate(ys)


class TestFitness:
    def test_random_net_near_chance(self, rng):
        x, y = toy_sets(rng)
        spec = NetworkSpec((4, 6), (DenseSpec(8), ReluSpec()))
        net = Network(spec, seed=0)
        from fiberwatch.training import evaluate_accuracy
        acc = evaluate_accuracy(net, x, y)
        assert abs(acc - 1.0 / 7.0) < 0.15

    def test_trained_spec_keeps_known_accuracy(self, rng):
        x, y = toy_sets(rng)
        spec = NetworkSpec((4, 6), (DenseSpec(24), ReluSpec()))
        cfg = TrainConfig(epochs=30, lr=0.1, momentum=0.9)
        acc = fitness_eval(spec, cfg, (x, y), (x, y), seed=0)
        assert acc > 0.9

    def test_fitness_is_the_best_epoch_accuracy(self, rng):
        x, y = toy_sets(rng)
        spec = NetworkSpec((4, 6), (DenseSpec(8), ReluSpec()))
        cfg = TrainConfig(epochs=6, lr=0.05, momentum=0.9)
        _, history = train_member(Network(spec, seed=3), (x, y), (x, y), cfg, 3)
        best = max(r.test_accuracy for r in history.records)
        assert fitness_eval(spec, cfg, (x, y), (x, y), seed=3) == best

    def test_wider_net_beats_one_unit_bottleneck(self, rng):
        x, y = toy_sets(rng)
        cfg = TrainConfig(epochs=25, lr=0.1, momentum=0.9)
        tiny = fitness_eval(NetworkSpec((4, 6), (DenseSpec(1),)), cfg, (x, y), (x, y), 0)
        wide = fitness_eval(NetworkSpec((4, 6), (DenseSpec(32), ReluSpec())),
                            cfg, (x, y), (x, y), 0)
        assert wide > tiny

    def test_architecture_fitness_closure(self, rng):
        x, y = toy_sets(rng, per_class=6)
        space = SearchSpace(input_shape=(4, 6), conv_layers=(1, 1),
                            kernel_choices=(3,), channel_range=(4, 8),
                            dense_range=(16, 32))
        fn = architecture_fitness(space, (x, y), (x, y), epochs=2, seed=0)
        val = fn(space.bounds().mean(axis=1))
        assert -1.0 <= val <= 0.0
