"""Differential-evolution search over member architecture and training knobs.

Classic rand/1/bin: mutation v = a + F*(b - c) over three distinct random
population members, binomial crossover with a guaranteed gene from the
mutant, greedy selection.  Genomes stay continuous; discrete genes round
to the nearest admissible value at decode time so the vector arithmetic
never breaks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .config import at_least
from .errors import ConfigurationError, DivergenceError
from .tensornet import (ConvSpec, DenseSpec, DropoutSpec, Network, NetworkSpec,
                        PoolSpec, ReluSpec)
from .training import TrainConfig, train_member


@dataclass(frozen=True)
class SearchSpace:
    conv_layers: tuple[int, int] = (1, 3)
    kernel_choices: tuple[int, ...] = (3, 5, 7)
    channel_range: tuple[int, int] = (4, 32)
    dense_range: tuple[int, int] = (16, 128)
    dropout_range: tuple[float, float] = (0.0, 0.7)
    log_lr_range: tuple[float, float] = (-3.0, -0.5)
    log_decay_range: tuple[float, float] = (-6.0, -2.0)
    input_shape: tuple[int, int] = (16, 64)

    @property
    def max_convs(self) -> int:
        return self.conv_layers[1]

    def bounds(self) -> np.ndarray:
        """Per-gene (lo, hi); layout: n_conv, then (kernel, channels) per
        possible conv block, dense width, dropout, log lr, log decay."""
        rows = [self.conv_layers]
        for _ in range(self.max_convs):
            rows.append((min(self.kernel_choices), max(self.kernel_choices)))
            rows.append(self.channel_range)
        rows += [self.dense_range, self.dropout_range,
                 self.log_lr_range, self.log_decay_range]
        return np.array(rows, dtype=np.float64)


def _nearest(choices, value) -> int:
    """Nearest admissible value; exact midpoints round toward the smaller."""
    arr = np.asarray(choices, dtype=np.float64)
    dist = np.abs(arr - value)
    return int(arr[int(np.argmin(dist))])


def decode_genome(genome: np.ndarray, space: SearchSpace):
    """Genome -> (NetworkSpec, TrainConfig); always shape-consistent.

    Kernels larger than the remaining spatial extent shrink to fit, so
    every in-bounds genome decodes to a valid network.
    """
    g = np.asarray(genome, dtype=np.float64)
    b = space.bounds()
    if g.shape[0] != b.shape[0]:
        raise ConfigurationError(f"genome length {g.shape[0]} != {b.shape[0]}")
    g = np.clip(g, b[:, 0], b[:, 1])
    n_conv = _nearest(range(space.conv_layers[0], space.conv_layers[1] + 1), g[0])
    h, w = space.input_shape
    layers = []
    for i in range(n_conv):
        k = _nearest(space.kernel_choices, g[1 + 2 * i])
        ch = _nearest(range(space.channel_range[0], space.channel_range[1] + 1),
                      g[2 + 2 * i])
        kh = min(k, h)
        kw = min(k, w)
        if kh % 2 == 0:
            kh = max(1, kh - 1)
        if kw % 2 == 0:
            kw = max(1, kw - 1)
        layers += [ConvSpec((kh, kw), ch), ReluSpec()]
        h, w = h - kh + 1, w - kw + 1
        if h >= 2 and w >= 2:
            layers.append(PoolSpec((2, 2)))
            h, w = h // 2, w // 2
    dense_idx = 1 + 2 * space.max_convs
    dense = _nearest(range(space.dense_range[0], space.dense_range[1] + 1),
                     g[dense_idx])
    drop = float(np.clip(g[dense_idx + 1], *space.dropout_range))
    layers += [DenseSpec(dense), ReluSpec()]
    if drop > 0:
        layers.append(DropoutSpec(round(drop, 6)))
    spec = NetworkSpec(space.input_shape, tuple(layers))
    cfg = TrainConfig(lr=float(10.0 ** g[dense_idx + 2]),
                      weight_decay=float(10.0 ** g[dense_idx + 3]))
    return spec, cfg


@dataclass(frozen=True)
class DEConfig:
    """The ``search`` section: the evolution's settings, and the training
    budget and data cap of each fitness evaluation."""
    population: int = 8          # at least 4 for rand/1 mutation
    weight: float = 0.5          # differential weight F
    crossover: float = 0.9       # crossover rate CR
    generations: int = 5
    epochs: int = 4
    max_frames_per_class: int = 60

    def __post_init__(self):
        at_least(self, population=4, generations=1, epochs=1, max_frames_per_class=1)
        # weight 0 is allowed: it degenerates to crossover-only search, which
        # is still well-defined under greedy selection.
        if not 0.0 <= self.weight <= 2.0:
            raise ConfigurationError(f"weight must lie in [0, 2], got {self.weight}")
        if not 0.0 <= self.crossover <= 1.0:
            raise ConfigurationError(
                f"crossover must lie in [0, 1], got {self.crossover}")


@dataclass
class GenerationTrace:
    generation: int
    best_fitness: float
    best_genome: list[float]


def de_optimize(bounds: np.ndarray, fitness, cfg: DEConfig, seed: int,
                on_generation=None):
    """Minimize ``fitness`` over box bounds; returns (best, value, trace).

    ``on_generation(gen, population, values)`` is invoked after each
    generation's selection barrier, for instrumentation.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    dim = bounds.shape[0]
    rng = np.random.default_rng([seed, 0xDE])
    lo, hi = bounds[:, 0], bounds[:, 1]
    pop = rng.uniform(lo, hi, (cfg.population, dim))
    values = np.array([fitness(ind) for ind in pop], dtype=np.float64)
    trace: list[GenerationTrace] = []

    for gen in range(cfg.generations):
        for i in range(cfg.population):
            choices = [k for k in range(cfg.population) if k != i]
            a, b, c = rng.choice(choices, size=3, replace=False)
            mutant = np.clip(pop[a] + cfg.weight * (pop[b] - pop[c]), lo, hi)
            cross = rng.random(dim) < cfg.crossover
            cross[rng.integers(dim)] = True
            trial = np.where(cross, mutant, pop[i])
            trial_val = fitness(trial)
            if trial_val <= values[i]:
                pop[i] = trial
                values[i] = trial_val
        best = int(np.argmin(values))
        trace.append(GenerationTrace(gen, float(values[best]), pop[best].tolist()))
        if on_generation is not None:
            on_generation(gen, pop.copy(), values.copy())
    best = int(np.argmin(values))
    return pop[best].copy(), float(values[best]), trace


def fitness_eval(spec: NetworkSpec, cfg: TrainConfig, train_set, test_set,
                 seed: int) -> float:
    """Validation accuracy after a short training budget; divergence scores 0."""
    net = Network(spec, seed=seed)
    try:
        _, history = train_member(net, train_set, test_set, cfg, seed)
    except DivergenceError:
        return 0.0
    return history.records[history.best_epoch()].test_accuracy


def architecture_fitness(space: SearchSpace, train_set, test_set, epochs: int,
                         seed: int):
    """Fitness closure for de_optimize: negative accuracy after ``epochs``."""
    def fn(genome: np.ndarray) -> float:
        spec, cfg = decode_genome(genome, space)
        return -fitness_eval(spec, replace(cfg, epochs=epochs), train_set, test_set, seed)
    return fn


def write_trace(trace, path) -> None:
    with open(path, "w") as fh:
        for t in trace:
            fh.write(json.dumps({"generation": t.generation,
                                 "best_fitness": t.best_fitness,
                                 "best_genome": [round(v, 9) for v in t.best_genome]})
                     + "\n")
