"""Dataset handling, cross-entropy training loop, and self-relabeling.

Members train separately with mini-batch SGD (momentum, L2 weight decay,
dropout); the returned parameters are the best-test-accuracy snapshot.
After primary training, the ensemble itself can audit the labels: fuse
member scores, apply the threshold rule, and flip stored labels the model
contradicts with high confidence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import CLASS_COUNT
from .errors import (ConfigurationError, DivergenceError, MissingDataError,
                     NonFiniteGradientError)
from .features import FeatureConfig, blobs_from_windows, fit_normalizer, standardize
from .framing import (FrameShaperConfig, adapt_frames, frame_count, frame_matrix,
                      primary_filter)
from .siggen import DatasetManifest, load_stream, render_scenario
from .tensornet import Network, sgd_step
from .ensemble import EnsembleModel, predict_fused, threshold_decide


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 0.05
    lr_decay_every: int = 0        # epochs between step decays; 0 disables
    lr_decay_factor: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    early_stop_acc: float | None = None   # stop once test accuracy reaches this

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.lr < 0:
            raise ConfigurationError("lr must be >= 0")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_accuracy: float
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def best_epoch(self) -> int:
        return int(np.argmax([r.test_accuracy for r in self.records]))


def one_hot(labels: np.ndarray, n_classes: int = CLASS_COUNT) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities clamped at 1e-12."""
    p = np.asarray(scores, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64)
    if p.shape[0] == 0:
        raise ConfigurationError("loss of an empty batch is undefined")
    if t.ndim == 1:
        t = one_hot(t, p.shape[1])
    return float(-(t * np.log(np.clip(p, 1e-12, None))).sum() / p.shape[0])


def evaluate_accuracy(net: Network, x: np.ndarray, y: np.ndarray,
                      batch: int = 256) -> float:
    hits = 0
    for k in range(0, x.shape[0], batch):
        probs, _, _ = net.forward_batch(x[k:k + batch])
        hits += int(np.sum(np.argmax(probs, axis=1) == y[k:k + batch]))
    return hits / x.shape[0]


def train_member(net: Network, train_set, test_set, cfg: TrainConfig):
    """Mini-batch SGD; returns (best network, history).

    ``train_set``/``test_set`` are (blobs, labels) pairs with blobs shaped
    (N, subwindows, feature_dim) and integer labels.  Deterministic for a
    fixed (cfg, data): shuffling and dropout come from one seeded rng.
    A non-finite loss aborts with the last good parameters attached.
    """
    x_train, y_train = train_set
    x_test, y_test = test_set
    x_train = np.asarray(x_train, dtype=net.dtype)
    x_test = np.asarray(x_test, dtype=net.dtype)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_test = np.asarray(y_test, dtype=np.int64)
    t_train = one_hot(y_train, net.spec.n_classes)

    rng = np.random.default_rng([cfg.seed, 0x7EA1])
    history = TrainHistory()
    velocity = None
    best = net.clone()
    best_acc = -1.0
    lr = cfg.lr
    n = x_train.shape[0]
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        if cfg.lr_decay_every and epoch and epoch % cfg.lr_decay_every == 0:
            lr *= cfg.lr_decay_factor
        order = rng.permutation(n)
        losses = []
        for k in range(0, n, cfg.batch_size):
            idx = order[k:k + cfg.batch_size]
            probs, _, caches = net.forward_batch(x_train[idx], train=True, rng=rng)
            batch_loss = cross_entropy_loss(probs, t_train[idx])
            if not np.isfinite(batch_loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}",
                                      last_good=best, history=history)
            losses.append(batch_loss)
            if cfg.lr == 0.0:
                continue
            grads = net.backward_batch(caches, probs, t_train[idx])
            try:
                _, velocity = sgd_step(net, grads, lr, cfg.momentum,
                                       cfg.weight_decay, velocity)
            except NonFiniteGradientError as err:
                raise DivergenceError(f"gradient diverged at epoch {epoch}: {err}",
                                      last_good=best, history=history) from err
        acc = evaluate_accuracy(net, x_test, y_test)
        history.records.append(EpochRecord(epoch, float(np.mean(losses)), acc,
                                           time.perf_counter() - tic))
        if acc > best_acc:
            best_acc = acc
            best = net.clone()
        if cfg.early_stop_acc is not None and acc >= cfg.early_stop_acc:
            break
    return best, history


@dataclass
class RelabelChange:
    index: int
    old_class: int
    new_class: int
    confidence: float


def relabel_dataset(model: EnsembleModel, blobs: np.ndarray, labels: np.ndarray,
                    thresholds: np.ndarray, confidence: float = 0.95):
    """Let the trained ensemble audit the labels.

    For every frame: fuse member scores by L2, apply the threshold rule;
    when the decision disagrees with the stored label and the fused score
    of the decided class reaches ``confidence``, the label flips.  Returns
    (new labels, list of changes).
    """
    labels = np.asarray(labels, dtype=np.int64)
    fused = predict_fused(model, blobs)
    decided = threshold_decide(fused, thresholds)
    conf = np.take_along_axis(fused, decided[:, None], axis=1)[:, 0]
    flip = (decided != labels) & (conf >= confidence)
    changes = [RelabelChange(int(i), int(labels[i]), int(decided[i]), float(conf[i]))
               for i in np.nonzero(flip)[0]]
    return np.where(flip, decided, labels), changes


def write_relabel_report(changes, path) -> None:
    with open(path, "w") as fh:
        for c in changes:
            fh.write(json.dumps({"index": c.index, "old": c.old_class,
                                 "new": c.new_class,
                                 "confidence": round(c.confidence, 6)}) + "\n")


def split_dataset(manifest: DatasetManifest, ratio: int = 7, seed: int = 0):
    """Re-split a manifest by scenario, then balance the test side.

    Per class, ``max(1, round(n_scenarios / (ratio + 1)))`` whole scenarios
    go to test; no scenario straddles the split.  Test entries are then
    subsampled (seeded) to equal per-class counts.
    """
    by_class: dict[int, list[str]] = {}
    for e in manifest.entries:
        sids = by_class.setdefault(e.class_id, [])
        if e.scenario_id not in sids:
            sids.append(e.scenario_id)
    if not by_class:
        raise ConfigurationError("empty manifest")
    for c, sids in by_class.items():
        if not sids:
            raise ConfigurationError(f"class {c} has no scenarios")

    rng = np.random.default_rng([seed, 0x5711])
    test_scenarios: set[str] = set()
    for c in sorted(by_class):
        sids = by_class[c]
        quota = max(1, round(len(sids) / (ratio + 1)))
        if quota >= len(sids):
            raise ConfigurationError(f"class {c}: too few scenarios to split")
        order = rng.permutation(len(sids))
        test_scenarios.update(sids[i] for i in order[:quota])

    train_entries = [e for e in manifest.entries if e.scenario_id not in test_scenarios]
    test_entries = [e for e in manifest.entries if e.scenario_id in test_scenarios]

    per_class: dict[int, list] = {}
    for e in test_entries:
        per_class.setdefault(e.class_id, []).append(e)
    floor = min(len(v) for v in per_class.values())
    balanced = []
    for c in sorted(per_class):
        pool = per_class[c]
        keep = rng.permutation(len(pool))[:floor]
        balanced.extend(pool[i] for i in sorted(keep))

    train = DatasetManifest(train_entries, manifest.scenarios, manifest.framing,
                            manifest.seed)
    test = DatasetManifest(balanced, manifest.scenarios, manifest.framing,
                           manifest.seed)
    return train, test


# ---------------------------------------------------------------------------
# Feature assembly from streams and manifests

def stream_features(stream, fr_cfg: FrameShaperConfig, ft_cfg: FeatureConfig,
                    adapt_decay: float = 0.05, band=(5.0, 800.0),
                    cells=None) -> tuple[np.ndarray, list]:
    """Filter, frame, adapt, and featurize a stream.

    ``cells`` restricts output to the given (frame, channel) pairs; None
    produces every frame of every channel, channel by channel.  Returns
    (blob stack, cells).  Sub-windows that do not divide the frame raise
    ConfigurationError; a stream shorter than one frame raises
    MissingDataError.
    """
    if fr_cfg.frame_size % ft_cfg.subwindows:
        raise ConfigurationError(
            f"frame size {fr_cfg.frame_size} not divisible by "
            f"{ft_cfg.subwindows} subwindows")
    if frame_count(stream.sample_count, fr_cfg) == 0:
        raise MissingDataError(
            f"stream holds {stream.sample_count} samples per channel, "
            f"fewer than one frame of {fr_cfg.frame_size}")
    filtered = primary_filter(stream, band)
    frames = frame_matrix(filtered, fr_cfg)      # (C, N, K')
    n_ch, n_fr, _ = frames.shape
    if cells is None:
        cells = [(n, l) for l in range(n_ch) for n in range(n_fr)]
    sel = np.array([(l, n) for n, l in cells], dtype=np.int64)
    normed = adapt_frames(frames, adapt_decay, (sel[:, 0], sel[:, 1]))
    windows = normed.reshape(len(cells), ft_cfg.subwindows, -1)
    blobs = blobs_from_windows(windows, ft_cfg)
    return blobs, cells


def stream_scores(stream, model: EnsembleModel, fr_cfg: FrameShaperConfig,
                  ft_cfg: FeatureConfig, adapt_decay: float = 0.05,
                  band=(5.0, 800.0), fusion: str = "l2") -> np.ndarray:
    """Fused score grid (n_frames, channels, CLASS_COUNT) of a whole stream,
    standardized by the model's normalizer and clipped at ``ft_cfg.clip``."""
    blobs, _ = stream_features(stream, fr_cfg, ft_cfg, adapt_decay, band)
    fused = predict_fused(model, standardize(blobs, model.normalizer, ft_cfg.clip),
                          fusion)
    # Cells run channel by channel, so the rows are (channel, frame) major.
    grid = fused.reshape(stream.channel_count, -1, CLASS_COUNT).swapaxes(0, 1)
    return np.ascontiguousarray(grid)


def _entry_features(entries, stream_of, fr_cfg: FrameShaperConfig,
                    ft_cfg: FeatureConfig, adapt_decay: float, band):
    """Blobs, labels and splits of (scenario, frame, channel, class, split)
    entries; ``stream_of(scenario)`` gives each scenario's stream once."""
    by_scenario: dict[str, list] = {}
    for i, e in enumerate(entries):
        by_scenario.setdefault(e[0], []).append(i)
    blobs = np.empty((len(entries), ft_cfg.subwindows, ft_cfg.feature_dim))
    for sid, idxs in sorted(by_scenario.items()):
        cells = [entries[i][1:3] for i in idxs]
        blobs[idxs], _ = stream_features(stream_of(sid), fr_cfg, ft_cfg,
                                         adapt_decay, band, cells)
    labels = np.array([e[3] for e in entries], dtype=np.int64)
    splits = np.array([e[4] for e in entries], dtype=object)
    return blobs, labels, splits


def load_dataset_features(dataset_dir, ft_cfg: FeatureConfig | None = None,
                          adapt_decay: float = 0.05, band=(5.0, 800.0)):
    """Blobs and labels for every manifest entry of a saved dataset.

    Returns (blobs, labels, splits) aligned arrays; blobs are raw feature
    values, not yet standardized.
    """
    root = Path(dataset_dir)
    if not (root / "meta.json").exists():
        raise FileNotFoundError(f"{root}: missing meta.json")
    meta = json.loads((root / "meta.json").read_text())
    fr_cfg = FrameShaperConfig(meta["frame_size"], meta["overlap_factor"])
    with open(root / "manifest.jsonl") as fh:
        entries = [(e["scenario"], e["frame"], e["channel"], e["class_id"], e["split"])
                   for e in map(json.loads, fh)]

    def stream_of(sid):
        return load_stream(root / "scenarios" / f"{sid}.i16",
                           meta["scenarios"][sid]["channels"])

    return _entry_features(entries, stream_of, fr_cfg, ft_cfg or FeatureConfig(),
                           adapt_decay, band)


def manifest_features(manifest: DatasetManifest, ft_cfg: FeatureConfig | None = None,
                      adapt_decay: float = 0.05, band=(5.0, 800.0)):
    """Like load_dataset_features but renders scenarios in memory."""
    entries = [(e.scenario_id, e.frame_index, e.channel, e.class_id, e.split)
               for e in manifest.entries]

    def stream_of(sid):
        return render_scenario(manifest.scenarios[sid], manifest.framing)[0]

    return _entry_features(entries, stream_of, manifest.framing,
                           ft_cfg or FeatureConfig(), adapt_decay, band)


def standardized_sets(blobs, labels, splits, ft_cfg: FeatureConfig | None = None):
    """Fit the normalizer on the training split and standardize both splits."""
    ft_cfg = ft_cfg or FeatureConfig()
    train_mask = splits == "train"
    stats = fit_normalizer(blobs[train_mask])
    return (standardize(blobs[train_mask], stats, ft_cfg.clip), labels[train_mask]), \
           (standardize(blobs[~train_mask], stats, ft_cfg.clip), labels[~train_mask]), stats
