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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import CLASS_COUNT
from .config import at_least
from .errors import (ConfigurationError, DivergenceError, MissingDataError,
                     NonFiniteGradientError, NumericError)
from .features import (FeatureConfig, NormalizerStats, Pipeline, blobs_from_windows,
                       fit_normalizer, standardize)
from .framing import (FrameShaperConfig, frame_count, frame_matrix, primary_filter,
                      running_stats)
from .siggen import load_stream
from .tensornet import Network, reference_member_specs, sgd_step
from .ensemble import EnsembleModel, predict_fused, threshold_decide


@dataclass(frozen=True)
class TrainConfig:
    """The ``training`` section."""
    epochs: int = 200
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    early_stop_acc: float | None = None   # stop once test accuracy reaches this
    relabel: bool = False                 # let the trained ensemble audit the labels
    relabel_confidence: float = 0.95      # fused score a label flip needs

    def __post_init__(self):
        at_least(self, epochs=1, batch_size=1, lr=0)
        if not 0.0 <= self.relabel_confidence <= 1.0:
            raise ConfigurationError(f"relabel_confidence must lie in [0, 1], "
                                     f"got {self.relabel_confidence}")


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


def cross_entropy_loss(scores: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of one-hot ``targets``; probabilities
    clamped at 1e-12."""
    p = np.asarray(scores, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape[0] == 0:
        raise ConfigurationError("loss of an empty batch is undefined")
    return float(-(t * np.log(np.clip(p, 1e-12, None))).sum() / p.shape[0])


def evaluate_accuracy(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    """Share of rows of ``x`` whose most probable class is ``y``;
    NumericError when a score is not finite."""
    probs, _, _ = net.forward_batch(x)
    if not np.isfinite(probs).all():
        raise NumericError("scores are not all finite")
    return int(np.sum(np.argmax(probs, axis=1) == y)) / x.shape[0]


@np.errstate(over="ignore", invalid="ignore")
def train_member(net: Network, train_set, test_set, cfg: TrainConfig, seed: int):
    """Mini-batch SGD; returns (best network, history).

    ``train_set``/``test_set`` are (blobs, labels) pairs with blobs shaped
    (N, subwindows, feature_dim) and integer labels.  Deterministic for a
    fixed (cfg, seed, data): shuffling and dropout come from one rng seeded
    by ``seed``.
    A non-finite loss, gradient or test score aborts with the last good
    parameters attached; the passes run with numpy's overflow and invalid
    warnings off, since each such result ends in that error.
    """
    x_train, y_train = train_set
    x_test, y_test = test_set
    x_train = np.asarray(x_train, dtype=net.dtype)
    x_test = np.asarray(x_test, dtype=net.dtype)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_test = np.asarray(y_test, dtype=np.int64)
    t_train = one_hot(y_train, net.spec.n_classes)

    rng = np.random.default_rng([seed, 0x7EA1])
    history = TrainHistory()
    velocity = None
    best = net.clone()
    best_acc = -1.0
    n = x_train.shape[0]
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
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
                _, velocity = sgd_step(net, grads, cfg.lr, cfg.momentum,
                                       cfg.weight_decay, velocity)
            except NonFiniteGradientError as err:
                raise DivergenceError(f"gradient diverged at epoch {epoch}: {err}",
                                      last_good=best, history=history) from err
        try:
            acc = evaluate_accuracy(net, x_test, y_test)
        except NumericError as err:
            raise DivergenceError(f"test {err} at epoch {epoch}",
                                  last_good=best, history=history) from err
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
                    threshold: float, confidence: float):
    """Let the trained ensemble audit the labels.

    For every frame: fuse member scores by L2, apply the threshold rule;
    when the decision disagrees with the stored label and the fused score
    of the decided class reaches ``confidence``, the label flips.  Returns
    (new labels, list of changes).
    """
    labels = np.asarray(labels, dtype=np.int64)
    fused = predict_fused(model, blobs)
    decided = threshold_decide(fused, threshold)
    conf = np.take_along_axis(fused, decided[:, None], axis=1)[:, 0]
    flip = (decided != labels) & (conf >= confidence)
    changes = [RelabelChange(int(i), int(labels[i]), int(decided[i]), float(conf[i]))
               for i in np.nonzero(flip)[0]]
    return np.where(flip, decided, labels), changes


def train_ensemble(train_set, test_set, normalizer: NormalizerStats, pipeline: Pipeline,
                   cfg: TrainConfig, threshold: float, seed: int):
    """Train the reference members C1-C3 (member j seeded ``seed + j``).

    With ``cfg.relabel`` on, the trained ensemble then relabels the training
    set at ``cfg.relabel_confidence``, and if any label changed, each member
    trains on for a quarter of the epochs at half the rate (seed
    ``seed + 100 + j``); its history then continues with those epochs.
    Returns (model, per-member histories, relabel changes).
    """
    specs = reference_member_specs((pipeline.features.subwindows,
                                    pipeline.features.feature_dim))
    members, histories = [], []
    for j, spec in enumerate(specs):
        best, history = train_member(Network(spec, seed=seed + j), train_set,
                                     test_set, cfg, seed + j)
        members.append(best)
        histories.append(history)
    model = EnsembleModel(members, normalizer, pipeline)
    changes = []
    if cfg.relabel:
        x_train, y_train = train_set
        new_labels, changes = relabel_dataset(model, x_train, y_train, threshold,
                                              cfg.relabel_confidence)
        if changes:
            tc = replace(cfg, epochs=max(1, cfg.epochs // 4), lr=cfg.lr / 2)
            for j in range(3):
                model.members[j], history = train_member(
                    model.members[j], (x_train, new_labels), test_set, tc, seed + 100 + j)
                # Fine-tune epochs number on from the first run's.
                start = len(histories[j].records)
                histories[j].records.extend(replace(r, epoch=start + r.epoch)
                                            for r in history.records)
    return model, histories, changes


def write_relabel_report(changes, path) -> None:
    with open(path, "w") as fh:
        for c in changes:
            fh.write(json.dumps({"index": c.index, "old": c.old_class,
                                 "new": c.new_class,
                                 "confidence": round(c.confidence, 6)}) + "\n")


# ---------------------------------------------------------------------------
# Feature assembly from streams and saved datasets

def stream_features(stream, fr_cfg: FrameShaperConfig, ft_cfg: FeatureConfig,
                    cells=None) -> tuple[np.ndarray, list]:
    """Filter, frame, adapt, and featurize a stream.

    ``fr_cfg`` and ``ft_cfg`` are the two sections of one ``Pipeline``, which checks them.
    ``cells`` restricts output to the given (frame, channel) pairs; None
    produces every frame of every channel, channel by channel.  Returns
    (blob stack, cells).  A stream shorter than one frame raises
    MissingDataError.  Each distinct sub-window the cells cover is
    featurized once, with every cell's adaptation applied to its
    statistics (see ``blobs_from_windows``).
    """
    Pipeline(fr_cfg, ft_cfg)
    if frame_count(stream.sample_count, fr_cfg) == 0:
        raise MissingDataError(
            f"stream holds {stream.sample_count} samples per channel, "
            f"fewer than one frame of {fr_cfg.frame_size}")
    filtered = primary_filter(stream, fr_cfg.band)
    frames = frame_matrix(filtered, fr_cfg)      # (C, N, K')
    n_ch, n_fr, _ = frames.shape
    if cells is None:
        cells = [(n, l) for l in range(n_ch) for n in range(n_fr)]
    sel = np.array([(l, n) for n, l in cells], dtype=np.int64).reshape(-1, 2)
    mean, sd = running_stats(frames, fr_cfg.adapt_decay, (sel[:, 0], sel[:, 1]))
    sub_len = fr_cfg.frame_size // ft_cfg.subwindows
    # Offset of every cell's sub-windows in the flattened (channel-major) samples.
    starts = (sel[:, :1] * stream.sample_count + sel[:, 1:] * fr_cfg.step
              + np.arange(ft_cfg.subwindows) * sub_len)
    distinct, pick = np.unique(starts, return_inverse=True)
    windows = np.lib.stride_tricks.sliding_window_view(
        filtered.samples.reshape(-1), sub_len)[distinct]
    blobs = blobs_from_windows(windows[None], ft_cfg, pick.reshape(starts.shape),
                               mean[:, None], sd[:, None])
    return blobs, cells


def stream_scores(stream, model: EnsembleModel, fusion: str) -> np.ndarray:
    """Fused score grid (n_frames, channels, CLASS_COUNT) of a whole stream,
    through the model's pipeline and normalizer, by the ``fusion`` rule."""
    p = model.pipeline
    blobs, _ = stream_features(stream, p.framing, p.features)
    fused = predict_fused(model, standardize(blobs, model.normalizer, p.features.clip),
                          fusion)
    # Cells run channel by channel, so the rows are (channel, frame) major.
    grid = fused.reshape(stream.channel_count, -1, CLASS_COUNT).swapaxes(0, 1)
    return np.ascontiguousarray(grid)


def _one_of(value, allowed, name: str):
    """``value`` if ``allowed``, a range of ints or a tuple of strings, holds
    it; ConfigurationError naming ``name`` otherwise."""
    if type(value) is not (int if isinstance(allowed, range) else str) \
            or value not in allowed:
        raise ConfigurationError(f"{name} is {value!r}, expected one of {allowed}")
    return value


def _read_manifest(dataset_dir, pipeline: Pipeline):
    """A saved dataset's ``meta.json`` and manifest entries as (scenario,
    frame, channel, class, split) tuples; its frames must be the pipeline's.

    Every entry must name a scenario of ``meta.json`` and a frame and
    channel inside its stream; a malformed file raises ConfigurationError
    naming it and the line.
    """
    root = Path(dataset_dir)
    where = root / "meta.json"
    try:
        meta = json.loads(where.read_bytes())
        framing = replace(pipeline.framing, frame_size=meta["frame_size"],
                          overlap_factor=meta["overlap_factor"])
        if framing != pipeline.framing:
            raise ConfigurationError(
                f"the dataset has frames of {framing.frame_size} samples at overlap "
                f"{framing.overlap_factor}, the configuration "
                f"{pipeline.framing.frame_size} at {pipeline.framing.overlap_factor}")
        extent = {sid: (range(frame_count(sc["n_samples"], framing)),
                        range(sc["channels"])) for sid, sc in meta["scenarios"].items()}
        entries = []
        with open(root / "manifest.jsonl", "rb") as fh:
            for line, text in enumerate(fh, start=1):
                where = f"{root / 'manifest.jsonl'}, line {line}"
                e = json.loads(text)
                if e["scenario"] not in extent:
                    raise ConfigurationError(
                        f"scenario {e['scenario']!r} is not in meta.json")
                frames, channels = extent[e["scenario"]]
                entries.append((e["scenario"], _one_of(e["frame"], frames, "frame"),
                                _one_of(e["channel"], channels, "channel"),
                                _one_of(e["class_id"], range(CLASS_COUNT), "class_id"),
                                _one_of(e["split"], ("train", "test"), "split")))
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        detail = err if isinstance(err, ConfigurationError) else f"malformed ({err!r})"
        raise ConfigurationError(f"{where}: {detail}") from err
    if not entries:
        raise ConfigurationError(f"{root / 'manifest.jsonl'}: holds no entries")
    return meta, entries


def _labels_splits(entries):
    return (np.array([e[3] for e in entries], dtype=np.int64),
            np.array([e[4] for e in entries], dtype=object))


def dataset_labels(dataset_dir, pipeline: Pipeline):
    """(labels, splits) of every manifest entry of a saved dataset, without
    featurizing anything."""
    return _labels_splits(_read_manifest(dataset_dir, pipeline)[1])


def load_dataset_features(dataset_dir, pipeline: Pipeline, keep=None):
    """Blobs, labels and splits of a saved dataset's manifest entries: every
    entry, or those where the boolean mask ``keep`` is set.

    Returns aligned arrays; blobs are raw feature values, not yet
    standardized.  Each scenario stream is read and featurized once, for
    its kept cells only.
    """
    meta, entries = _read_manifest(dataset_dir, pipeline)
    if keep is not None:
        entries = [e for e, k in zip(entries, keep) if k]
    by_scenario: dict[str, list] = {}
    for i, e in enumerate(entries):
        by_scenario.setdefault(e[0], []).append(i)
    p = pipeline
    blobs = np.empty((len(entries), p.features.subwindows, p.features.feature_dim))
    for sid, idxs in sorted(by_scenario.items()):
        path, sc = Path(dataset_dir) / "scenarios" / f"{sid}.i16", meta["scenarios"][sid]
        stream = load_stream(path, sc["channels"])
        if stream.sample_count != sc["n_samples"]:
            raise ConfigurationError(f"{path}: holds {stream.sample_count} samples per "
                                     f"channel, meta.json says {sc['n_samples']}")
        blobs[idxs], _ = stream_features(stream, p.framing, p.features,
                                         [entries[i][1:3] for i in idxs])
    return (blobs, *_labels_splits(entries))


def standardized_sets(blobs, labels, splits, clip: float):
    """Fit the normalizer on the training split and standardize both splits."""
    train_mask = splits == "train"
    if train_mask.all() or not train_mask.any():
        raise ConfigurationError("the dataset needs both train and test entries")
    stats = fit_normalizer(blobs[train_mask])
    return (standardize(blobs[train_mask], stats, clip), labels[train_mask]), \
           (standardize(blobs[~train_mask], stats, clip), labels[~train_mask]), stats
