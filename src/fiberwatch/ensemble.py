"""Three-member primary classifier and its decision/fusion rules.

Partial decisions come from a per-class threshold rule; a single decision
is produced either by two-out-of-three voting on the hard labels, or by
score-level fusion that keeps the posterior information: L2-normalized
summation, or selection of the most confident member.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import CLASS_COUNT
from .errors import ConfigurationError
from .features import NormalizerStats
from .tensornet import Network, load_checkpoint, save_checkpoint

DEFAULT_THRESHOLD = 0.5


@dataclass
class EnsembleModel:
    members: list[Network]                 # exactly C1, C2, C3 in order
    thresholds: np.ndarray                 # (3, CLASS_COUNT), entries in (0, 1]
    normalizer: NormalizerStats | None = None

    def __post_init__(self):
        if len(self.members) != 3:
            raise ConfigurationError("ensemble needs exactly 3 members")
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if self.thresholds.shape != (3, CLASS_COUNT):
            raise ConfigurationError(f"thresholds must be 3 x {CLASS_COUNT}")
        if np.any(self.thresholds <= 0) or np.any(self.thresholds > 1):
            raise ConfigurationError("thresholds must lie in (0, 1]")


def default_thresholds() -> np.ndarray:
    return np.full((3, CLASS_COUNT), DEFAULT_THRESHOLD)


def threshold_decide(scores: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Most probable class where its score clears that class's threshold, else 0.

    ``scores`` holds score vectors along its last axis, shape (..., 7);
    the result has shape (...).  Argmax ties break toward the lowest
    index, biasing toward the non-alarm background class.
    """
    probs = np.asarray(scores, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    ok = (alpha > 0) & (alpha <= 1)
    if not ok.all():
        raise ConfigurationError(f"thresholds must lie in (0, 1], got {alpha[~ok].flat[0]}")
    winners = np.argmax(probs, axis=-1)
    winning = np.take_along_axis(probs, winners[..., None], axis=-1)[..., 0]
    return np.where(winning >= alpha[winners], winners, 0).astype(np.int64)


def vote_two_of_three(c1: int, c2: int, c3: int) -> int:
    """Two-out-of-three agreement: an agreeing pair wins, otherwise 0."""
    d12 = 1 if c1 == c2 else 0
    d13 = 1 if c1 == c3 else 0
    d23 = 1 if c2 == c3 else 0
    return max(c1 * d12, c1 * d13, c2 * d23)


def fuse(member_probs: np.ndarray, rule: str = "l2") -> np.ndarray:
    """One score vector from the members' vectors, (3, ..., 7) -> (..., 7).

    ``l2`` sums the member vectors and scales the sum to unit Euclidean
    length; ``max_confidence`` returns the vector of the member whose
    largest component is largest, ties going to the lowest member index.
    """
    if rule == "l2":
        s = member_probs.sum(axis=0)
        return s / np.linalg.norm(s, axis=-1, keepdims=True)
    if rule == "max_confidence":
        best = np.argmax(member_probs.max(axis=-1), axis=0)
        return np.take_along_axis(member_probs, best[None, ..., None], axis=0)[0]
    raise ConfigurationError(f"unknown fusion rule {rule!r}")


def predict_fused(model: EnsembleModel, blobs: np.ndarray, rule: str = "l2",
                  batch: int = 256) -> np.ndarray:
    """Fused score vectors for a stack of blobs (N, subwindows, feature_dim)."""
    outs = []
    for net in model.members:
        probs = []
        for k in range(0, blobs.shape[0], batch):
            p, _, _ = net.forward_batch(blobs[k:k + batch])
            probs.append(p)
        outs.append(np.concatenate(probs, axis=0))
    return fuse(np.stack(outs), rule)


def save_ensemble(model: EnsembleModel, path) -> Path:
    """Descriptor JSON referencing one checkpoint file per member."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    member_files = []
    for j, net in enumerate(model.members):
        fname = path.with_suffix(f".c{j + 1}.net")
        save_checkpoint(net, fname)
        member_files.append(fname.name)
    desc = {
        "members": member_files,
        "thresholds": model.thresholds.tolist(),
    }
    if model.normalizer is not None:
        desc["normalizer"] = {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
            "std_eps": model.normalizer.std_eps,
        }
    with open(path, "w") as fh:
        json.dump(desc, fh, indent=1, sort_keys=True)
    return path


def load_ensemble(path) -> EnsembleModel:
    path = Path(path)
    with open(path) as fh:
        desc = json.load(fh)
    members = [load_checkpoint(path.parent / name) for name in desc["members"]]
    normalizer = None
    if "normalizer" in desc:
        nz = desc["normalizer"]
        normalizer = NormalizerStats(np.array(nz["mean"]), np.array(nz["std"]),
                                     nz.get("std_eps", 1e-8))
    return EnsembleModel(members, np.array(desc["thresholds"]), normalizer)
