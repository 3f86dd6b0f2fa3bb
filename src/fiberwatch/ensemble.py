"""Three-member primary classifier and its decision/fusion rules.

Partial decisions come from a threshold rule; a single decision
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
from .features import NormalizerStats, Pipeline
from .tensornet import Network, load_checkpoint, save_checkpoint


FUSION_RULES = ("l2", "max_confidence")


@dataclass(frozen=True)
class EnsembleConfig:
    """The ``ensemble`` section: the decision threshold and the fusion rule."""
    threshold: float = 0.5
    fusion: str = "l2"

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ConfigurationError(
                f"threshold must lie in (0, 1], got {self.threshold}")
        if self.fusion not in FUSION_RULES:
            raise ConfigurationError(f"fusion must be one of {FUSION_RULES}, "
                                     f"got {self.fusion!r}")


@dataclass
class EnsembleModel:
    members: list[Network]                 # exactly C1, C2, C3 in order
    normalizer: NormalizerStats
    pipeline: Pipeline = Pipeline()        # the preprocessing it was trained with

    def __post_init__(self):
        if len(self.members) != 3:
            raise ConfigurationError("ensemble needs exactly 3 members")
        if any(net.spec.n_classes != CLASS_COUNT for net in self.members):
            raise ConfigurationError(f"members must score {CLASS_COUNT} classes")
        nz, dim = self.normalizer, self.pipeline.features.feature_dim
        if not (nz.mean.shape == nz.std.shape == (dim,) and np.all(np.isfinite(nz.mean))
                and np.all(np.isfinite(nz.std) & (nz.std > 0))):
            raise ConfigurationError(f"normalizer needs {dim} finite means and "
                                     f"{dim} finite positive deviations")


def threshold_decide(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Most probable class where its score clears ``threshold``, else 0.

    ``scores`` holds score vectors along its last axis, shape (..., 7);
    the result has shape (...).  Argmax ties break toward the lowest
    index, biasing toward the non-alarm background class.
    """
    if not 0 < threshold <= 1:
        raise ConfigurationError(f"thresholds must lie in (0, 1], got {threshold}")
    probs = np.asarray(scores, dtype=np.float64)
    winners = np.argmax(probs, axis=-1)
    winning = np.take_along_axis(probs, winners[..., None], axis=-1)[..., 0]
    return np.where(winning >= threshold, winners, 0).astype(np.int64)


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


def predict_fused(model: EnsembleModel, blobs: np.ndarray, rule: str = "l2") -> np.ndarray:
    """Fused score vectors for a stack of blobs (N, subwindows, feature_dim),
    in the members' precision."""
    return fuse(np.stack([net.forward_batch(blobs)[0] for net in model.members]), rule)


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
        "normalizer": {"mean": model.normalizer.mean.tolist(),
                       "std": model.normalizer.std.tolist()},
        "pipeline": model.pipeline.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(desc, fh, indent=1, sort_keys=True)
    return path


def load_ensemble(path) -> EnsembleModel:
    """Read a descriptor written by ``save_ensemble``; one without a
    ``pipeline`` section gets the default ``Pipeline()``; the ``thresholds``
    entry and the normalizer's ``std_eps``, which older descriptors carry,
    are ignored.  A malformed descriptor raises ConfigurationError."""
    path = Path(path)
    try:
        desc = json.loads(path.read_bytes())
        names = desc["members"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ConfigurationError("members must be a list of file names")
        members = [load_checkpoint(path.parent / name) for name in names]
        nz = desc["normalizer"]
        normalizer = NormalizerStats(np.array(nz["mean"], dtype=np.float64),
                                     np.array(nz["std"], dtype=np.float64))
        pipeline = Pipeline.from_dict(desc.get("pipeline", Pipeline().to_dict()))
        return EnsembleModel(members, normalizer, pipeline)
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        detail = err if isinstance(err, ConfigurationError) else f"malformed ({err!r})"
        raise ConfigurationError(f"{path}: {detail}") from err
