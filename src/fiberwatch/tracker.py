"""Glue per-frame decisions into signal-event tracks and filter by error budget.

The decision map is a (frames x channels) grid of hard class decisions
with the fused score vectors retained.  Per class, cells merge into
tracks through rectangular dilation (gap frames x width channels) and
connected components; short or tiny components are dropped.  An operator
budget (allowed false-alarm and miss rates) maps to a confidence
threshold through a calibration table measured on labeled validation
data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import CLASS_COUNT
from .ensemble import threshold_decide
from .errors import ConfigurationError, MissingDataError


@dataclass
class DecisionMap:
    decisions: np.ndarray        # (n_frames, n_channels) ints in 0..6
    scores: np.ndarray           # (n_frames, n_channels, CLASS_COUNT)

    @property
    def shape(self):
        return self.decisions.shape


@dataclass(frozen=True)
class SignalEventTrack:
    class_id: int
    frame_begin: int
    frame_end: int
    chan_lo: int
    chan_hi: int
    center_channel: int
    mean_confidence: float
    cell_count: int

    @property
    def duration(self) -> int:
        return self.frame_end - self.frame_begin + 1


@dataclass(frozen=True)
class ErrorBudget:
    alpha: float                 # allowed false-alarm rate proxy
    beta: float                  # allowed miss rate proxy

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ConfigurationError("alpha and beta must lie in (0, 1)")


def build_decision_map(fused_scores: np.ndarray, thresholds: np.ndarray) -> DecisionMap:
    """Apply the threshold rule cell by cell; scores are retained."""
    scores = np.asarray(fused_scores, dtype=np.float64)
    if scores.ndim != 3 or scores.shape[2] != CLASS_COUNT:
        raise ConfigurationError(
            f"fused scores must be (frames, channels, {CLASS_COUNT})")
    return DecisionMap(threshold_decide(scores, thresholds), scores)


def glue_tracks(dmap: DecisionMap, gap: int = 2, width: int = 2,
                min_duration: int = 3, min_area: int = 1) -> list[SignalEventTrack]:
    """Connected same-class regions under (gap, width)-dilated adjacency.

    Track bounds are the bounding box of the real (undilated) cells;
    center channel is the median channel of those cells; confidence is the
    mean winning score.  Components shorter than ``min_duration`` frames
    or smaller than ``min_area`` cells are discarded.
    """
    if gap < 0 or width < 0 or min_duration < 0:
        raise ConfigurationError("gap, width, and min_duration must be >= 0")
    tracks = []
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])  # 4-connectivity
    for class_id in range(1, CLASS_COUNT):
        mask = dmap.decisions == class_id
        if not mask.any():
            continue
        # A max filter over the (gap, width) rectangle is that rectangle's
        # binary dilation with a zero border.
        dilated = ndimage.maximum_filter(mask, size=(2 * gap + 1, 2 * width + 1),
                                         mode="constant")
        labeled, _ = ndimage.label(dilated, structure=structure)
        for comp, box in enumerate(ndimage.find_objects(labeled), start=1):
            frames, chans = np.nonzero((labeled[box] == comp) & mask[box])
            if frames.size == 0:
                continue
            frames += box[0].start
            chans += box[1].start
            n_b, n_e = int(frames.min()), int(frames.max())
            if n_e - n_b + 1 < min_duration or frames.size < min_area:
                continue
            conf = float(np.mean(dmap.scores[frames, chans, class_id]))
            tracks.append(SignalEventTrack(
                class_id, n_b, n_e, int(chans.min()), int(chans.max()),
                int(np.median(chans)), conf, int(frames.size)))
    tracks.sort(key=lambda t: (t.class_id, t.frame_begin, t.chan_lo))
    return tracks


def rasterize_tracks(tracks, shape) -> DecisionMap:
    """Paint track bounding boxes back onto an empty map (testing aid)."""
    decisions = np.zeros(shape, dtype=np.int64)
    scores = np.zeros(shape + (CLASS_COUNT,))
    scores[..., 0] = 1.0
    for t in tracks:
        decisions[t.frame_begin:t.frame_end + 1, t.chan_lo:t.chan_hi + 1] = t.class_id
        scores[t.frame_begin:t.frame_end + 1, t.chan_lo:t.chan_hi + 1, :] = 0.0
        scores[t.frame_begin:t.frame_end + 1, t.chan_lo:t.chan_hi + 1, t.class_id] = \
            t.mean_confidence
    return DecisionMap(decisions, scores)


# ---------------------------------------------------------------------------
# Error-budget calibration

@dataclass
class CalibrationTable:
    """Empirical (alpha, beta) rates over a confidence-threshold sweep.

    ``thresholds`` ascends; ``alpha_hat`` is the false-track count at each
    threshold relative to the total emitted at the most permissive point
    (monotone non-increasing), ``beta_hat`` the missed share of reference
    events (monotone non-decreasing).
    """

    thresholds: np.ndarray
    alpha_hat: np.ndarray
    beta_hat: np.ndarray

    def to_json(self) -> str:
        return json.dumps({"thresholds": self.thresholds.tolist(),
                           "alpha_hat": self.alpha_hat.tolist(),
                           "beta_hat": self.beta_hat.tolist()})

    @staticmethod
    def from_json(text: str) -> "CalibrationTable":
        d = json.loads(text)
        return CalibrationTable(np.asarray(d["thresholds"], dtype=np.float64),
                                np.asarray(d["alpha_hat"], dtype=np.float64),
                                np.asarray(d["beta_hat"], dtype=np.float64))


def track_matches_event(track: SignalEventTrack, event) -> bool:
    """Same class and any (frame, channel) overlap."""
    return (track.class_id == event.class_id
            and track.frame_begin <= event.frame_end
            and event.frame_begin <= track.frame_end
            and track.chan_lo <= event.chan_hi
            and event.chan_lo <= track.chan_hi)


def calibrate_budget(tracks, truth_events) -> CalibrationTable:
    """Sweep confidence thresholds on a labeled validation run."""
    if not tracks:
        raise ConfigurationError("cannot calibrate on an empty track list")
    confs = sorted({t.mean_confidence for t in tracks})
    grid = [0.0] + confs
    total = len(tracks)
    n_truth = max(len(truth_events), 1)
    alphas, betas = [], []
    for thr in grid:
        admitted = [t for t in tracks if t.mean_confidence >= thr]
        false = sum(1 for t in admitted
                    if not any(track_matches_event(t, ev) for ev in truth_events))
        covered = sum(1 for ev in truth_events
                      if any(track_matches_event(t, ev) for t in admitted))
        alphas.append(false / total)
        betas.append((len(truth_events) - covered) / n_truth)
    return CalibrationTable(np.asarray(grid), np.asarray(alphas), np.asarray(betas))


@dataclass
class EventReport:
    track: SignalEventTrack
    admitted: bool
    threshold: float
    expected_alpha: float
    expected_beta: float


def apply_error_budget(tracks, budget: ErrorBudget,
                       calibration: CalibrationTable | None) -> list[EventReport]:
    """Keep tracks whose calibrated operating point satisfies the budget.

    Picks the most permissive threshold with expected false-alarm rate
    within ``budget.alpha``; tightening alpha can only shrink the admitted
    set.  The achieved miss rate is reported so an infeasible beta is
    visible rather than silently ignored.
    """
    if calibration is None:
        raise MissingDataError("error budget requires a calibration table")
    ok = np.nonzero(calibration.alpha_hat <= budget.alpha)[0]
    if ok.size == 0:
        threshold = float(calibration.thresholds[-1]) + 1.0  # nothing qualifies
        exp_alpha, exp_beta = 0.0, 1.0
    else:
        pick = int(ok[0])        # thresholds ascend, alpha_hat descends
        threshold = float(calibration.thresholds[pick])
        exp_alpha = float(calibration.alpha_hat[pick])
        exp_beta = float(calibration.beta_hat[pick])
    return [EventReport(t, t.mean_confidence >= threshold, threshold,
                        exp_alpha, exp_beta) for t in tracks]


def write_event_reports(reports, path, frame_cfg=None,
                        sample_rate_hz: int = 1666) -> None:
    """JSON lines; wall-clock spans derived from frame indices when the
    shaper configuration is provided."""
    with open(path, "w") as fh:
        for r in reports:
            t = r.track
            row = {"class_id": t.class_id, "frame_begin": t.frame_begin,
                   "frame_end": t.frame_end, "chan_lo": t.chan_lo,
                   "chan_hi": t.chan_hi, "center_channel": t.center_channel,
                   "mean_confidence": round(t.mean_confidence, 6),
                   "admitted": r.admitted}
            if frame_cfg is not None:
                step = frame_cfg.step
                row["start_s"] = round(t.frame_begin * step / sample_rate_hz, 3)
                row["end_s"] = round((t.frame_end * step + frame_cfg.frame_size)
                                     / sample_rate_hz, 3)
            fh.write(json.dumps(row) + "\n")
