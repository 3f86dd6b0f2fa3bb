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

from . import CLASS_COUNT, SAMPLE_RATE_HZ
from .config import at_least
from .ensemble import threshold_decide
from .errors import ConfigurationError, NumericError
from .framing import FrameShaperConfig, frame_bounds


@dataclass
class DecisionMap:
    decisions: np.ndarray        # (n_frames, n_channels) ints in 0..6
    scores: np.ndarray           # (n_frames, n_channels, CLASS_COUNT)


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


@dataclass(frozen=True)
class TrackerConfig:
    """The ``tracker`` section: how ``glue_tracks`` merges and drops cells,
    and the operator's error budget."""
    gap: int = 2                 # frames bridged between cells of one track
    width: int = 2               # channels bridged between cells of one track
    min_duration: int = 3        # frames a kept track spans at least
    min_area: int = 6            # cells a kept track holds at least
    alpha: float = 0.5           # allowed false-alarm rate proxy
    beta: float = 0.5            # allowed miss rate proxy

    def __post_init__(self):
        at_least(self, gap=0, width=0, min_duration=0, min_area=0)
        for key in ("alpha", "beta"):
            if not 0.0 < getattr(self, key) < 1.0:
                raise ConfigurationError(f"{key} must lie in (0, 1), "
                                         f"got {getattr(self, key)}")


def build_decision_map(fused_scores: np.ndarray, threshold: float) -> DecisionMap:
    """Apply the threshold rule cell by cell; scores are retained."""
    scores = np.asarray(fused_scores, dtype=np.float64)
    if scores.ndim != 3 or scores.shape[2] != CLASS_COUNT:
        raise ConfigurationError(
            f"fused scores must be (frames, channels, {CLASS_COUNT})")
    return DecisionMap(threshold_decide(scores, threshold), scores)


def glue_tracks(dmap: DecisionMap, cfg: TrackerConfig) -> list[SignalEventTrack]:
    """Connected same-class regions under (cfg.gap, cfg.width)-dilated adjacency.

    Track bounds are the bounding box of the real (undilated) cells;
    center channel is the median channel of those cells; confidence is the
    mean winning score.  Components shorter than ``cfg.min_duration``
    frames or smaller than ``cfg.min_area`` cells are discarded.
    """
    tracks = []
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])  # 4-connectivity
    for class_id in range(1, CLASS_COUNT):
        mask = dmap.decisions == class_id
        if not mask.any():
            continue
        # A max filter over the (gap, width) rectangle is that rectangle's
        # binary dilation with a zero border.
        dilated = ndimage.maximum_filter(mask, size=(2 * cfg.gap + 1, 2 * cfg.width + 1),
                                         mode="constant")
        labeled, _ = ndimage.label(dilated, structure=structure)
        for comp, box in enumerate(ndimage.find_objects(labeled), start=1):
            frames, chans = np.nonzero((labeled[box] == comp) & mask[box])
            if frames.size == 0:
                continue
            frames += box[0].start
            chans += box[1].start
            n_b, n_e = int(frames.min()), int(frames.max())
            if n_e - n_b + 1 < cfg.min_duration or frames.size < cfg.min_area:
                continue
            conf = float(np.mean(dmap.scores[frames, chans, class_id]))
            tracks.append(SignalEventTrack(
                class_id, n_b, n_e, int(chans.min()), int(chans.max()),
                int(np.median(chans)), conf, int(frames.size)))
    tracks.sort(key=lambda t: (t.class_id, t.frame_begin, t.chan_lo))
    return tracks


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
    def from_json(text, source: str = "calibration table") -> "CalibrationTable":
        """Parse ``to_json`` output; anything else raises ConfigurationError
        naming ``source``, as do rows out of the order ``apply_error_budget``
        relies on, and non-finite values raise NumericError."""
        keys = ("thresholds", "alpha_hat", "beta_hat")
        try:
            d = json.loads(text)
            arrays = [np.asarray(d[k], dtype=np.float64) for k in keys]
        except (ValueError, TypeError, KeyError, OverflowError) as err:
            raise ConfigurationError(
                f"{source}: not a JSON table of {', '.join(keys)} ({err!r})") from err
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1 or arrays[0].ndim != 1 or arrays[0].size == 0:
            raise ConfigurationError(f"{source}: {', '.join(keys)} must be non-empty "
                                     f"lists of one length, not of shapes "
                                     f"{', '.join(str(a.shape) for a in arrays)}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise NumericError(f"{source}: {', '.join(keys)} are not all finite")
        d_thr, d_alpha, d_beta = (np.diff(a) for a in arrays)
        if not ((d_thr > 0).all() and (d_alpha <= 0).all() and (d_beta >= 0).all()):
            raise ConfigurationError(f"{source}: thresholds must strictly ascend, with "
                                     "alpha_hat never rising and beta_hat never falling")
        return CalibrationTable(*arrays)


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
    """A track, whether it is admitted, and the operating point of the
    error budget that decided it (None without a calibration table)."""

    track: SignalEventTrack
    admitted: bool
    threshold: float | None = None
    expected_alpha: float | None = None
    expected_beta: float | None = None


def apply_error_budget(tracks, budget: TrackerConfig,
                       calibration: CalibrationTable) -> list[EventReport]:
    """Keep tracks whose calibrated operating point satisfies the error
    budget ``budget.alpha`` and ``budget.beta``.

    Picks the most permissive threshold with expected false-alarm rate
    within ``budget.alpha``; tightening alpha can only shrink the admitted
    set.  The achieved miss rate is reported so an infeasible beta is
    visible rather than silently ignored.
    """
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


def write_event_reports(reports, path, frame_cfg: FrameShaperConfig) -> None:
    """JSON lines, one per report; wall-clock spans come from the frame
    indices under ``frame_cfg``.  A report with an operating point also
    writes its ``threshold``, ``expected_alpha`` and ``expected_beta``."""
    with open(path, "w") as fh:
        for r in reports:
            t = r.track
            first, _ = frame_bounds(t.frame_begin, frame_cfg)
            _, last = frame_bounds(t.frame_end, frame_cfg)
            row = {"class_id": t.class_id, "frame_begin": t.frame_begin,
                   "frame_end": t.frame_end, "chan_lo": t.chan_lo,
                   "chan_hi": t.chan_hi, "center_channel": t.center_channel,
                   "mean_confidence": round(t.mean_confidence, 6),
                   "admitted": r.admitted,
                   "start_s": round(first / SAMPLE_RATE_HZ, 3),
                   "end_s": round((last + 1) / SAMPLE_RATE_HZ, 3)}
            if r.threshold is not None:
                row.update(threshold=r.threshold, expected_alpha=r.expected_alpha,
                           expected_beta=r.expected_beta)
            fh.write(json.dumps(row) + "\n")
