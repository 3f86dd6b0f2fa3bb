"""Accuracy, confusion matrix, and per-class precision/F1 reporting.

The confusion matrix is presented row-normalized (each reference row sums
to 100%); precision and F1 come from its counts, so they hold on any
split, balanced or not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import CLASS_COUNT
from .errors import ConfigurationError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray                 # (C, C) ints; row = reference class
    percent: np.ndarray                # rows sum to 100; NaN for absent classes

    @staticmethod
    def from_counts(counts: np.ndarray) -> "ConfusionMatrix":
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            percent = 100.0 * counts / totals
        percent[totals[:, 0] == 0] = np.nan
        return ConfusionMatrix(counts, percent)


@dataclass
class MetricsReport:
    recall: np.ndarray          # per-class, percent (diagonal of the row view)
    precision: np.ndarray       # per-class, percent; NaN where undefined
    f1: np.ndarray              # per-class, percent
    accuracy: float | None = None

    def to_dict(self) -> dict:
        def clean(a):
            return [None if not np.isfinite(v) else round(float(v), 4) for v in a]
        out = {"recall_pct": clean(self.recall), "precision_pct": clean(self.precision),
               "f1_pct": clean(self.f1)}
        if self.accuracy is not None:
            out["accuracy"] = round(float(self.accuracy), 6)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def accuracy(predicted, labels) -> float:
    """Share of samples whose predicted argmax matches the label argmax."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64)
    if p.shape[0] == 0:
        raise ConfigurationError("accuracy of an empty sample set is undefined")
    if p.shape[0] != t.shape[0]:
        raise ConfigurationError("predictions and labels differ in length")
    p_idx = p if p.ndim == 1 else np.argmax(p, axis=1)
    t_idx = t if t.ndim == 1 else np.argmax(t, axis=1)
    return float(np.mean(p_idx == t_idx))


def confusion(predictions, references) -> ConfusionMatrix:
    p = np.asarray(predictions, dtype=np.int64)
    r = np.asarray(references, dtype=np.int64)
    if p.shape != r.shape:
        raise ConfigurationError("predictions and references differ in length")
    counts = np.zeros((CLASS_COUNT, CLASS_COUNT), dtype=np.int64)
    np.add.at(counts, (r, p), 1)
    return ConfusionMatrix.from_counts(counts)


def precision_f1(matrix: ConfusionMatrix) -> MetricsReport:
    """Per-class recall, precision and F1 in percent, from the counts.

    Precision is NaN for a class nothing was predicted as, recall for a
    class absent from the references; F1 is 0 where both are 0 or either
    is undefined.
    """
    counts = matrix.counts
    recall = np.diag(matrix.percent).copy()
    predicted = counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, 100.0 * np.diag(counts) / predicted, np.nan)
        denom = precision + recall
        f1 = np.where(np.nan_to_num(denom) > 0, 2 * precision * recall / denom, 0.0)
    return MetricsReport(recall, precision, f1)


def format_report(matrix: ConfusionMatrix, report: MetricsReport) -> str:
    """Fixed-layout text table: percentage rows, then precision and F1 rows."""
    n = matrix.percent.shape[0]
    head = "class |" + "".join(f" {c:>7d}" for c in range(n))
    bar = "-" * len(head)
    lines = [head, bar]
    for c in range(n):
        row = matrix.percent[c]
        cells = "".join("     n/a" if not np.isfinite(v) else f" {v:7.2f}" for v in row)
        lines.append(f"{c:5d} |" + cells)
    lines.append(bar)
    lines.append("prec. |" + "".join(
        "     n/a" if not np.isfinite(v) else f" {v:7.2f}" for v in report.precision))
    lines.append("f1    |" + "".join(
        "     n/a" if not np.isfinite(v) else f" {v:7.2f}" for v in report.f1))
    if report.accuracy is not None:
        lines.append(f"accuracy {report.accuracy:.4f}")
    return "\n".join(lines)
