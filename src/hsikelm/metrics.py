"""Confusion matrix, overall/average accuracy, and Cohen's kappa.

Ratios are reduced with exact rational arithmetic before the single float
conversion, so e.g. a 7/10 accuracy compares equal to 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    """c x c count table; rows index the reference class, columns the prediction."""

    counts: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.counts)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError(f"confusion matrix must be square, got shape {m.shape}")
        if np.any(m < 0):
            raise DataError("confusion matrix entries must be non-negative")
        object.__setattr__(self, "counts", m.astype(np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels, pred_labels, num_classes: int) -> ConfusionMatrix:
    t = np.asarray(true_labels).ravel()
    p = np.asarray(pred_labels).ravel()
    if t.size != p.size:
        raise DataError(f"length mismatch: {t.size} reference vs {p.size} predicted")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    if t.size:
        for name, arr in (("reference", t), ("predicted", p)):
            if arr.min() < 1 or arr.max() > num_classes:
                raise DataError(f"{name} labels must lie in 1..{num_classes}")
        np.add.at(counts, (t.astype(int) - 1, p.astype(int) - 1), 1)
    return ConfusionMatrix(counts)


def oa(cm: ConfusionMatrix) -> float:
    """Overall accuracy: trace / total."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    return float(Fraction(int(np.trace(cm.counts)), cm.total))


def aa(cm: ConfusionMatrix) -> float:
    """Average per-class recall; classes with no reference samples are skipped."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    row_sums = cm.counts.sum(axis=1)
    recalls = [
        Fraction(int(cm.counts[i, i]), int(row_sums[i]))
        for i in range(cm.num_classes)
        if row_sums[i] > 0
    ]
    return float(sum(recalls) / len(recalls))


def kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e); defined as 1 at p_e = 1."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    p_o = Fraction(int(np.trace(cm.counts)), cm.total)
    p_e = Fraction(
        int((cm.counts.sum(axis=1) * cm.counts.sum(axis=0)).sum()), cm.total**2
    )
    if p_e >= 1:
        return 1.0
    return float((p_o - p_e) / (1 - p_e))


def write_confusion_csv(cm: ConfusionMatrix, path) -> None:
    """Header row of class ids, then one row of counts per reference class."""
    lines = [",".join(str(c) for c in range(1, cm.num_classes + 1))]
    for row in cm.counts:
        lines.append(",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
