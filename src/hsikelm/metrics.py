"""Confusion matrix, overall/average accuracy, and Cohen's kappa.

The confusion matrix is a (c, c) int64 count array, rows by reference class,
columns by prediction. Ratios are reduced with exact rational arithmetic
before the single float conversion, so a 7/10 accuracy equals 0.7.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DataError


def confusion(true_labels, pred_labels, num_classes: int) -> np.ndarray:
    """(c, c) int64 counts of the label pairs; every label must lie in 1..c."""
    t = np.asarray(true_labels, dtype=np.int64).ravel()
    p = np.asarray(pred_labels, dtype=np.int64).ravel()
    if t.size != p.size:
        raise DataError(f"length mismatch: {t.size} reference vs {p.size} predicted")
    for name, arr in (("reference", t), ("predicted", p)):
        if np.any((arr < 1) | (arr > num_classes)):
            raise DataError(f"{name} labels must lie in 1..{num_classes}")
    counts = np.bincount((t - 1) * num_classes + (p - 1), minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def _total(cm: np.ndarray) -> int:
    """The number of counted pairs; an empty matrix is a DataError."""
    total = int(cm.sum())
    if total == 0:
        raise DataError("empty confusion matrix")
    return total


def oa(cm: np.ndarray) -> float:
    """Overall accuracy: trace / total."""
    return float(Fraction(int(np.trace(cm)), _total(cm)))


def aa(cm: np.ndarray) -> float:
    """Average per-class recall; classes with no reference samples are skipped."""
    _total(cm)
    row_sums = cm.sum(axis=1)
    recalls = [
        Fraction(int(cm[i, i]), int(row_sums[i])) for i in range(cm.shape[0]) if row_sums[i] > 0
    ]
    return float(sum(recalls) / len(recalls))


def kappa(cm: np.ndarray) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e); defined as 1 at p_e = 1."""
    total = _total(cm)
    p_o = Fraction(int(np.trace(cm)), total)
    p_e = Fraction(int((cm.sum(axis=1) * cm.sum(axis=0)).sum()), total**2)
    if p_e >= 1:
        return 1.0
    return float((p_o - p_e) / (1 - p_e))


def write_confusion_csv(cm: np.ndarray, path) -> None:
    """Header row of class ids, then one row of counts per reference class."""
    lines = [",".join(str(c) for c in range(1, cm.shape[0] + 1))]
    for row in cm:
        lines.append(",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
