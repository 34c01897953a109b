"""Per-class precision/recall tables in the shape of the evaluation tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class EvalReport:
    precision: np.ndarray          # (k,)
    recall: np.ndarray             # (k,)
    support: np.ndarray            # (k,) true-class counts
    accuracy: float
    class_names: tuple[str, ...]

    def as_rows(self) -> list[dict]:
        rows = []
        for c, name in enumerate(self.class_names):
            rows.append({
                "class": name,
                "precision": float(self.precision[c]),
                "recall": float(self.recall[c]),
                "support": int(self.support[c]),
            })
        return rows


def evaluate(model, test) -> EvalReport:
    """Standard precision/recall/accuracy; zero denominators report 0."""
    if model.n_features != test.p:
        raise DataError(f"model expects {model.n_features} features, dataset has {test.p}")
    k = test.k
    predicted = model.predict_class(test.features)
    truth = test.labels
    support = np.bincount(truth, minlength=k)
    predicted_counts = np.bincount(predicted, minlength=k)
    hits = np.bincount(truth[predicted == truth], minlength=k)

    precision = np.where(predicted_counts == 0, 0.0, hits / np.maximum(predicted_counts, 1))
    recall = np.where(support == 0, 0.0, hits / np.maximum(support, 1))
    return EvalReport(precision=precision, recall=recall, support=support,
                      accuracy=float((predicted == truth).mean()),
                      class_names=test.class_names)
