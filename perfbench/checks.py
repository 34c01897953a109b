"""Output checks behind ``failed``: additivity, brute-force oracles, reference
values, exact cluster labels, and SHA-256 digests of every artifact.

Runs in the benchmark process, outside every timed region, on a finished
run directory. The oracles are the ones in ``tests/oracles.py``, imported
unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ADDITIVITY_TOL = 1e-9
TOLERANCE = {"tree_shap": 1e-8, "kernel_shap_exact": 1e-6, "kernel_shap": 1e-6}


@dataclass
class RunCheck:
    """What the checks found in one run directory."""

    failures: dict[str, list[str]] = field(default_factory=dict)  # command -> reasons
    digests: dict[str, str] = field(default_factory=dict)
    gap_max: float = 0.0
    rows_explained: int = 0
    noise_frac: float = 0.0
    reference: dict = field(default_factory=dict)  # this run, in reference form

    def fail(self, command: str, reason: str) -> None:
        self.failures.setdefault(command, []).append(reason)


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(run_dir: Path, manifest: dict) -> dict[str, str]:
    """SHA-256 of every artifact, and of manifest.json without its timings."""
    out = {name: _sha256((run_dir / filename).read_bytes())
           for name, filename in sorted(manifest["artifacts"].items())
           if (run_dir / filename).is_file()}
    untimed = {k: v for k, v in manifest.items() if k != "stages"}
    out["manifest_without_stages"] = _sha256(
        json.dumps(untimed, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return out


def _read_features(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        target = header.index("__target__")
        return np.array([[float(v) for i, v in enumerate(row) if i != target]
                         for row in reader])


def _oracle_rows(n: int) -> list[int]:
    return sorted({0, n // 2, n - 1})


def _tree_phi(tree, x: np.ndarray, oracles) -> np.ndarray:
    """Brute-force path-dependent Shapley values of one tree.

    The oracle enumerates 2^p coalitions; features the tree never splits on
    are null players, whose values are zero and whose removal leaves the
    others' values unchanged, so the oracle runs on the used features only.
    """
    from shappaths.models.tree import LEAF

    used = np.unique(tree.feature[tree.feature != LEAF])
    index = np.full(x.shape[0], LEAF)
    index[used] = np.arange(used.size)
    remapped = np.where(tree.feature == LEAF, LEAF, index[np.maximum(tree.feature, 0)])
    small = replace(tree, feature=remapped, n_features=int(used.size))
    phi = np.zeros((x.shape[0], tree.value.shape[1]))
    phi[used] = oracles.brute_shapley_tree(small, x[used], int(used.size))
    return phi


def tree_oracle(model, x: np.ndarray, oracles) -> np.ndarray:
    from shappaths.models.tree import DecisionTree

    if isinstance(model, DecisionTree):
        return _tree_phi(model, x, oracles)
    phi = np.zeros((x.shape[0], model.n_classes))
    for round_trees in model.rounds:
        for c, tree in enumerate(round_trees):
            phi[:, c] += model.learning_rate * _tree_phi(tree, x, oracles)[:, 0]
    return phi


def kernel_oracle(model, x: np.ndarray, background: np.ndarray, oracles) -> np.ndarray:
    """Exact interventional Shapley values from the oracle's value function.

    ``brute_shapley_interventional`` walks all p! orderings (3.6 million at
    p = 10); the subset form below sums the same marginal contributions
    with the oracle's own ``shapley_weight``.
    """
    p = x.shape[0]
    value = [oracles.interventional_value(
        model, x, background, frozenset(j for j in range(p) if mask >> j & 1))
        for mask in range(2 ** p)]
    phi = np.zeros((p, value[0].shape[0]))
    for mask in range(2 ** p - 1):
        weight = oracles.shapley_weight(p, bin(mask).count("1"))
        for j in range(p):
            if not mask >> j & 1:
                phi[j] += weight * (value[mask | 1 << j] - value[mask])
    return phi


def _tensor_reference(t, rows: list[int]) -> dict:
    return {"method": t.method, "shape": list(t.values.shape),
            "rows": rows, "values": t.values[rows].tolist(),
            "colsum": t.values.sum(axis=0).tolist(), "base": t.base.tolist()}


def _compare_tensor(name: str, current: dict, ref: dict, tol: float) -> list[str]:
    """Reference values within the oracle tolerance; empty when they agree."""
    if current["shape"] != ref["shape"] or current["method"] != ref["method"]:
        return [f"{name}: shape/method {current['shape']}/{current['method']} "
                f"!= reference {ref['shape']}/{ref['method']}"]
    n = current["shape"][0]
    errors = []
    for key, bound in [("values", tol), ("base", tol), ("colsum", n * tol)]:
        gap = float(np.abs(np.array(current[key]) - np.array(ref[key])).max())
        if not gap <= bound:
            errors.append(f"{name}: {key} differs from reference by {gap:.3e} > {bound:.0e}")
    return errors


def check_run(run_dir: Path, ref: dict | None, oracles) -> RunCheck:
    """Check one finished run directory against the oracles and ``ref``."""
    from shappaths.explain import load_tensor, sample_background
    from shappaths.models import load_model

    out = RunCheck()
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        artifacts, config = manifest["artifacts"], manifest["config"]
        features = _read_features(run_dir / artifacts["dataset_csv"])
        meta = json.loads((run_dir / artifacts["dataset_manifest"]).read_text(encoding="utf-8"))
    except (KeyError, OSError, ValueError) as exc:
        out.fail("explain", f"manifest or dataset unreadable: {exc!r}")
        return out
    out.digests = artifact_digests(run_dir, manifest)
    out.reference["digests"] = out.digests

    out.reference["tensors"] = {}
    for kind in config["models"]:
        try:
            t = load_tensor(run_dir / artifacts[f"shap_{kind}"],
                            run_dir / artifacts[f"shap_{kind}_csv"])
            model = load_model(run_dir / artifacts[f"model_{kind}"])
        except Exception as exc:  # any unreadable artifact fails the command
            out.fail("explain", f"{kind}: tensor or model unreadable: {exc!r}")
            continue
        X = features[t.sample_ids]
        out.rows_explained += t.n
        gap = float(np.abs(t.values.sum(axis=1) - (model.predict_margin(X) - t.base)).max())
        out.gap_max = max(out.gap_max, gap)
        if not gap <= ADDITIVITY_TOL:
            out.fail("explain", f"{kind}: additivity gap {gap:.3e} > {ADDITIVITY_TOL:.0e}")
        tol = TOLERANCE.get(t.method)
        if tol is None:
            out.fail("explain", f"{kind}: unknown method {t.method!r}")
            continue
        rows = _oracle_rows(t.n)
        if t.method == "tree_shap":
            expected = [tree_oracle(model, X[i], oracles) for i in rows]
        elif t.method == "kernel_shap_exact":
            train_rows = np.array(meta["split"]["train"], dtype=int)
            background = sample_background(features[train_rows],
                                           size=config["explain"]["background_size"],
                                           seed=config["seed"]).data
            expected = [kernel_oracle(model, X[i], background, oracles) for i in rows]
        else:
            expected = None  # sampled coalitions: only additivity and the reference
        if expected is not None:
            err = float(np.abs(t.values[rows] - np.array(expected)).max())
            if not err <= tol:
                out.fail("explain", f"{kind}: oracle rows {rows} differ by {err:.3e} > {tol:.0e}")
        current = _tensor_reference(t, rows)
        out.reference["tensors"][kind] = current
        if ref is not None and kind in ref["tensors"]:
            for reason in _compare_tensor(kind, current, ref["tensors"][kind], tol):
                out.fail("explain", reason)
        elif ref is not None:
            out.fail("explain", f"{kind}: no reference tensor")

    try:
        with open(run_dir / artifacts["clusters"], encoding="utf-8") as fh:
            labels = [int(line.split(",")[1]) for line in fh.readlines()[1:]]
        purity = json.loads((run_dir / artifacts["purity"]).read_text(encoding="utf-8"))
        n_clusters = int(purity["n_clusters"])
    except (KeyError, OSError, ValueError, IndexError) as exc:
        out.fail("cluster", f"clusters unreadable: {exc!r}")
        return out
    clusters = {"n_clusters": n_clusters,
                "labels_sha256": _sha256(np.array(labels, dtype=np.int64).tobytes())}
    out.noise_frac = labels.count(-1) / max(len(labels), 1)
    out.reference["clusters"] = clusters
    if ref is not None and clusters != ref["clusters"]:
        out.fail("cluster", f"clusters {clusters} != reference {ref['clusters']}")
    return out


def digest_report(digests: dict[str, str], ref: dict | None) -> dict[str, str]:
    """Each artifact's digest status against the reference: matching,
    changed, new (no reference digest) or missing (not produced)."""
    known = ref["digests"] if ref else {}
    report = {name: "new" if name not in known else
              "matching" if known[name] == digest else "changed"
              for name, digest in digests.items()}
    report.update({name: "missing" for name in known if name not in digests})
    return report
