"""Run one shappaths CLI command with spans recorded around each layer.

Usage: python3 launch.py SPANS_JSON RUN_ID LABEL -- SHAPPATHS_ARGS...

The launcher replaces the public functions and methods of the data,
models, explain, subgroup and viz layers with timing wrappers, at the
names their callers look them up by, then calls ``shappaths.cli.main``.
Spans (name, start, end, parent span, counters) stay in memory and are
written to SPANS_JSON when the command exits. The program itself is not
modified; the untraced benchmark runs never import this file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Recorder:
    """Nested spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counters]
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        """``fn`` timed as a span; ``counters(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            if counters is not None:
                span[4] = counters(args, result)
            return result

        return traced

    def dump(self, path: str, run_id: str, label: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "command": label, "exit_code": exit_code,
                       "spans": self.spans}, fh, separators=(",", ":"))


def _rows_of_second(args, result):
    """Rows of the second positional argument (X after self or model)."""
    return {"rows": int(len(args[1]))}


def _kernel_rows(args, result):
    return {"rows": int(len(args[1])), "background": int(args[2].m)}


def _coalitions(args, result):
    return {"coalitions": int(result[0].shape[0])}


def _clusters(args, result):
    return {"n": int(len(args[0])), "noise": int(result.n_noise)}


def _svg_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def install(rec: Recorder) -> None:
    """Wrap every traced entry point; see the layer table in README.md."""
    # import_module, not attribute access: the package __init__ files
    # re-export functions named like their modules (tree_shap, hdbscan)
    cli, kernel_mod, tree_shap_mod, boosted_mod, mlp_mod, tree_mod, hdbscan_mod = (
        importlib.import_module(f"shappaths.{name}") for name in [
            "cli", "explain.kernel_shap", "explain.tree_shap", "models.boosted",
            "models.mlp", "models.tree", "subgroup.hdbscan"])

    targets = [
        # (namespace, attribute, span name, counters)
        (cli, "simulate", "data.simulate", None),
        (cli, "load_csv", "data.load_csv", None),
        (cli, "write_csv", "data.write_csv", None),
        (cli, "train_tree", "models.train_tree", None),
        (cli, "train_boosted", "models.train_boosted", None),
        (cli, "train_mlp", "models.train_mlp", None),
        (cli, "save_model", "models.io", None),
        (cli, "load_model", "models.io", None),
        (tree_mod, "best_split", "models.best_split", None),
        (boosted_mod, "best_split", "models.best_split", None),
        (mlp_mod, "loss_and_grads", "models.loss_and_grads", None),
        (cli, "tree_shap", "explain.tree_shap", _rows_of_second),
        (tree_shap_mod, "shap_values_tree", "explain.shap_values_tree", None),
        (cli, "kernel_shap", "explain.kernel_shap", _kernel_rows),
        (kernel_mod, "sample_coalitions", "explain.kernel.sample_coalitions", _coalitions),
        (cli, "save_tensor", "explain.tensor_io", None),
        (cli, "load_tensor", "explain.tensor_io", None),
        (cli, "hdbscan", "subgroup.hdbscan", _clusters),
        (hdbscan_mod, "pairwise_distances", "subgroup.hdbscan.distances", None),
        (hdbscan_mod, "core_distances", "subgroup.hdbscan.core", None),
        (hdbscan_mod, "mutual_reachability", "subgroup.hdbscan.mutual_reachability", None),
        (hdbscan_mod, "minimum_spanning_tree", "subgroup.hdbscan.mst", None),
        (hdbscan_mod, "single_linkage", "subgroup.hdbscan.linkage", None),
        (hdbscan_mod, "condense", "subgroup.hdbscan.condense", None),
        (hdbscan_mod, "select_excess_of_mass", "subgroup.hdbscan.select", None),
        (hdbscan_mod, "labels_from_tree", "subgroup.hdbscan.labels", None),
        (cli, "pca_fit", "subgroup.pca", None),
        (cli, "pca_transform", "subgroup.pca", None),
        (cli, "cluster_purity", "subgroup.purity", None),
        (cli, "build_paths", "viz.paths", None),
        (cli, "project_paths", "viz.paths", None),
        (cli, "render_paths", "viz.render", _svg_bytes),
        (cli, "classical_waterfall", "viz.render", _svg_bytes),
        (cli, "stacked_bar", "viz.render", _svg_bytes),
        (cli, "cluster_heatmap", "viz.render", _svg_bytes),
        (cli, "pca_scatter", "viz.render", _svg_bytes),
    ]
    for namespace, attr, name, counters in targets:
        setattr(namespace, attr, rec.wrap(name, getattr(namespace, attr), counters))
    for cls, kind in [(tree_mod.DecisionTree, "tree"), (boosted_mod.BoostedEnsemble, "boosted"),
                      (mlp_mod.Mlp, "mlp")]:
        cls.predict_margin = rec.wrap(f"models.predict_margin.{kind}",
                                      cls.predict_margin, _rows_of_second)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: launch.py SPANS_JSON RUN_ID LABEL -- SHAPPATHS_ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, label = argv[:3]
    import shappaths.cli

    rec = Recorder()
    install(rec)
    code = rec.wrap(f"cli.{label}", shappaths.cli.main)(argv[4:])
    rec.dump(spans_path, run_id, label, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
