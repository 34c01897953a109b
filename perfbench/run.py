#!/usr/bin/env python3
"""Benchmark of the shappaths command-line pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It drives the CLI the way a user does: one process per subcommand, each
started after the previous one exits (a closed loop with one client). The
pipeline is repeated while another repetition still fits in ``--seconds``
(at least once). Every finished run directory is then checked outside the
timed region (``checks.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``, which adds one traced repetition started
through ``launch.py``. README.md holds the layer map and why each workload
was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEEDS = 10   # inputs repeat with this period, so every seed has a reference
SECOND_SEED = 7        # for confirming a claim on a seed not used while writing it
SETUP_REPEATS = 3      # before and again after the timed repetitions
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

TAIL = [("cluster", ["cluster"]), ("embed", ["embed"]),
        ("waterfall.classical", ["waterfall"]),
        ("waterfall.clustered", ["waterfall", "--clustered"]),
        ("bar", ["bar"]), ("heatmap", ["heatmap"]), ("report", ["report"])]
COMMANDS = ["simulate", "load", "train", "explain"] + [label for label, _ in TAIL]
STAGES = ["simulate", "load", "train.tree", "train.boosted", "train.mlp",
          "explain.tree", "explain.boosted", "explain.mlp", "cluster", "embed",
          "waterfall.classical", "waterfall.clustered", "bar.tree", "bar.boosted",
          "bar.mlp", "heatmap", "report"]

# config file contents (on top of the package defaults) and the first command
WORKLOADS = {
    "pipeline-default": ({}, "simulate"),
    # a fixed program seed keeps the train/test split, and so the tree's shape,
    # the same for every input seed (see write_csv_input)
    "tree-cluster-large": ({"seed": 0,
                            "dataset": {"source": "csv", "path": "input.csv",
                                        "target": "target"},
                            "models": {"tree": {}}, "explain": {"on": "all"},
                            "cluster": {"source": "tree"}}, "load"),
    "kernel-sampled": ({"dataset": {"n_samples": 360, "n_features": 14},
                        "models": {"mlp": {}}, "cluster": {"source": "mlp"}}, "simulate"),
}
# two repetitions (about 12 s each on a 2-vCPU VM) fit in a 30-s run, so the
# explain rate is a median over ~17 s of TreeSHAP, not one ~13-s command
CSV_ROWS, CSV_FEATURES = 1600, 10


@dataclass
class CommandRun:
    label: str
    seconds: float
    rss_mb: float
    exit_code: int


@dataclass
class PipelineRun:
    run_dir: Path
    seconds: float
    commands: list[CommandRun]
    spans: list[dict] = field(default_factory=list)  # one dump per traced command


# ---------------------------------------------------------------------------
# inputs

def write_inputs(workload: str, input_seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """Config (and CSV) for one workload; returns the (label, argv) commands."""
    overrides, first = WORKLOADS[workload]
    (work / "config.json").write_text(json.dumps({"seed": input_seed, **overrides}))
    if first == "load":
        write_csv_input(work / "input.csv", input_seed)
    return [(first, [first]), ("train", ["train"]), ("explain", ["explain"])] + TAIL


def write_csv_input(path: Path, seed: int) -> None:
    """One fixed dataset (uniform features, three classes from a noisy linear
    score), shown differently per seed: the seed permutes the feature columns
    and the class names and mirrors some features. The variants are
    isomorphic, so every seed trains the same-shaped tree and gives TreeSHAP
    and HDBSCAN the same work, while the bytes read and written differ.
    Independent draws would vary the tree's size, and with it the run time,
    by about 20 %."""
    base = np.random.default_rng(6000)
    X = base.uniform(-5.0, 5.0, size=(CSV_ROWS, CSV_FEATURES))
    scores = X @ base.normal(size=(CSV_FEATURES, 3)) / 2 + base.gumbel(size=(CSV_ROWS, 3))
    rng = np.random.default_rng([seed, 6000])
    X = X[:, rng.permutation(CSV_FEATURES)] * rng.choice([-1.0, 1.0], size=CSV_FEATURES)
    labels = rng.permutation(3)[scores.argmax(axis=1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j}" for j in range(CSV_FEATURES)) + ",target\n")
        for row, label in zip(X, labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",c{label}\n")


# ---------------------------------------------------------------------------
# processes

def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def run_pipeline(commands, work: Path, name: str, env: dict, traced: bool) -> PipelineRun:
    logs = work / f"{name}.logs"
    logs.mkdir()
    run_id = uuid.uuid4().hex
    done = []
    start = time.perf_counter()
    for label, sub in commands:
        if traced:
            prefix = [sys.executable, str(HERE / "launch.py"),
                      str(logs / f"{label}.spans.json"), run_id, label, "--"]
        else:
            prefix = [sys.executable, "-m", "shappaths"]
        argv = prefix + sub + ["--config", "config.json", "--out", name]
        done.append(CommandRun(label, *spawn(argv, work, env, logs / f"{label}.log")))
    seconds = time.perf_counter() - start
    spans = [json.loads(p.read_text()) for p in sorted(logs.glob("*.spans.json"))]
    return PipelineRun(work / name, seconds, done, spans)


def measure_setup(work: Path, env: dict) -> list[float]:
    """Seconds for a fresh interpreter to import the CLI module."""
    argv = [sys.executable, "-c", "import shappaths.cli"]
    return [spawn(argv, work, env, work / "setup.log")[0] for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# metrics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def command_seconds(run: PipelineRun, label: str) -> float:
    return sum(c.seconds for c in run.commands if c.label == label)


def stage_seconds(run: PipelineRun) -> dict[str, float]:
    try:
        manifest = json.loads((run.run_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        return {}
    return {name: entry["seconds"] for name, entry in manifest["stages"].items()}


def end_to_end(runs: list[PipelineRun], rows: list[int],
               setup: list[float]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; ``peak_rss_mb`` reports their max,
    the others their median."""
    return {
        "pipeline_s": [r.seconds for r in runs],
        "explain_rows_per_s": [n / command_seconds(r, "explain") for r, n in zip(runs, rows)],
        "peak_rss_mb": [c.rss_mb for r in runs for c in r.commands],
        "setup_s": setup,
    }


def cli_layer(runs: list[PipelineRun], setup_s: float) -> dict:
    """The cli.* metrics: per-command processes and manifest stages, no tracing."""
    out = {}
    for label in COMMANDS:
        out[f"cli.cmd_s.{label}"] = statistics.median(command_seconds(r, label) for r in runs)
        out[f"cli.cmd_rss_mb.{label}"] = max(
            (c.rss_mb for r in runs for c in r.commands if c.label == label), default=0.0)
    stages = [stage_seconds(r) for r in runs]
    for name in STAGES:
        out[f"cli.stage_s.{name}"] = statistics.median(s.get(name, 0.0) for s in stages)
    out["cli.reload_s"] = statistics.median(
        sum(c.seconds for c in r.commands) - sum(s.values()) - len(r.commands) * setup_s
        for r, s in zip(runs, stages))
    return out


class Span(NamedTuple):
    name: str
    seconds: float
    self_seconds: float    # minus the time of its child spans
    counters: dict
    ancestors: list[int]   # indices of enclosing spans, nearest first


def read_spans(docs: list[dict]) -> list[Span]:
    """Spans of every traced command, with self time from the parent links."""
    spans: list[Span] = []
    for doc in docs:
        raw = doc["spans"]
        child = [0.0] * len(raw)
        for name, start, end, parent, _ in raw:
            if parent >= 0:
                child[parent] += end - start
        offset = len(spans)
        for i, (name, start, end, parent, counters) in enumerate(raw):
            ancestors = [] if parent < 0 else [offset + parent] + spans[offset + parent].ancestors
            spans.append(Span(name, end - start, end - start - child[i], counters or {},
                              ancestors))
    return spans


def span_layers(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics, and self seconds by layer, from the traced spans."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    def count(name, key):
        return sum(s.counters.get(key, 0) for s in named(name))

    def enclosing(s, prefix):
        return next((a for a in s.ancestors if spans[a].name.startswith(prefix)), None)

    # model evaluations: predict_margin calls not nested in another predict_margin
    evals = [i for i, s in enumerate(spans) if s.name.startswith("models.predict_margin.")
             and enclosing(s, "models.predict_margin.") is None]
    kernel_evals = {i: k for i in evals
                    if (k := enclosing(spans[i], "explain.kernel_shap")) is not None}
    m = {
        "explain.tree_shap_s": total("explain.tree_shap"),
        "explain.tree_shap_rows": count("explain.tree_shap", "rows"),
        "explain.shap_values_tree_calls": len(named("explain.shap_values_tree")),
        "explain.shap_values_tree_s": total("explain.shap_values_tree"),
        "explain.kernel_shap_s": total("explain.kernel_shap"),
        "explain.kernel_shap_rows": count("explain.kernel_shap", "rows"),
        "explain.kernel.sample_coalitions_s": total("explain.kernel.sample_coalitions"),
        "explain.kernel.model_eval_s": sum(spans[i].seconds for i in kernel_evals),
        "explain.kernel.model_eval_rows": sum(spans[i].counters["rows"] for i in kernel_evals),
        "explain.tensor_io_s": total("explain.tensor_io"),
        "explain.tensor_io_calls": len(named("explain.tensor_io")),
        "subgroup.hdbscan_s": total("subgroup.hdbscan"),
        "subgroup.hdbscan.n": count("subgroup.hdbscan", "n"),
        "subgroup.pca_s": total("subgroup.pca"),
        "subgroup.purity_s": total("subgroup.purity"),
        "models.best_split_calls": len(named("models.best_split")),
        "models.best_split_s": total("models.best_split"),
        "models.loss_and_grads_calls": len(named("models.loss_and_grads")),
        "models.loss_and_grads_s": total("models.loss_and_grads"),
        "models.io_s": total("models.io"),
        "data.simulate_s": total("data.simulate"),
        "data.load_csv_calls": len(named("data.load_csv")),
        "data.load_csv_s": total("data.load_csv"),
        "data.write_csv_s": total("data.write_csv"),
        "viz.paths_s": total("viz.paths"),
        "viz.render_s": total("viz.render"),
        "viz.svg_bytes": count("viz.render", "bytes"),
    }
    m["explain.kernel.rest_s"] = (m["explain.kernel_shap_s"] - m["explain.kernel.model_eval_s"]
                                  - m["explain.kernel.sample_coalitions_s"])
    # coalitions per explained row, from the evaluations each kernel_shap call made:
    # one background block per coalition and row, plus the base and the row margins
    coalitions = 0.0
    for k, s in enumerate(spans):
        if s.name == "explain.kernel_shap":
            n, bg = s.counters["rows"], s.counters["background"]
            rows = sum(spans[i].counters["rows"] for i, call in kernel_evals.items() if call == k)
            coalitions += (rows - bg - n) / (n * bg)
    m["explain.kernel.coalitions"] = coalitions
    for stage in ["distances", "core", "mutual_reachability", "mst", "linkage",
                  "condense", "select", "labels"]:
        m[f"subgroup.hdbscan.{stage}_s"] = total(f"subgroup.hdbscan.{stage}")
    for kind in ["tree", "boosted", "mlp"]:
        m[f"models.train_{kind}_s"] = total(f"models.train_{kind}")
        of_kind = [spans[i] for i in evals if spans[i].name == f"models.predict_margin.{kind}"]
        m[f"models.predict_margin_calls.{kind}"] = len(of_kind)
        m[f"models.predict_margin_rows.{kind}"] = sum(s.counters["rows"] for s in of_kind)
        m[f"models.predict_margin_s.{kind}"] = sum(s.seconds for s in of_kind)

    self_by_layer: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = "explain.kernel.model_eval" if i in kernel_evals else s.name
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + s.self_seconds
    return m, self_by_layer


# ---------------------------------------------------------------------------
# records

def machine_record(seed: int, input_seed: int) -> dict:
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cgroup_cpu_max": cpu_max, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "seed": seed, "input_seed": input_seed, "second_seed": SECOND_SEED}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def layer_map_claim(workload: str, m: dict, self_by_layer: dict,
                    pipeline_s: float) -> tuple[str, bool]:
    """The layer map's prediction for this workload, and whether it held."""
    if workload == "kernel-sampled":
        top = max(self_by_layer, key=self_by_layer.get, default=None)
        return (f"explain.kernel.model_eval has the largest layer self time (largest: {top})",
                top == "explain.kernel.model_eval")
    if workload == "tree-cluster-large":
        top = max(COMMANDS, key=lambda c: m[f"cli.cmd_rss_mb.{c}"])
        return (f"cli.cmd_rss_mb.cluster is the largest cli.cmd_rss_mb (largest: {top})",
                top == "cluster")
    share = (m["explain.shap_values_tree_s"] + m["explain.kernel_shap_s"]) / pipeline_s
    return (f"shap_values_tree_s + kernel_shap_s = {share:.1%} of pipeline_s, over half",
            share > 0.5)


# ---------------------------------------------------------------------------
# main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this input seed's outputs as the reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated benchmark still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not ((src / "shappaths" / "cli.py").is_file() and spec_path.is_file()
            and (ROOT / "tests" / "oracles.py").is_file()):
        print(f"error: {ROOT} is not a shappaths source checkout "
              "(needs src/shappaths, tests/oracles.py and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    import checks  # noqa: E402  (imports shappaths from src)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    input_seed = args.seed % REFERENCE_SEEDS
    references = load_reference(args.workload)
    ref = None if args.record else references.get(str(input_seed))
    oracles = checks.load_oracles(ROOT)
    import shappaths

    if Path(shappaths.__file__).resolve().parent != (src / "shappaths").resolve():
        print(f"error: imported {shappaths.__file__}, not the checkout's", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands = write_inputs(args.workload, input_seed, work)
        # set-up probes on both sides of the repetitions: the host's speed
        # drifts within seconds, and one burst of probes sees one moment of it
        setup = measure_setup(work, env)
        runs: list[PipelineRun] = []
        start = time.perf_counter()
        while True:
            runs.append(run_pipeline(commands, work, f"run{len(runs)}", env, traced=False))
            if time.perf_counter() - start + runs[-1].seconds > args.seconds:
                break
        setup += measure_setup(work, env)
        traced = run_pipeline(commands, work, "traced", env, traced=True) if args.trace else None

        attempted = failed = 0
        failures: dict[str, list[str]] = {}
        results = []
        for run in runs + ([traced] if traced else []):
            result = checks.check_run(run.run_dir, ref, oracles)
            if ref is None and not args.record:
                result.fail("explain", f"no reference for input seed {input_seed}")
            for c in run.commands:
                attempted += 1
                reasons = list(result.failures.get(c.label, []))
                if c.exit_code != 0:
                    reasons.append(f"exit code {c.exit_code}")
                if reasons:
                    failed += 1
                    failures.setdefault(f"{run.run_dir.name}/{c.label}", reasons)
            results.append(result)

        samples = end_to_end(runs, [r.rows_explained for r in results], setup)
        e2e = {name: max(v) if name == "peak_rss_mb" else statistics.median(v)
               for name, v in samples.items()}
        metrics = dict(e2e)
        print(f"machine: {json.dumps(machine_record(args.seed, input_seed))}")
        print(f"workload {args.workload}: {len(runs)} untraced repetition(s)"
              f"{' + 1 traced' if traced else ''}, {len(setup)} set-up samples")
        for e in spec["end_to_end"]:
            values = samples[e["name"]]
            q1, med, q3 = quartiles(values)
            print(f"  {e['name']:<20} {metrics[e['name']]:12.4f} {e['unit']:<6} "
                  f"(n={len(values)}, q1={q1:.4f}, median={med:.4f}, q3={q3:.4f}, "
                  f"max={max(values):.4f})")
        print(f"  {'failed_frac':<20} {failed / attempted:12.4f} {'1':<6} "
              f"({failed} of {attempted} commands)")
        for name, reasons in failures.items():
            print(f"  FAILED {name}: {'; '.join(reasons)}")
        print("artifact digests against the reference (a change whose checks pass "
              "is float summation order, not a failure):")
        for name, status in checks.digest_report(results[0].digests, ref).items():
            print(f"  {status:<8} {name} {results[0].digests.get(name, '-')[:16]}")

        if traced:
            metrics = cli_layer(runs, e2e["setup_s"])
            layers, self_by_layer = span_layers(read_spans(traced.spans))
            metrics.update(layers)
            metrics["explain.additivity_gap_max"] = results[-1].gap_max
            metrics["subgroup.hdbscan.noise_frac"] = results[-1].noise_frac
            metrics["trace.overhead_frac"] = traced.seconds / e2e["pipeline_s"] - 1.0
            top = sorted(self_by_layer.items(), key=lambda kv: -kv[1])[:6]
            print("self seconds by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
            claim, holds = layer_map_claim(args.workload, metrics, self_by_layer,
                                           e2e["pipeline_s"])
            print(f"layer map: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")

        if args.record:
            if failures:
                print("error: not recording a reference from a failing run", file=sys.stderr)
                return 1
            references[str(input_seed)] = results[0].reference
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{args.workload}.json").write_text(
                json.dumps(references, sort_keys=True, indent=0) + "\n")
            print(f"recorded reference for input seed {input_seed}")

        names = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                          "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                                      for e in names}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
