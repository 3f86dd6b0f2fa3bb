"""What the benchmark runs: workload sizes, the input pools, and the metric tables.

Shared by the input generator, the timed workload process, the reference
recorder and the self-tests, so that every one of them agrees on sizes,
pool members and metric names.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixture"
REFERENCE_DIR = HERE / "reference"
# Scratch and result files go here, relative to the checkout root.
WORK_ROOT = Path(".bench_work")

WORKLOADS = ("infer_stream", "train_members", "track_cable", "analyze_embed")

# A block is one 12 s x 8 channel stream, scored with `infer`, then `track`.
BLOCK_SECONDS = 12.0
BLOCK_CHANNELS = 8
BLOCK_POOL = 42          # 6 per class; class 0 blocks carry no event
BLOCK_POOL_SEED = 20261017
BLOCK_TAIL_PCT = 75      # 40+ blocks per run leave at least ten beyond p75

DATASET_POOL = 4         # dataset seed = workload seed mod DATASET_POOL
MEMBERS = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload pass.

    ``full`` is what a workload measures; ``tiny`` is the cross-check pass
    each run makes of the other three workloads, and the self-test smoke size.
    """

    name: str
    min_blocks: int
    frames_per_class: int
    epochs: int
    cable_frames: int
    cable_channels: int
    cable_boxes: int
    analyze_points: int
    analyze_iterations: int


FULL = Sizes("full", min_blocks=40, frames_per_class=100, epochs=1,
             cable_frames=300, cable_channels=500, cable_boxes=50,
             analyze_points=500, analyze_iterations=260)
# The cross-check `track` grid is full size: on a host that runs code at
# two speeds, smaller grids' two speeds lie further apart (1.5-1.7x at
# 150 x 400 and below, 1.4x at 300 x 500), and a median that jumps between
# them spread past its bound.
TINY = Sizes("tiny", min_blocks=10, frames_per_class=15, epochs=1,
             cable_frames=300, cable_channels=500, cable_boxes=50,
             analyze_points=105, analyze_iterations=260)
SIZES = {s.name: s for s in (FULL, TINY)}
# The main pass runs for this share of a run's seconds, and for at least
# its minimum operation count (one, or min_blocks blocks). Every full-size
# operation takes at most about a third of it, so that even the `train`
# and `analyze` main passes are three or more commands with cross-check
# operations between them: the host's slow spells last seconds, and the
# median of several commands ignores one that is timed in such a spell.
MAIN_SHARE = 0.45
# Operations of each workload in the cross-check pass. They are spread
# through the main pass: on a shared host, CPU speed can drift by 10-40%
# over seconds, so a metric timed in one short window swings between runs.
# Many short operations, with their median reported, steady the figure.
CROSS_OPS = {"infer_stream": TINY.min_blocks, "train_members": 6, "track_cable": 14,
             "analyze_embed": 8}

# Cable grid: share of isolated false-alarm cells, and the empty margin kept
# around every box and false cell so that the default tracker (gap 2,
# width 2) never merges two of them.
CABLE_FALSE_SHARE = 0.002
CABLE_MARGIN = 6


def dataset_config(sizes: Sizes) -> dict:
    """CLI configuration for `gen`, `train` and `analyze` at one size."""
    return {
        "dataset": {"frames_per_class": sizes.frames_per_class},
        "training": {"epochs": sizes.epochs, "early_stop_acc": None,
                     "relabel": False},
        "embedding": {"max_points": sizes.analyze_points,
                      "iterations": sizes.analyze_iterations},
    }


def config_path(dataset_dir: Path) -> Path:
    """Where the generator writes the CLI configuration of a dataset's size."""
    return dataset_dir.with_name(dataset_dir.name + ".config.json")


@dataclass(frozen=True)
class BlockSpec:
    block_id: int
    class_id: int            # 0: background only
    start_s: float
    end_s: float
    chan_lo: int
    chan_hi: int
    seed: int


def block_pool() -> list[BlockSpec]:
    """The fixed pool of block scenarios whose reference outputs are recorded.

    Classes cycle 0-6. An event lasts 5-7 s, starts at 2-4 s and spans 3-5
    channels, so every event block has frames fully inside its event.
    """
    import numpy as np

    rng = np.random.default_rng(BLOCK_POOL_SEED)
    pool = []
    for b in range(BLOCK_POOL):
        c = b % 7
        start = round(float(rng.uniform(2.0, 4.0)), 3)
        end = round(start + float(rng.uniform(5.0, 7.0)), 3)
        lo = int(rng.integers(0, 4))
        hi = min(BLOCK_CHANNELS - 1, lo + int(rng.integers(2, 5)))
        pool.append(BlockSpec(b, c, start, end, lo, hi, BLOCK_POOL_SEED + b))
    return pool


def block_order(seed: int) -> list[int]:
    """Order in which a run submits the pool's blocks; drawn from the seed."""
    import numpy as np

    return [int(i) for i in np.random.default_rng([seed, 0xB10C]).permutation(BLOCK_POOL)]


# ---------------------------------------------------------------------------
# Metrics

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("stream_rtf", "ch.s/s", "higher", 0.25),
    Metric("block_p50_s", "s", "lower", 0.25),
    Metric("block_tail_s", "s", "lower", 0.25),
    Metric("train_frames_per_s", "frames/s", "higher", 0.25),
    Metric("track_cells_per_s", "cells/s", "higher", 0.25),
    Metric("analyze_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

# Functions the traced run wraps, by module and attribute. A method is
# written "Class.method"; a module function is wrapped under every
# fiberwatch module namespace that binds it.
TRACED = (
    ("siggen", "load_stream"),
    ("framing", "primary_filter"),
    ("framing", "frame_matrix"),
    ("training", "stream_features"),
    ("features", "blobs_from_windows"),
    ("features", "fit_normalizer"),
    ("tensornet", "Network.forward_batch"),
    ("tensornet", "Network.backward_batch"),
    ("tensornet", "sgd_step"),
    ("tensornet", "load_checkpoint"),
    ("ensemble", "load_ensemble"),
    ("ensemble", "predict_fused"),
    ("ensemble", "save_ensemble"),
    ("training", "train_member"),
    ("training", "evaluate_accuracy"),
    ("training", "standardized_sets"),
    ("training", "load_dataset_features"),
    ("tracker", "build_decision_map"),
    ("tracker", "glue_tracks"),
    ("tracker", "write_event_reports"),
    ("embedding", "pca"),
    ("embedding", "conditional_affinities"),
    ("embedding", "tsne"),
    ("embedding", "kl_divergence"),
    ("cli", "run"),
    ("cli", "cmd_infer"),
    ("cli", "cmd_track"),
    ("cli", "cmd_train"),
    ("cli", "cmd_analyze"),
)

# Span names: one per traced function, and forward_batch split by mode.
_SELF = [n for m, attr in TRACED for n in (
    [f"{m}.forward_batch.infer", f"{m}.forward_batch.train"]
    if attr == "Network.forward_batch" else [f"{m}.{attr.rpartition('.')[2]}"])]
# Work counts grow with the work a time-boxed run completes, so higher is
# better; the two ratios say how much of the work was useful.
_COUNTS = [
    ("framing.primary_filter.samples", "count", "higher"),
    ("training.stream_features.cells", "count", "higher"),
    ("training.stream_features.cell_share", "share", "higher"),
    ("features.blobs_from_windows.windows", "count", "higher"),
    ("tensornet.forward_batch.infer.rows", "count", "higher"),
    ("tensornet.forward_batch.infer.calls", "count", "higher"),
    ("tensornet.forward_batch.train.rows", "count", "higher"),
    ("tensornet.backward_batch.rows", "count", "higher"),
    ("tensornet.sgd_step.calls", "count", "higher"),
    ("tracker.build_decision_map.cells", "count", "higher"),
    ("tracker.glue_tracks.tracks", "count", "higher"),
    ("embedding.kl_divergence.calls", "count", "higher"),
    ("embedding.tsne.kl_per_step", "calls/step", "lower"),
]

PER_LAYER = tuple(
    [Metric(f"{n}.self_s", "s", "lower") for n in _SELF]
    + [Metric(n, u, b) for n, u, b in _COUNTS]
    + [Metric(f"trace_overhead.{m.name}", m.unit, m.better) for m in END_TO_END]
)


def benchmark_document() -> dict:
    """The content of BENCHMARK.json."""
    why = {
        "infer_stream": "operator path: 12 s x 8 ch blocks through infer then track; "
                        "member forward passes, filter, framing and features dominate",
        "train_members": "train command: train-mode forward, backward and sgd_step "
                         "on the same conv layers infer uses; no tracker",
        "track_cable": "track on a 300 x 500 fused-score grid with 50 event boxes; "
                       "the only workload where glue_tracks dominates",
        "analyze_embed": "analyze at 500 points, 260 t-SNE iterations; the only "
                         "path into embedding, quadratic in time and memory",
    }
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": w, "why": why[w]} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Fingerprints

def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """One hash over every file below ``root``: relative path and content."""
    h = hashlib.sha256()
    root = Path(root)
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def load_json(path: Path):
    return json.loads(Path(path).read_text())
