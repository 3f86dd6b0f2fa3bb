"""Command-line entry point: reproducible runs over the whole pipeline.

Commands: gen, train, eval, infer, analyze, search, track.  Every
run validates its configuration document against a schema (unknown keys
rejected), builds each section's dataclass, which checks its ranges,
copies the effective configuration into the output directory, and never
mutates its inputs.  Exit codes: 1 other input/output error, 2 invalid
configuration, 3 missing files, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import CLASS_COUNT
from . import archsearch, config, embedding, ensemble, features, framing, metrics
from . import siggen, tracker, training
from .errors import ConfigurationError, NumericError

EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

# Each configuration section and the dataclass that holds its keys, defaults and ranges.
SECTIONS = {"framing": framing.FrameShaperConfig, "features": features.FeatureConfig,
            "dataset": siggen.DatasetConfig, "training": training.TrainConfig,
            "ensemble": ensemble.EnsembleConfig, "embedding": embedding.EmbeddingConfig,
            "search": archsearch.DEConfig, "tracker": tracker.TrackerConfig}

DEFAULTS = {
    "seed": 0,
    "out": "run",
    **{name: asdict(section()) for name, section in SECTIONS.items()},
    # Read by no command.  `gen` snapshots the whole configuration into each
    # dataset, and perfbench's recorded reference fingerprints hash those
    # files; drop these three keys when that reference is next recorded.
    "scenario": {"duration_s": 60.0, "channels": 8,
                 "events": [{"class_id": 6, "start_s": 10.0, "end_s": 20.0,
                             "chan_lo": 5, "chan_hi": 7}]},
    "workers": 1,
    "bench": {"frames": 1000, "repeats": 5},
}


SCHEMA = config.schema_of(DEFAULTS)
validate_config = partial(config.validate_config, schema=SCHEMA)


def merged_config(user: dict | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))
    if user:
        validate_config(user)
        for key, value in user.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def load_config(path: str | None) -> dict:
    if path is None:
        return merged_config(None)
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError as err:      # also a document that is not UTF-8
        raise ConfigurationError(f"config is not valid JSON: {err}") from err
    return merged_config(doc)


@dataclass(frozen=True)
class Settings:
    """A merged configuration as typed, range-checked sections."""
    seed: int
    pipeline: features.Pipeline
    dataset: siggen.DatasetConfig
    training: training.TrainConfig
    ensemble: ensemble.EnsembleConfig
    embedding: embedding.EmbeddingConfig
    search: archsearch.DEConfig
    tracker: tracker.TrackerConfig

    def __post_init__(self):
        config.at_least(self, seed=0)

    @classmethod
    def from_dict(cls, cfg: dict) -> "Settings":
        """The sections of a validated, merged configuration; a range error
        names its section and key."""
        sections = {name: config.build_section(name, section, cfg[name])
                    for name, section in SECTIONS.items()}
        pipeline = features.Pipeline(sections.pop("framing"), sections.pop("features"))
        return cls(cfg["seed"], pipeline, **sections)


def _snapshot(cfg: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    # The output location is where the snapshot lives, not run content;
    # keeping it out makes identical runs produce identical trees.
    doc = {k: v for k, v in cfg.items() if k != "out"}
    (out / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _load_model(pipeline: features.Pipeline, path) -> ensemble.EnsembleModel:
    """The ensemble at ``path``, which must have been trained with ``pipeline``."""
    model = ensemble.load_ensemble(path)
    have, want = model.pipeline.to_dict(), pipeline.to_dict()
    diff = [f"{s}.{k} is {want[s][k]} here, {have[s][k]} in the model"
            for s in have for k in have[s] if have[s][k] != want[s][k]]
    if diff:
        raise ConfigurationError(f"{path}: the configuration's preprocessing differs "
                                 f"from the model's: {'; '.join(diff)}")
    return model


# ---------------------------------------------------------------------------
# Commands

def cmd_gen(cfg: Settings, out: Path) -> int:
    manifest = siggen.generate_dataset(cfg.dataset, cfg.seed, cfg.pipeline.framing)
    siggen.save_dataset(manifest, out)
    counts = manifest.class_counts()
    print(f"dataset: {len(manifest.entries)} frames, "
          f"{len(manifest.scenarios)} scenarios -> {out}")
    print("per class: " + ", ".join(f"{c}:{counts[c]}" for c in sorted(counts)))
    return 0


def _load_sets(data_dir, pipeline: features.Pipeline):
    blobs, labels, splits = training.load_dataset_features(data_dir, pipeline)
    return training.standardized_sets(blobs, labels, splits, pipeline.features.clip)


def cmd_train(cfg: Settings, out: Path, data_dir: str) -> int:
    train_set, test_set, stats = _load_sets(data_dir, cfg.pipeline)
    model, histories, changes = training.train_ensemble(
        train_set, test_set, stats, cfg.pipeline, cfg.training, cfg.ensemble.threshold,
        cfg.seed)
    # `infer` scores with float32 copies of the members; refuse, before
    # writing anything, a member that it would refuse.
    for net in model.members:
        net.astype(np.float32)
    for j, history in enumerate(histories):
        acc = history.records[history.best_epoch()].test_accuracy
        print(f"member C{j + 1}: best test accuracy {acc:.4f} "
              f"after {len(history.records)} epochs")
    if cfg.training.relabel:
        training.write_relabel_report(changes, out / "relabel.jsonl")
        print(f"relabeling: {len(changes)} labels corrected")

    ensemble.save_ensemble(model, out / "ensemble.json")
    for j, history in enumerate(histories):
        with open(out / f"history_c{j + 1}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "test_accuracy", "seconds"])
            for r in history.records:
                writer.writerow([r.epoch, f"{r.train_loss:.6f}",
                                 f"{r.test_accuracy:.6f}", f"{r.seconds:.3f}"])
    print(f"ensemble -> {out / 'ensemble.json'}")
    return 0


def _stored_predictions(path, n_test: int) -> np.ndarray:
    """The fused score vectors in the .npy file at ``path``: a finite
    (n_test, CLASS_COUNT) array of numbers."""
    with open(path, "rb") as fh:
        try:
            fused = np.load(fh)
        except Exception as err:      # numpy raises many types on bad bytes
            raise ConfigurationError(f"{path}: not a .npy array ({err!r})") from err
    want = (n_test, CLASS_COUNT)
    if not (isinstance(fused, np.ndarray) and fused.dtype.kind in "biuf"
            and fused.shape == want):
        got = (f"{fused.dtype} array of shape {fused.shape}"
               if isinstance(fused, np.ndarray) else "an .npz archive")
        raise ConfigurationError(f"{path}: holds {got}, expected a numeric array of "
                                 f"shape {want}, one row per test frame")
    if not np.isfinite(fused).all():
        raise NumericError(f"{path}: stored predictions are not all finite")
    return fused


def cmd_eval(cfg: Settings, out: Path, data_dir: str, model_path: str | None,
             predictions_path: str | None) -> int:
    if predictions_path is None and model_path is None:
        raise ConfigurationError("eval needs --model or --predictions")
    pipeline = cfg.pipeline
    model = _load_model(pipeline, model_path) if predictions_path is None else None
    labels, splits = training.dataset_labels(data_dir, pipeline)
    test = splits == "test"
    if not test.any():
        test[:] = True
    y = labels[test]

    if predictions_path is not None:
        fused = _stored_predictions(predictions_path, y.shape[0])
    else:
        blobs, _, _ = training.load_dataset_features(data_dir, pipeline, test)
        x = features.standardize(blobs, model.normalizer, pipeline.features.clip)
        fused = ensemble.predict_fused(model, x, cfg.ensemble.fusion)

    cm = metrics.confusion(np.argmax(fused, axis=1), y)
    report = metrics.precision_f1(cm)
    report.accuracy = metrics.accuracy(fused, y)
    print(metrics.format_report(cm, report))
    (out / "metrics.json").write_text(report.to_json() + "\n")
    np.savetxt(out / "confusion_counts.csv", cm.counts, fmt="%d", delimiter=",")
    return 0


def cmd_infer(cfg: Settings, out: Path, stream_path: str, channels: int,
              model_path: str) -> int:
    model = _load_model(cfg.pipeline, model_path)
    # Float32 copies of the members score within 1e-6 of the float64 ones,
    # and faster; training and eval stay in float64.
    model.members = [net.astype(np.float32) for net in model.members]
    stream = siggen.load_stream(stream_path, channels)
    grid = training.stream_scores(stream, model, cfg.ensemble.fusion)
    if not np.isfinite(grid).all():
        raise NumericError("the model scored the stream with non-finite values")
    dmap = tracker.build_decision_map(grid, cfg.ensemble.threshold)
    np.savez(out / "scores.npz", fused=grid, decisions=dmap.decisions)
    print(f"scores: {grid.shape[0]} frames x {channels} channels -> {out / 'scores.npz'}")
    return 0


def cmd_analyze(cfg: Settings, out: Path, data_dir: str) -> int:
    blobs, labels, splits = training.load_dataset_features(data_dir, cfg.pipeline)
    e = cfg.embedding
    flat = blobs.reshape(blobs.shape[0], -1)
    rng = np.random.default_rng([cfg.seed, 0xA11A])
    if flat.shape[0] > e.max_points:
        keep = np.sort(rng.choice(flat.shape[0], e.max_points, replace=False))
        flat, labels = flat[keep], labels[keep]
    n_comp = min(e.pca_components, flat.shape[1], flat.shape[0])
    pca_res = embedding.pca(flat, n_comp)
    emb = embedding.tsne(pca_res.projection, e, cfg.seed)
    centers = embedding.median_centers(emb, labels)
    dmat = embedding.center_distances(centers)
    tree = embedding.mst(dmat)

    with open(out / "embedding.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "class_id"] + [f"y{k}" for k in range(e.dims)])
        for i in range(emb.shape[0]):
            writer.writerow([i, int(labels[i])] + [f"{v:.6f}" for v in emb[i]])
    (out / "centers.json").write_text(json.dumps(
        {"centers": centers.tolist()}, indent=1))
    (out / "distances.json").write_text(json.dumps(
        {"normalized": np.round(dmat, 6).tolist()}, indent=1))
    (out / "mst.json").write_text(json.dumps(
        {"edges": [[i, j, round(w, 6)] for i, j, w in tree.edges],
         "total_weight": round(tree.total_weight, 6)}, indent=1))
    print(f"embedding of {emb.shape[0]} points -> {out}")
    print("tree edges: " + ", ".join(f"{i}-{j}" for i, j, _ in tree.edges))
    return 0


def cmd_search(cfg: Settings, out: Path, data_dir: str) -> int:
    train_set, test_set, _ = _load_sets(data_dir, cfg.pipeline)
    s = cfg.search
    cap = s.max_frames_per_class
    x_tr, y_tr = train_set

    def cap_per_class(x, y):
        keep = np.sort(np.concatenate([np.nonzero(y == c)[0][:cap]
                                       for c in range(CLASS_COUNT)]))
        return x[keep], y[keep]

    train_small = cap_per_class(x_tr, y_tr)
    test_small = cap_per_class(*test_set)
    ft = cfg.pipeline.features
    space = archsearch.SearchSpace(input_shape=(ft.subwindows, ft.feature_dim))
    fitness = archsearch.architecture_fitness(space, train_small, test_small, s.epochs,
                                              cfg.seed)
    best, value, trace = archsearch.de_optimize(space.bounds(), fitness, s, cfg.seed)
    archsearch.write_trace(trace, out / "trace.jsonl")
    spec, train_cfg = archsearch.decode_genome(best, space)
    (out / "best_spec.json").write_text(json.dumps(
        {"spec": spec.to_dict(), "lr": train_cfg.lr,
         "weight_decay": train_cfg.weight_decay,
         "validation_accuracy": -value}, indent=1))
    print(f"search best validation accuracy {-value:.4f} -> {out / 'best_spec.json'}")
    return 0


def cmd_track(cfg: Settings, out: Path, scores_path: str,
              calibration_path: str | None) -> int:
    with open(scores_path, "rb") as fh:
        try:
            with np.load(fh) as data:
                fused = data["fused"]
        except Exception as err:      # zipfile and numpy raise many types on bad bytes
            raise ConfigurationError(f"{scores_path}: not an .npz file with a "
                                     f"'fused' array ({err!r})") from err
    if fused.dtype.kind != "f":
        raise ConfigurationError(f"{scores_path}: 'fused' holds {fused.dtype} values, "
                                 "expected real floating-point scores")
    if fused.ndim != 3 or fused.shape[2] != CLASS_COUNT:
        raise ConfigurationError(f"{scores_path}: 'fused' has shape {fused.shape}, "
                                 f"expected (frames, channels, {CLASS_COUNT})")
    # NaN fails both comparisons, so one pass rejects non-finite scores too.
    if fused.size and not (fused.min() >= 0 and fused.max() <= 1):
        if not np.isfinite(fused).all():
            raise NumericError(f"{scores_path}: fused scores are not all finite")
        raise ConfigurationError(f"{scores_path}: fused scores lie in "
                                 f"[{fused.min():.6g}, {fused.max():.6g}], outside [0, 1]")
    dmap = tracker.build_decision_map(fused, cfg.ensemble.threshold)
    tracks = tracker.glue_tracks(dmap, cfg.tracker)
    if calibration_path is not None:
        table = tracker.CalibrationTable.from_json(Path(calibration_path).read_bytes(),
                                                   calibration_path)
        reports = tracker.apply_error_budget(tracks, cfg.tracker, table)
    else:
        reports = [tracker.EventReport(tr, True) for tr in tracks]
    tracker.write_event_reports(reports, out / "events.jsonl", cfg.pipeline.framing)
    admitted = sum(1 for r in reports if r.admitted)
    print(f"tracks: {len(tracks)} glued, {admitted} admitted -> {out / 'events.jsonl'}")
    return 0


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="fiberwatch",
        description="vibration-event recognition pipeline for fiber-optic sensor streams")
    parser.add_argument("--config", help="JSON configuration document")
    parser.add_argument("--seed", type=int, help="override configured seed")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate a labeled synthetic dataset")
    for name, need_data in [("train", True), ("eval", True), ("analyze", True),
                            ("search", True)]:
        p = sub.add_parser(name)
        p.add_argument("--data", required=need_data, help="dataset directory")
        if name == "eval":
            p.add_argument("--model", help="ensemble descriptor path")
            p.add_argument("--predictions", help="pre-stored fused score vectors (.npy)")
    p = sub.add_parser("infer", help="score a raw stream file")
    p.add_argument("--stream", required=True)
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--model", required=True)
    p = sub.add_parser("track", help="glue decisions into event tracks")
    p.add_argument("--scores", required=True, help="scores.npz from infer")
    p.add_argument("--calibration", help="calibration table JSON")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        settings = Settings.from_dict(cfg)
        out = Path(cfg["out"])
        _snapshot(cfg, out)
        common = (settings, out)
        return {
            "gen": lambda: cmd_gen(*common),
            "train": lambda: cmd_train(*common, args.data),
            "eval": lambda: cmd_eval(*common, args.data, args.model, args.predictions),
            "infer": lambda: cmd_infer(*common, args.stream, args.channels, args.model),
            "analyze": lambda: cmd_analyze(*common, args.data),
            "search": lambda: cmd_search(*common, args.data),
            "track": lambda: cmd_track(*common, args.scores, args.calibration),
        }[args.command]()
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError) as err:
        print(f"missing input: {err}", file=sys.stderr)
        return EXIT_MISSING
    except OSError as err:
        print(f"input/output error: {err}", file=sys.stderr)
        return EXIT_IO
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
