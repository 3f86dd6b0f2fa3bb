"""Command-line entry point: reproducible runs over the whole pipeline.

Commands: gen, train, eval, infer, analyze, search, track, bench.  Every
run validates its configuration document against a schema (unknown keys
rejected), copies the effective configuration into the output directory,
and never mutates its inputs.  Exit codes: 2 invalid configuration,
3 missing files, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import CLASS_COUNT
from . import archsearch, embedding, ensemble, features, framing, metrics
from . import siggen, tensornet, tracker, training
from .errors import ConfigurationError, MissingDataError, NumericError

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

DEFAULTS = {
    "seed": 0,
    "out": "run",
    "workers": 1,
    "dataset": {"frames_per_class": 100, "scenarios_per_class": 8,
                "channels": 4, "split_ratio": 7},
    "framing": {"frame_size": 2048, "overlap_factor": 2, "band_lo_hz": 5.0,
                "band_hi_hz": 800.0, "adapt_decay": 0.05},
    "features": {"subwindows": 16, "bank_bands": 60, "band_lo_hz": 5.0,
                 "band_hi_hz": 800.0, "clip": 8.0},
    "training": {"epochs": 200, "batch_size": 64, "lr": 0.05, "momentum": 0.9,
                 "weight_decay": 1e-4, "early_stop_acc": None,
                 "relabel": False, "relabel_confidence": 0.95},
    "ensemble": {"threshold": 0.5, "fusion": "l2"},
    "embedding": {"pca_components": 64, "dims": 3, "perplexity": 30.0,
                  "iterations": 1000, "learning_rate": 100.0, "max_points": 5000},
    "search": {"population": 8, "generations": 5, "weight": 0.5, "crossover": 0.9,
               "epochs": 4, "max_frames_per_class": 60},
    "tracker": {"gap": 2, "width": 2, "min_duration": 3, "min_area": 6,
                "alpha": 0.5, "beta": 0.5},
    "scenario": {"duration_s": 60.0, "channels": 8,
                 "events": [{"class_id": 6, "start_s": 10.0, "end_s": 20.0,
                             "chan_lo": 5, "chan_hi": 7}]},
    "bench": {"frames": 1000, "repeats": 5},
}


def _schema(defaults: dict) -> dict:
    """Accepted types per key, read off the defaults: a float default takes
    any number, None an optional number, anything else its own type."""
    out = {}
    for key, value in defaults.items():
        if isinstance(value, dict):
            out[key] = _schema(value)
        elif isinstance(value, float):
            out[key] = (int, float)
        elif value is None:
            out[key] = (int, float, type(None))
        else:
            out[key] = type(value)
    return out


SCHEMA = _schema(DEFAULTS)


def validate_config(doc: dict, schema=None, path: str = "") -> None:
    schema = SCHEMA if schema is None else schema
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path or 'config'}: expected an object")
    for key, value in doc.items():
        if key not in schema:
            raise ConfigurationError(f"unknown configuration key {path}{key!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            validate_config(value, expected, f"{path}{key}.")
        else:
            kinds = expected if isinstance(expected, tuple) else (expected,)
            if bool not in kinds and isinstance(value, bool):
                raise ConfigurationError(f"{path}{key}: expected {kinds}, got bool")
            if not isinstance(value, kinds):
                raise ConfigurationError(
                    f"{path}{key}: expected {kinds}, got {type(value).__name__}")


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
    p = Path(path)
    if not p.exists():
        raise MissingDataError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err
    return merged_config(doc)


def _snapshot(cfg: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    # The output location is where the snapshot lives, not run content;
    # keeping it out makes identical runs produce identical trees.
    doc = {k: v for k, v in cfg.items() if k != "out"}
    (out / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _framing_cfg(cfg) -> framing.FrameShaperConfig:
    return framing.FrameShaperConfig(cfg["framing"]["frame_size"],
                                     cfg["framing"]["overlap_factor"])


def _feature_cfg(cfg) -> features.FeatureConfig:
    f = cfg["features"]
    return features.FeatureConfig(f["subwindows"], f["bank_bands"],
                                  f["band_lo_hz"], f["band_hi_hz"], f["clip"])


def _band(cfg):
    return (cfg["framing"]["band_lo_hz"], cfg["framing"]["band_hi_hz"])


# ---------------------------------------------------------------------------
# Commands

def cmd_gen(cfg: dict, out: Path) -> int:
    d = cfg["dataset"]
    manifest = siggen.generate_dataset(
        frames_per_class=d["frames_per_class"], seed=cfg["seed"],
        scenarios_per_class=d["scenarios_per_class"], channels=d["channels"],
        split_ratio=d["split_ratio"], cfg=_framing_cfg(cfg))
    siggen.save_dataset(manifest, out)
    counts = manifest.class_counts()
    print(f"dataset: {len(manifest.entries)} frames, "
          f"{len(manifest.scenarios)} scenarios -> {out}")
    print("per class: " + ", ".join(f"{c}:{counts[c]}" for c in sorted(counts)))
    return 0


def _load_sets(data_dir, cfg):
    blobs, labels, splits = training.load_dataset_features(
        data_dir, _feature_cfg(cfg), cfg["framing"]["adapt_decay"], _band(cfg))
    return training.standardized_sets(blobs, labels, splits, _feature_cfg(cfg))


def cmd_train(cfg: dict, out: Path, data_dir: str) -> int:
    train_set, test_set, stats = _load_sets(data_dir, cfg)
    t = cfg["training"]
    ft = _feature_cfg(cfg)
    specs = tensornet.reference_member_specs((ft.subwindows, ft.feature_dim))
    members, histories = [], []
    for j, spec in enumerate(specs):
        tc = training.TrainConfig(
            epochs=t["epochs"], batch_size=t["batch_size"], lr=t["lr"],
            momentum=t["momentum"], weight_decay=t["weight_decay"],
            seed=cfg["seed"] + j, early_stop_acc=t["early_stop_acc"])
        net = tensornet.Network(spec, seed=cfg["seed"] + j)
        best, history = training.train_member(net, train_set, test_set, tc)
        members.append(best)
        histories.append(history)
        acc = history.records[history.best_epoch()].test_accuracy
        print(f"member C{j + 1}: best test accuracy {acc:.4f} "
              f"after {len(history.records)} epochs")

    thresholds = np.full((3, CLASS_COUNT), cfg["ensemble"]["threshold"])
    model = ensemble.EnsembleModel(members, thresholds, stats)

    if t["relabel"]:
        x_train, y_train = train_set
        new_labels, changes = training.relabel_dataset(
            model, x_train, y_train, thresholds[0], t["relabel_confidence"])
        training.write_relabel_report(changes, out / "relabel.jsonl")
        print(f"relabeling: {len(changes)} labels corrected")
        if changes:
            for j, member in enumerate(members):
                tc = training.TrainConfig(
                    epochs=max(1, t["epochs"] // 4), batch_size=t["batch_size"],
                    lr=t["lr"] / 2, momentum=t["momentum"],
                    weight_decay=t["weight_decay"], seed=cfg["seed"] + 100 + j,
                    early_stop_acc=t["early_stop_acc"])
                best, history = training.train_member(
                    member, (x_train, new_labels), test_set, tc)
                members[j] = best
                histories[j].records.extend(history.records)
        model = ensemble.EnsembleModel(members, thresholds, stats)

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


def cmd_eval(cfg: dict, out: Path, data_dir: str, model_path: str | None,
             predictions_path: str | None) -> int:
    blobs, labels, splits = training.load_dataset_features(
        data_dir, _feature_cfg(cfg), cfg["framing"]["adapt_decay"], _band(cfg))
    mask = splits == "test"
    if not mask.any():
        mask = np.ones(len(labels), dtype=bool)
    y = labels[mask]

    if predictions_path is not None:
        p = Path(predictions_path)
        if not p.exists():
            raise MissingDataError(f"predictions file not found: {p}")
        fused = np.load(p)
        if fused.shape[0] != y.shape[0]:
            raise ConfigurationError("stored predictions do not match the test set size")
    else:
        if model_path is None:
            raise ConfigurationError("eval needs --model or --predictions")
        model = ensemble.load_ensemble(model_path)
        x = features.standardize(blobs[mask], model.normalizer, _feature_cfg(cfg).clip)
        fused = ensemble.predict_fused(model, x, cfg["ensemble"]["fusion"])

    acc = metrics.accuracy(fused, training.one_hot(y))
    cm = metrics.confusion(np.argmax(fused, axis=1), y)
    shares = np.bincount(y, minlength=CLASS_COUNT)
    balanced = len(set(shares[shares > 0])) == 1
    report = metrics.precision_f1(cm, balanced=True) if balanced else \
        metrics.MetricsReport(np.diag(cm.percent).copy(),
                              np.full(CLASS_COUNT, np.nan),
                              np.full(CLASS_COUNT, np.nan))
    report.accuracy = acc
    print(metrics.format_report(cm, report))
    (out / "metrics.json").write_text(report.to_json() + "\n")
    np.savetxt(out / "confusion_counts.csv", cm.counts, fmt="%d", delimiter=",")
    return 0


def cmd_infer(cfg: dict, out: Path, stream_path: str, channels: int,
              model_path: str) -> int:
    p = Path(stream_path)
    if not p.exists():
        raise MissingDataError(f"stream file not found: {p}")
    model = ensemble.load_ensemble(model_path)
    stream = siggen.load_stream(p, channels)
    grid = training.stream_scores(
        stream, model, _framing_cfg(cfg), _feature_cfg(cfg),
        cfg["framing"]["adapt_decay"], _band(cfg), cfg["ensemble"]["fusion"])
    thresholds = np.full(CLASS_COUNT, cfg["ensemble"]["threshold"])
    dmap = tracker.build_decision_map(grid, thresholds)
    np.savez(out / "scores.npz", fused=grid, decisions=dmap.decisions)
    print(f"scores: {grid.shape[0]} frames x {channels} channels -> {out / 'scores.npz'}")
    return 0


def cmd_analyze(cfg: dict, out: Path, data_dir: str) -> int:
    blobs, labels, splits = training.load_dataset_features(
        data_dir, _feature_cfg(cfg), cfg["framing"]["adapt_decay"], _band(cfg))
    e = cfg["embedding"]
    flat = blobs.reshape(blobs.shape[0], -1)
    rng = np.random.default_rng([cfg["seed"], 0xA11A])
    if flat.shape[0] > e["max_points"]:
        keep = np.sort(rng.choice(flat.shape[0], e["max_points"], replace=False))
        flat, labels = flat[keep], labels[keep]
    n_comp = min(e["pca_components"], flat.shape[1], flat.shape[0])
    pca_res = embedding.pca(flat, n_comp)
    emb_cfg = embedding.EmbeddingConfig(
        pca_components=n_comp, dims=e["dims"], perplexity=e["perplexity"],
        iterations=e["iterations"], learning_rate=e["learning_rate"],
        seed=cfg["seed"])
    emb = embedding.tsne(pca_res.projection, emb_cfg)
    centers = embedding.median_centers(emb, labels)
    dmat = embedding.center_distances(centers)
    tree = embedding.mst(dmat)

    with open(out / "embedding.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "class_id"] + [f"y{k}" for k in range(e["dims"])])
        for i in range(emb.shape[0]):
            writer.writerow([i, int(labels[i])] + [f"{v:.6f}" for v in emb[i]])
    (out / "centers.json").write_text(json.dumps(
        {"centers": centers.points.tolist()}, indent=1))
    (out / "distances.json").write_text(json.dumps(
        {"normalized": np.round(dmat.values, 6).tolist()}, indent=1))
    (out / "mst.json").write_text(json.dumps(
        {"edges": [[i, j, round(w, 6)] for i, j, w in tree.edges],
         "total_weight": round(tree.total_weight, 6)}, indent=1))
    print(f"embedding of {emb.shape[0]} points -> {out}")
    print("tree edges: " + ", ".join(f"{i}-{j}" for i, j, _ in tree.edges))
    return 0


def cmd_search(cfg: dict, out: Path, data_dir: str) -> int:
    train_set, test_set, _ = _load_sets(data_dir, cfg)
    s = cfg["search"]
    cap = s["max_frames_per_class"]
    x_tr, y_tr = train_set

    def cap_per_class(x, y):
        keep = []
        for c in range(CLASS_COUNT):
            idx = np.nonzero(y == c)[0][:cap]
            keep.extend(idx.tolist())
        keep = np.sort(np.array(keep, dtype=np.int64))
        return x[keep], y[keep]

    train_small = cap_per_class(x_tr, y_tr)
    test_small = cap_per_class(*test_set)
    ft = _feature_cfg(cfg)
    space = archsearch.SearchSpace(input_shape=(ft.subwindows, ft.feature_dim))
    fitness = archsearch.architecture_fitness(space, train_small, test_small,
                                              epochs=s["epochs"], seed=cfg["seed"])
    de_cfg = archsearch.DEConfig(s["population"], s["weight"], s["crossover"],
                                 s["generations"], cfg["seed"])
    best, value, trace = archsearch.de_optimize(space.bounds(), fitness, de_cfg)
    archsearch.write_trace(trace, out / "trace.jsonl")
    spec, train_cfg = archsearch.decode_genome(best, space)
    (out / "best_spec.json").write_text(json.dumps(
        {"spec": spec.to_dict(), "lr": train_cfg.lr,
         "weight_decay": train_cfg.weight_decay,
         "validation_accuracy": -value}, indent=1))
    print(f"search best validation accuracy {-value:.4f} -> {out / 'best_spec.json'}")
    return 0


def cmd_track(cfg: dict, out: Path, scores_path: str,
              calibration_path: str | None) -> int:
    p = Path(scores_path)
    if not p.exists():
        raise MissingDataError(f"scores file not found: {p}")
    data = np.load(p)
    thresholds = np.full(CLASS_COUNT, cfg["ensemble"]["threshold"])
    dmap = tracker.build_decision_map(data["fused"], thresholds)
    t = cfg["tracker"]
    tracks = tracker.glue_tracks(dmap, t["gap"], t["width"], t["min_duration"],
                                 t["min_area"])
    if calibration_path is not None:
        cp = Path(calibration_path)
        if not cp.exists():
            raise MissingDataError(f"calibration file not found: {cp}")
        table = tracker.CalibrationTable.from_json(cp.read_text())
        budget = tracker.ErrorBudget(t["alpha"], t["beta"])
        reports = tracker.apply_error_budget(tracks, budget, table)
    else:
        reports = [tracker.EventReport(tr, True, 0.0, 1.0, 0.0) for tr in tracks]
    tracker.write_event_reports(reports, out / "events.jsonl", _framing_cfg(cfg))
    admitted = sum(1 for r in reports if r.admitted)
    print(f"tracks: {len(tracks)} glued, {admitted} admitted -> {out / 'events.jsonl'}")
    return 0


def _bench_chunk(payload):
    ckpt_path, blob_file, start, stop = payload
    net = tensornet.load_checkpoint(ckpt_path)
    blobs = np.load(blob_file)["blobs"][start:stop]
    out = np.empty((blobs.shape[0], CLASS_COUNT))
    for i in range(blobs.shape[0]):
        out[i] = net.forward_batch(blobs[i:i + 1])[0][0]
    return out


def cmd_bench(cfg: dict, out: Path, workers: int) -> int:
    ft = _feature_cfg(cfg)
    spec = tensornet.reference_member_specs((ft.subwindows, ft.feature_dim))[0]
    net = tensornet.Network(spec, seed=cfg["seed"])
    b = cfg["bench"]
    rng = np.random.default_rng([cfg["seed"], 0xBE7C])
    blobs = rng.standard_normal((b["frames"], ft.subwindows, ft.feature_dim))

    def time_single() -> float:
        tic = time.perf_counter()
        for i in range(blobs.shape[0]):
            net.forward_batch(blobs[i:i + 1])
        return time.perf_counter() - tic

    singles = sorted(time_single() for _ in range(b["repeats"]))
    elapsed = singles[len(singles) // 2]
    result = {
        "frames": b["frames"],
        "single_worker": {"seconds": round(elapsed, 4),
                          "ms_per_frame": round(1e3 * elapsed / b["frames"], 4),
                          "frames_per_s": round(b["frames"] / elapsed, 2)},
    }
    if workers > 1:
        ckpt = out / "bench_member.net"
        tensornet.save_checkpoint(net, ckpt)
        blob_file = out / "bench_blobs.npz"
        np.savez(blob_file, blobs=blobs)
        edges = np.linspace(0, b["frames"], workers + 1, dtype=int)
        payloads = [(str(ckpt), str(blob_file), int(lo), int(hi))
                    for lo, hi in zip(edges[:-1], edges[1:])]
        tic = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_bench_chunk, payloads))
        multi = time.perf_counter() - tic
        result["multi_worker"] = {"workers": workers, "seconds": round(multi, 4),
                                  "ms_per_frame": round(1e3 * multi / b["frames"], 4),
                                  "frames_per_s": round(b["frames"] / multi, 2)}
    (out / "bench.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberwatch",
        description="vibration-event recognition pipeline for fiber-optic sensor streams")
    parser.add_argument("--config", help="JSON configuration document")
    parser.add_argument("--seed", type=int, help="override configured seed")
    parser.add_argument("--workers", type=int, help="worker processes for bench")
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
    sub.add_parser("bench", help="forward-pass throughput")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.workers is not None:
            cfg["workers"] = args.workers
        if args.out is not None:
            cfg["out"] = args.out
        out = Path(cfg["out"])
        _snapshot(cfg, out)
        if args.command == "gen":
            return cmd_gen(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out, args.data)
        if args.command == "eval":
            return cmd_eval(cfg, out, args.data, args.model, args.predictions)
        if args.command == "infer":
            return cmd_infer(cfg, out, args.stream, args.channels, args.model)
        if args.command == "analyze":
            return cmd_analyze(cfg, out, args.data)
        if args.command == "search":
            return cmd_search(cfg, out, args.data)
        if args.command == "track":
            return cmd_track(cfg, out, args.scores, args.calibration)
        if args.command == "bench":
            return cmd_bench(cfg, out, cfg["workers"])
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (MissingDataError, FileNotFoundError) as err:
        print(f"missing input: {err}", file=sys.stderr)
        return EXIT_MISSING
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
