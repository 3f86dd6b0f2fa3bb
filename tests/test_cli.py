import csv
import errno
import hashlib
import io
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from fiberwatch import siggen, training
from fiberwatch.cli import (EXIT_CONFIG, EXIT_IO, EXIT_MISSING, EXIT_NUMERIC,
                            load_config, merged_config, run, validate_config)
from fiberwatch.ensemble import EnsembleModel, save_ensemble
from fiberwatch.errors import ConfigurationError
from fiberwatch.features import NormalizerStats
from fiberwatch.siggen import GroundTruthEvent
from fiberwatch.tensornet import Network, reference_member_specs
from fiberwatch.tracker import SignalEventTrack, calibrate_budget
from fiberwatch.training import one_hot

from test_tensornet import rewrite_header, with_layer


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def write_config(tmp_path, **overrides) -> Path:
    cfg = {"dataset": {"frames_per_class": 16, "scenarios_per_class": 4,
                       "channels": 2, "split_ratio": 3},
           "seed": 11}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParser:
    def test_back_to_back_runs_behave_as_in_fresh_processes(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["--config", str(cfg), "--seed", "5", "--out", "a", "gen"]) == 0
        with pytest.raises(SystemExit) as err:
            run(["--out", "b", "infer", "--stream", "s.i16", "--channels", "two",
                 "--model", "m.json"])
        assert err.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err
        assert run(["--out", "c", "track", "--scores", "missing.npz"]) == EXIT_MISSING
        assert run(["--config", str(cfg), "--out", "d", "gen"]) == 0
        assert run(["--config", str(cfg), "--seed", "11", "--out", "e", "gen"]) == 0
        seeds = [json.loads((tmp_path / d / "config.json").read_text())["seed"]
                 for d in "ade"]
        assert seeds == [5, 11, 11]
        assert (tmp_path / "d" / "manifest.jsonl").read_bytes() == \
            (tmp_path / "e" / "manifest.jsonl").read_bytes()
        assert not (tmp_path / "b").exists()


class TestConfigValidation:
    def test_defaults_validate(self):
        validate_config(merged_config(None))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config({"surprise": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config({"framing": {"frame_len": 2048}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config({"seed": "seven"})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigurationError):
            validate_config({"training": {"lr": True}})

    def test_missing_config_file_raises_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "absent.json"))


class TestGenCommand:
    def test_same_config_twice_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["--config", str(cfg), "--out", str(a), "gen"]) == 0
        assert run(["--config", str(cfg), "--out", str(b), "gen"]) == 0
        da, db = tree_digest(a), tree_digest(b)
        assert da == db

    def test_different_seed_differs(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run(["--config", str(cfg), "--out", str(a), "gen"])
        run(["--config", str(cfg), "--out", str(b), "--seed", "99", "gen"])
        assert tree_digest(a) != tree_digest(b)

    def test_snapshot_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ds"
        run(["--config", str(cfg), "--out", str(out), "gen"])
        snap = json.loads((out / "config.json").read_text())
        assert snap["seed"] == 11
        validate_config(snap)

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_section": {}}))
        assert run(["--config", str(bad), "--out", str(tmp_path / "x"), "gen"]) \
            == EXIT_CONFIG

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["--config", str(bad), "gen"]) == EXIT_CONFIG

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert run(["--config", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "x"), "gen"]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("missing input:") and "none.json" in err
        assert len(err.strip().splitlines()) == 1

    def test_output_path_that_is_a_file_is_no_missing_input(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["--config", str(write_config(tmp_path)), "--out", str(out),
                    "gen"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("input/output error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("error", [PermissionError(errno.EACCES, "Permission denied"),
                                       OSError(errno.ENOSPC, "No space left on device")])
    def test_failed_write_is_no_missing_input(self, tmp_path, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(siggen, "save_dataset", fail)
        assert run(["--config", str(write_config(tmp_path)), "--out",
                    str(tmp_path / "ds"), "gen"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("input/output error:") and len(err.splitlines()) == 1


class TestEvalCommand:
    def test_prestored_predictions_equal_to_labels(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ds = tmp_path / "ds"
        assert run(["--config", str(cfg), "--out", str(ds), "gen"]) == 0

        # read the manifest's test split and store perfect predictions
        labels = []
        with open(ds / "manifest.jsonl") as fh:
            for line in fh:
                e = json.loads(line)
                if e["split"] == "test":
                    labels.append(e["class_id"])
        preds = one_hot(np.array(labels))
        pred_file = tmp_path / "preds.npy"
        np.save(pred_file, preds)

        out = tmp_path / "eval"
        code = run(["--config", str(cfg), "--out", str(out), "eval",
                    "--data", str(ds), "--predictions", str(pred_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert "accuracy 1.0000" in captured.out
        report = json.loads((out / "metrics.json").read_text())
        assert report["accuracy"] == 1.0

    def test_missing_dataset_exits_3(self, tmp_path):
        out = tmp_path / "eval"
        code = run(["--out", str(out), "eval", "--data", str(tmp_path / "nope"),
                    "--predictions", str(tmp_path / "nope.npy")])
        assert code == EXIT_MISSING

    def test_unbalanced_split_reports_precision_and_f1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset={"frames_per_class": 18,
                                              "scenarios_per_class": 4, "channels": 2,
                                              "split_ratio": 3},
                           training={"epochs": 1})
        ds, model = tmp_path / "ds", tmp_path / "model"
        assert run(["--config", str(cfg), "--out", str(ds), "gen"]) == 0
        assert run(["--config", str(cfg), "--out", str(model), "train", "--data",
                    str(ds)]) == 0
        assert run(["--config", str(cfg), "--out", str(tmp_path / "eval"), "eval",
                    "--data", str(ds), "--model", str(model / "ensemble.json")]) == 0
        counts = np.loadtxt(tmp_path / "eval" / "confusion_counts.csv", delimiter=",")
        assert len(set(counts.sum(axis=1))) > 1          # the test split is unbalanced
        report = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        predicted = counts.sum(axis=0) > 0
        assert predicted.any()
        for c in np.nonzero(predicted)[0]:
            assert report["precision_pct"][c] is not None
        assert all(v is not None for v in report["f1_pct"])
        assert "prec." in capsys.readouterr().out


class TestTrainCommand:
    def test_relabel_fine_tune_continues_the_epoch_column(self, tmp_path, dataset):
        cfg = write_config(tmp_path, training={"epochs": 4, "relabel": True,
                                               "relabel_confidence": 0.0})
        out = tmp_path / "model"
        assert run(["--config", str(cfg), "--out", str(out), "train", "--data",
                    str(dataset)]) == 0
        assert (out / "relabel.jsonl").read_text()      # labels changed: fine-tune ran
        for j in (1, 2, 3):
            with open(out / f"history_c{j}.csv") as fh:
                epochs = [int(row["epoch"]) for row in csv.DictReader(fh)]
            assert epochs == list(range(5))


def manifest_test_entries(dataset) -> list[dict]:
    with open(dataset / "manifest.jsonl") as fh:
        return [e for e in map(json.loads, fh) if e["split"] == "test"]


class TestEvalFeaturizesWhatItScores:
    @pytest.fixture
    def featurized(self, monkeypatch):
        """The number of cells of every stream_features call."""
        calls = []
        inner = training.stream_features

        def counted(stream, *args, **kwargs):
            blobs, cells = inner(stream, *args, **kwargs)
            calls.append(len(cells))
            return blobs, cells
        monkeypatch.setattr(training, "stream_features", counted)
        return calls

    def test_predictions_featurize_nothing(self, tmp_path, dataset, featurized):
        preds = tmp_path / "preds.npy"
        np.save(preds, np.full((len(manifest_test_entries(dataset)), 7), 1 / 7))
        assert run(["--out", str(tmp_path / "eval"), "eval", "--data", str(dataset),
                    "--predictions", str(preds)]) == 0
        assert featurized == []

    def test_model_featurizes_the_test_split_only(self, tmp_path, dataset, model,
                                                  featurized):
        test = manifest_test_entries(dataset)
        assert evaluate(tmp_path, dataset, model) == 0
        assert sum(featurized) == len(test)
        assert len(featurized) == len({e["scenario"] for e in test})


class TestEvalMalformedPredictions:
    def predictions(self, tmp_path, dataset, payload) -> int:
        path = tmp_path / "preds.npy"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            np.save(path, payload)
        return run(["--out", str(tmp_path / "eval"), "eval", "--data", str(dataset),
                    "--predictions", str(path)])

    @pytest.mark.parametrize("payload", [
        b"", b"7 bytes", pickle.dumps({"fused": 1}), b"\x93NUMPY\x01\x00v\x00{'descr': '<f8'"],
        ids=["empty", "text", "pickle", "truncated-header"])
    def test_not_an_npy_array_exits_2(self, tmp_path, capsys, dataset, payload):
        assert self.predictions(tmp_path, dataset, payload) == EXIT_CONFIG
        assert one_config_error_line(capsys, "not a .npy array")

    def test_npz_archive_exits_2(self, tmp_path, capsys, dataset):
        archive = io.BytesIO()
        np.savez(archive, fused=np.zeros((len(manifest_test_entries(dataset)), 7)))
        assert self.predictions(tmp_path, dataset, archive.getvalue()) == EXIT_CONFIG
        assert one_config_error_line(capsys, "an .npz archive")

    @pytest.mark.parametrize("make", [
        lambda n: np.zeros((n, 6)), lambda n: np.zeros((n + 1, 7)), lambda n: np.zeros(7),
        lambda n: np.zeros((n, 7, 1)), lambda n: np.full((n, 7), "a"),
        lambda n: np.zeros((n, 7), dtype=complex)],
        ids=["6-classes", "extra-row", "1-d", "3-d", "strings", "complex"])
    def test_wrong_shape_or_type_exits_2(self, tmp_path, capsys, dataset, make):
        n = len(manifest_test_entries(dataset))
        assert self.predictions(tmp_path, dataset, make(n)) == EXIT_CONFIG
        assert one_config_error_line(capsys, f"expected a numeric array of shape ({n}, 7)")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_predictions_exit_4(self, tmp_path, capsys, dataset, bad):
        fused = np.full((len(manifest_test_entries(dataset)), 7), 1 / 7)
        fused[1, 2] = bad
        assert self.predictions(tmp_path, dataset, fused) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "not all finite" in err
        assert len(err.strip().splitlines()) == 1


@pytest.fixture
def model(tmp_path):
    members = [Network(spec, seed=j) for j, spec in enumerate(reference_member_specs())]
    normalizer = NormalizerStats(np.zeros(64), np.ones(64))
    return save_ensemble(EnsembleModel(members, normalizer),
                         tmp_path / "model" / "ensemble.json")


def infer(tmp_path, model, payload: bytes, channels: int, *config):
    stream = tmp_path / "stream.i16"
    stream.write_bytes(payload)
    return run([*config, "--out", str(tmp_path / "infer"), "infer", "--stream",
                str(stream), "--channels", str(channels), "--model", str(model)])


def one_config_error_line(capsys, fragment: str) -> bool:
    err = capsys.readouterr().err
    return (err.startswith("configuration error:") and fragment in err
            and len(err.strip().splitlines()) == 1)


class TestInferMalformedStream:
    @pytest.mark.parametrize("payload", [np.zeros(8 * 3000 + 1, "<i2").tobytes(),
                                         np.zeros(8 * 3000, "<i2").tobytes() + b"\0"])
    def test_samples_not_divisible_by_channels_exits_2(self, tmp_path, capsys, model,
                                                       payload):
        assert infer(tmp_path, model, payload, channels=8) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "8 channels" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("samples", [0, 1, 100, 2047])
    def test_stream_shorter_than_one_frame_exits_3(self, tmp_path, capsys, model,
                                                   samples):
        payload = np.ones(2 * samples, "<i2").tobytes()
        assert infer(tmp_path, model, payload, channels=2) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("missing input:") and "fewer than one frame" in err
        assert len(err.strip().splitlines()) == 1


def test_infer_rejects_parameters_beyond_float32(tmp_path, capsys):
    members = [Network(spec, seed=j) for j, spec in enumerate(reference_member_specs())]
    members[1].head.w[0, 0] = 1e300
    model = save_ensemble(EnsembleModel(members, NormalizerStats(np.zeros(64), np.ones(64))),
                          tmp_path / "model" / "ensemble.json")
    assert infer(tmp_path, model, np.ones(2 * 5000, "<i2").tobytes(), 2) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.strip() == "numeric failure: parameters exceed the range of float32"


class TestBadConfigValues:
    STREAM = np.ones(2 * 5000, "<i2").tobytes()

    @pytest.mark.parametrize("section, key, value, fragment", [
        ("framing", "adapt_decay", -3, "adapt_decay"),
        ("framing", "adapt_decay", 1.5, "adapt_decay"),
        ("ensemble", "threshold", 0, "ensemble.threshold"),
        ("features", "subwindows", 7, "not divisible by 7"),
    ])
    def test_infer_exits_2(self, tmp_path, capsys, model, section, key, value, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = infer(tmp_path, model, self.STREAM, 2, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert one_config_error_line(capsys, fragment)

    @pytest.mark.parametrize("key, value", [("scenarios_per_class", 0), ("channels", 0),
                                            ("split_ratio", -1), ("frames_per_class", 0)])
    def test_gen_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["dataset"][key] = value
        cfg.write_text(json.dumps(doc))
        assert run(["--config", str(cfg), "--out", str(tmp_path / "ds"), "gen"]) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, f"{key} must be >=")

    @pytest.mark.parametrize("section, key, value", [
        ("search", "max_frames_per_class", 0),
        ("features", "bank_bands", 0),
        ("embedding", "pca_components", 0),
        ("embedding", "iterations", 0),
        ("training", "relabel_confidence", 2.0),
        ("tracker", "min_area", -1),
        ("ensemble", "fusion", "mean"),
        ("training", "lr", float("nan")),
        ("framing", "band_lo_hz", 0.0),
    ])
    def test_any_section_checked_before_gen_runs(self, tmp_path, capsys, section, key,
                                                 value):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc[section] = {key: value}
        cfg.write_text(json.dumps(doc))      # writes NaN as the token Python's json reads
        out = tmp_path / "ds"
        assert run(["--config", str(cfg), "--out", str(out), "gen"]) == EXIT_CONFIG
        assert one_config_error_line(capsys, f"configuration error: {section}.{key} ")
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run(["--config", str(write_config(tmp_path)), "--seed", "-1",
                    "--out", str(out), "gen"]) == EXIT_CONFIG
        assert one_config_error_line(capsys, "seed must be >= 0, got -1")
        assert not out.exists()

    def test_non_finite_learning_rate_trains_nothing(self, tmp_path, capsys, dataset):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"training": {"lr": NaN, "epochs": 1}}')
        out = tmp_path / "model"
        assert run(["--config", str(cfg), "--out", str(out), "train", "--data",
                    str(dataset)]) == EXIT_CONFIG
        assert one_config_error_line(capsys, "training.lr must be finite, got nan")
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -3])
    def test_train_batch_size_exits_2(self, tmp_path, capsys, dataset, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"training": {"batch_size": value}}))
        assert run(["--config", str(cfg), "--out", str(tmp_path / "model"), "train",
                    "--data", str(dataset)]) == EXIT_CONFIG
        assert one_config_error_line(capsys, "batch_size must be >= 1")

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff\xfe"}')
        assert run(["--config", str(cfg), "--out", str(tmp_path / "ds"), "gen"]) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, "config is not valid JSON")

    def test_track_threshold_0_exits_2(self, tmp_path, capsys, rng):
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=rng.dirichlet(np.ones(7), size=(6, 4)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"threshold": 0}}))
        code = run(["--config", str(cfg), "--out", str(tmp_path / "track"), "track",
                    "--scores", str(scores)])
        assert code == EXIT_CONFIG
        assert one_config_error_line(capsys, "ensemble.threshold")

    # Each command with inputs that do not exist: only a configuration
    # checked first ends it with exit 2 instead of 3.
    COMMANDS = {"gen": [], "train": ["--data", "ds"],
                "eval": ["--data", "ds", "--predictions", "p.npy"],
                "infer": ["--stream", "s.i16", "--channels", "2", "--model", "m.json"],
                "analyze": ["--data", "ds"], "search": ["--data", "ds"],
                "track": ["--scores", "s.npz"]}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("doc, fragment", [
        ({"features": {"subwindows": 32}}, "features.bank_bands, band_lo_hz and "
         "band_hi_hz: band [5.0, 18.2) Hz contains no spectrum bins of 64-sample"),
        ({"framing": {"frame_size": 64}}, "features.subwindows: 16 subwindows of a "
         "64-sample frame hold 4 samples each, fewer than 8"),
        ({"features": {"band_lo_hz": 5.0, "band_hi_hz": 5.0}}, "features.bank_bands, "
         "band_lo_hz and band_hi_hz: band [5.0, 5.0) Hz contains no spectrum bins"),
        ({"framing": {"band_lo_hz": 1e-06}}, "framing.band_lo_hz and band_hi_hz "
         "(1e-06, 800.0) gives a singular filter"),
    ], ids=["subwindows-32", "frame-64", "empty-bank-band", "singular-filter"])
    def test_preprocessing_checked_before_any_command_runs(self, tmp_path, capsys,
                                                           monkeypatch, command, doc,
                                                           fragment):
        monkeypatch.chdir(tmp_path)
        cfg = config_file(tmp_path, doc)
        assert run(["--config", cfg, "--out", "out", command, *self.COMMANDS[command]]) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, f"configuration error: {fragment}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate, code, start", [
        (0, EXIT_CONFIG, "configuration error: embedding.learning_rate must be positive, "
         "got 0"),
        (-5, EXIT_CONFIG, "configuration error: embedding.learning_rate must be "
         "positive, got -5"),
        (1e300, EXIT_NUMERIC, "numeric failure: the t-SNE embedding is not finite"),
    ])
    def test_analyze_learning_rate(self, tmp_path, capsys, dataset, rate, code, start):
        cfg = config_file(tmp_path, {"embedding": {"learning_rate": rate}})
        out = tmp_path / "analyze"
        assert run(["--config", cfg, "--out", str(out), "analyze", "--data",
                    str(dataset)]) == code
        err = capsys.readouterr().err
        assert err.startswith(start) and len(err.strip().splitlines()) == 1
        assert out.exists() == (code == EXIT_NUMERIC)
        assert not (out / "embedding.csv").exists()


class TestDivergentTraining:
    @pytest.fixture(scope="class")
    def tiny_dataset(self, tmp_path_factory):
        """28 frames, so that one batch of 64 holds the whole training split."""
        root = tmp_path_factory.mktemp("tiny_dataset")
        cfg = config_file(root, {"dataset": {"frames_per_class": 4,
                                             "scenarios_per_class": 2, "channels": 2,
                                             "split_ratio": 1}})
        assert run(["--config", cfg, "--out", str(root / "ds"), "gen"]) == 0
        return root / "ds"

    @pytest.mark.parametrize("lr, message", [
        # The test scores overflow float64.
        (1e300, "numeric failure: test scores are not all finite at epoch 0"),
        # The scores stay finite, but `infer` would refuse the float32 copies.
        (1e40, "numeric failure: parameters exceed the range of float32"),
    ])
    def test_train_writes_no_member_that_infer_refuses(self, tmp_path, capsys,
                                                       tiny_dataset, lr, message):
        cfg = config_file(tmp_path, {"training": {"lr": lr, "epochs": 1}})
        out = tmp_path / "model"
        assert run(["--config", cfg, "--out", str(out), "train", "--data",
                    str(tiny_dataset)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.strip() == message
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dataset")
    cfg = write_config(root)
    assert run(["--config", str(cfg), "--out", str(root / "ds"), "gen"]) == 0
    return root / "ds"


def evaluate(tmp_path, dataset, model, *config):
    return run([*config, "--out", str(tmp_path / "eval"), "eval", "--data", str(dataset),
                "--model", str(model)])


def config_file(tmp_path, doc) -> str:
    path = tmp_path / "override.json"
    path.write_text(json.dumps(doc))
    return str(path)


def first_entry(change=None, drop=None):
    """A manifest edit: the first entry updated by ``change``, less ``drop``."""
    def edit(raw: bytes) -> bytes:
        first, rest = raw.split(b"\n", 1)
        entry = {**json.loads(first), **(change or {})}
        return json.dumps({k: v for k, v in entry.items() if k != drop}).encode() \
            + b"\n" + rest
    return edit


class TestMalformedDataset:
    @pytest.mark.parametrize("name, edit, fragment", [
        ("manifest.jsonl", lambda b: b"{not json\n" + b, "line 1: malformed"),
        ("manifest.jsonl", lambda b: b + b'{"frame": "\xff"}\n', "UnicodeDecodeError"),
        ("manifest.jsonl", lambda b: b"", "holds no entries"),
        ("manifest.jsonl", first_entry({"frame": 9999}), "frame is 9999"),
        ("manifest.jsonl", first_entry({"channel": 2}), "channel is 2"),
        ("manifest.jsonl", first_entry({"frame": 3.0}), "frame is 3.0"),
        ("manifest.jsonl", first_entry({"class_id": 9}), "class_id is 9"),
        ("manifest.jsonl", first_entry({"split": "valid"}), "split is 'valid'"),
        ("manifest.jsonl", first_entry({"scenario": "c9_s000"}), "'c9_s000' is not in"),
        ("manifest.jsonl", first_entry(drop="channel"), "KeyError('channel')"),
        ("meta.json", lambda b: b[:-3], "meta.json: malformed"),
        ("meta.json", lambda b: b.replace(b'"frame_size"', b'"frame"'),
         "KeyError('frame_size')"),
        ("meta.json", lambda b: b.replace(b'"channels": 2', b'"channels": "2"'),
         "meta.json: malformed"),
    ], ids=["not-json", "not-utf8", "empty", "frame-9999", "channel-2", "frame-float",
            "class-9", "split-valid", "unknown-scenario", "no-channel", "meta-not-json",
            "meta-no-frame_size", "meta-channels-str"])
    def test_train_exits_2(self, tmp_path, capsys, dataset, name, edit, fragment):
        data = shutil.copytree(dataset, tmp_path / "ds")
        path = data / name
        path.write_bytes(edit(path.read_bytes()))
        assert run(["--out", str(tmp_path / "model"), "train", "--data", str(data)]) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, fragment)

    def test_stream_shorter_than_meta_says_exits_2(self, tmp_path, capsys, dataset):
        data = shutil.copytree(dataset, tmp_path / "ds")
        stream = data / "scenarios" / "c0_s000.i16"
        stream.write_bytes(stream.read_bytes()[:-400])
        assert run(["--out", str(tmp_path / "model"), "train", "--data", str(data)]) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, "c0_s000.i16: holds")

    def test_no_test_entries_exits_2(self, tmp_path, capsys, dataset):
        data = shutil.copytree(dataset, tmp_path / "ds")
        manifest = data / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"test"', '"train"'))
        assert run(["--out", str(tmp_path / "model"), "train", "--data", str(data)]) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, "both train and test entries")


class TestModelPipeline:
    STREAM = np.ones(2 * 5000, "<i2").tobytes()

    def test_descriptor_carries_the_pipeline(self, model):
        desc = json.loads(model.read_text())
        assert desc["pipeline"]["features"]["clip"] == 8.0
        assert desc["pipeline"]["framing"]["adapt_decay"] == 0.05

    def test_infer_with_other_clip_exits_2(self, tmp_path, capsys, model):
        cfg = config_file(tmp_path, {"features": {"clip": 2.0}})
        assert infer(tmp_path, model, self.STREAM, 2, "--config", cfg) == EXIT_CONFIG
        assert one_config_error_line(capsys, "features.clip is 2.0 here, 8.0 in the model")
        assert not (tmp_path / "infer" / "scores.npz").exists()

    def test_eval_with_other_adapt_decay_exits_2(self, tmp_path, capsys, dataset, model):
        cfg = config_file(tmp_path, {"framing": {"adapt_decay": 0.1}})
        assert evaluate(tmp_path, dataset, model, "--config", cfg) == EXIT_CONFIG
        assert one_config_error_line(capsys, "framing.adapt_decay")

    def test_train_with_other_frame_size_exits_2(self, tmp_path, capsys, dataset):
        cfg = config_file(tmp_path, {"framing": {"frame_size": 4096}})
        code = run(["--config", cfg, "--out", str(tmp_path / "train"), "train",
                    "--data", str(dataset)])
        assert code == EXIT_CONFIG
        assert one_config_error_line(capsys, "frames of 2048 samples")

    @pytest.fixture
    def bare_model(self, model):
        desc = json.loads(model.read_text())
        del desc["normalizer"]
        model.write_text(json.dumps(desc))
        return model

    def test_infer_without_normalizer_exits_2(self, tmp_path, capsys, bare_model):
        assert infer(tmp_path, bare_model, self.STREAM, 2) == EXIT_CONFIG
        assert one_config_error_line(capsys, "KeyError('normalizer')")

    def test_eval_without_normalizer_exits_2(self, tmp_path, capsys, dataset, bare_model):
        assert evaluate(tmp_path, dataset, bare_model) == EXIT_CONFIG
        assert one_config_error_line(capsys, "KeyError('normalizer')")

    def test_descriptor_with_non_finite_pipeline_value_exits_2(self, tmp_path, capsys,
                                                              model):
        desc = json.loads(model.read_text())
        desc["pipeline"]["features"]["clip"] = float("inf")
        model.write_text(json.dumps(desc))      # writes the token Infinity
        assert infer(tmp_path, model, self.STREAM, 2) == EXIT_CONFIG
        assert one_config_error_line(capsys, "pipeline.features.clip must be finite, got inf")

    def test_descriptor_without_pipeline_scores_with_defaults(self, tmp_path, model):
        assert infer(tmp_path, model, self.STREAM, 2) == 0
        before = np.load(tmp_path / "infer" / "scores.npz")["fused"]
        desc = json.loads(model.read_text())
        del desc["pipeline"]
        model.write_text(json.dumps(desc))
        assert infer(tmp_path, model, self.STREAM, 2) == 0
        assert np.array_equal(np.load(tmp_path / "infer" / "scores.npz")["fused"], before)

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys, model):
        member = model.with_suffix(".c2.net")
        member.write_bytes(member.read_bytes()[:-5])
        assert infer(tmp_path, model, self.STREAM, 2) == EXIT_CONFIG
        assert one_config_error_line(capsys, "truncated")

    # Layers 0, 2 and 6 of a reference member: its first conv, first pool
    # and dense layer.
    @pytest.mark.parametrize("edit", [with_layer(0, stride=0), with_layer(2, window=[0, 2]),
                                      with_layer(0, kernel=[5, 0]), with_layer(6, width=0)])
    def test_checkpoint_with_a_zero_size_exits_2(self, tmp_path, capsys, model, edit):
        rewrite_header(model.with_suffix(".c2.net"), edit)
        assert infer(tmp_path, model, self.STREAM, 2) == EXIT_CONFIG
        assert one_config_error_line(capsys, "must be positive integers, got")


def track(tmp_path, scores) -> int:
    return run(["--out", str(tmp_path / "track"), "track", "--scores", str(scores)])


class TestTrackMalformedCalibration:
    TABLE = {"thresholds": [0.0, 0.5, 0.8], "alpha_hat": [0.6, 0.3, 0.0],
             "beta_hat": [0.0, 0.2, 0.5]}

    def track(self, tmp_path, rng, text) -> int:
        scores, table = tmp_path / "scores.npz", tmp_path / "calibration.json"
        np.savez(scores, fused=rng.dirichlet(np.ones(7), size=(6, 4)))
        table.write_text(text)
        return run(["--out", str(tmp_path / "track"), "track", "--scores", str(scores),
                    "--calibration", str(table)])

    def test_well_formed_table_is_applied(self, tmp_path, rng):
        assert self.track(tmp_path, rng, json.dumps(self.TABLE)) == 0

    @pytest.mark.parametrize("text", [
        "{not json", "", "[1, 2]", json.dumps({"thresholds": [0.5], "alpha_hat": [0.1]}),
        json.dumps({**TABLE, "beta_hat": ["a", "b", "c"]}),
        json.dumps({**TABLE, "alpha_hat": {"a": 1}})],
        ids=["not-json", "empty", "list", "no-beta_hat", "strings", "object"])
    def test_not_a_table_exits_2(self, tmp_path, capsys, rng, text):
        assert self.track(tmp_path, rng, text) == EXIT_CONFIG
        assert one_config_error_line(capsys, "calibration.json: not a JSON table")

    @pytest.mark.parametrize("change", [
        {"alpha_hat": [0.6, 0.3]}, {"thresholds": 0.5, "alpha_hat": 0.1, "beta_hat": 0.0},
        {"thresholds": [], "alpha_hat": [], "beta_hat": []},
        {"beta_hat": [[0.0], [0.2], [0.5]]}],
        ids=["short-alpha_hat", "scalars", "empty", "nested-beta_hat"])
    def test_arrays_of_other_lengths_exit_2(self, tmp_path, capsys, rng, change):
        assert self.track(tmp_path, rng, json.dumps({**self.TABLE, **change})) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, "must be non-empty lists of one length")

    # apply_error_budget takes the first row within alpha: the reversed
    # table would pick 0.8, not 0.5, and drop tracks without a word.
    @pytest.mark.parametrize("change", [
        {k: v[::-1] for k, v in TABLE.items()}, {"thresholds": [0.0, 0.5, 0.5]},
        {"alpha_hat": [0.6, 0.3, 0.4]}, {"beta_hat": [0.0, 0.2, 0.1]}],
        ids=["reversed", "repeated-threshold", "alpha_hat-rises", "beta_hat-falls"])
    def test_rows_out_of_order_exit_2(self, tmp_path, capsys, rng, change):
        assert self.track(tmp_path, rng, json.dumps({**self.TABLE, **change})) \
            == EXIT_CONFIG
        assert one_config_error_line(capsys, "calibration.json: thresholds must strictly")

    def test_calibrate_budget_table_is_applied(self, tmp_path, rng):
        tracks = [SignalEventTrack(c, 10 * c, 10 * c + 5, 0, 1, 0, conf, 12)
                  for c, conf in ((1, 0.9), (2, 0.6), (3, 0.6), (4, 0.3))]
        table = calibrate_budget(tracks, [GroundTruthEvent(1, 10, 15, 0, 1)])
        assert self.track(tmp_path, rng, table.to_json()) == 0

    @pytest.mark.parametrize("change", [
        {"thresholds": [float("nan")] * 3}, {"alpha_hat": [0.6, float("inf"), 0.0]},
        {"beta_hat": [0.0, 0.2, -float("inf")]}],
        ids=["nan-thresholds", "inf-alpha_hat", "minus-inf-beta_hat"])
    def test_non_finite_values_exit_4(self, tmp_path, capsys, rng, change):
        assert self.track(tmp_path, rng, json.dumps({**self.TABLE, **change})) \
            == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "calibration.json" in err
        assert "not all finite" in err and len(err.strip().splitlines()) == 1


class TestTrackMalformedScores:
    def test_missing_scores_exit_3(self, tmp_path, capsys):
        assert track(tmp_path, tmp_path / "absent.npz") == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("missing input:") and "absent.npz" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("payload", [b"fused", b"PK\x03\x04 not really a zip"])
    def test_not_an_npz_exits_2(self, tmp_path, capsys, payload):
        scores = tmp_path / "scores.npz"
        scores.write_bytes(payload)
        assert track(tmp_path, scores) == EXIT_CONFIG
        assert one_config_error_line(capsys, "scores.npz")

    def test_missing_fused_array_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.npz"
        np.savez(scores, decisions=np.zeros((6, 4), dtype=np.int64))
        assert track(tmp_path, scores) == EXIT_CONFIG
        assert one_config_error_line(capsys, "'fused'")

    @pytest.mark.parametrize("shape", [(6, 4), (6, 4, 5), (6, 4, 7, 1)])
    def test_wrong_shape_exits_2(self, tmp_path, capsys, shape):
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=np.full(shape, 0.5))
        assert track(tmp_path, scores) == EXIT_CONFIG
        assert one_config_error_line(capsys, "shape")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_exit_4(self, tmp_path, capsys, rng, bad):
        fused = rng.dirichlet(np.ones(7), size=(6, 4))
        fused[2, 1, 3] = bad
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=fused)
        assert track(tmp_path, scores) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "not all finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("dtype", [np.complex128, np.int64, np.bool_])
    def test_scores_that_are_not_real_floats_exit_2(self, tmp_path, capsys, rng, dtype):
        fused = rng.dirichlet(np.ones(7), size=(6, 4)).astype(dtype)
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=fused)
        assert track(tmp_path, scores) == EXIT_CONFIG
        assert one_config_error_line(capsys, f"'fused' holds {fused.dtype} values")

    @pytest.mark.parametrize("low, high", [(-1.0, -1.0), (0.0, 1.5), (-1e-3, 0.5)])
    def test_scores_outside_unit_interval_exit_2(self, tmp_path, capsys, rng, low, high):
        fused = rng.dirichlet(np.ones(7), size=(6, 4))
        fused[0, 0, :2] = low, high
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=fused)
        assert track(tmp_path, scores) == EXIT_CONFIG
        assert one_config_error_line(capsys, "outside [0, 1]")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_scores_are_tracked(self, tmp_path, rng, dtype):
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=rng.dirichlet(np.ones(7), size=(6, 4)).astype(dtype))
        assert track(tmp_path, scores) == 0


class TestTrackOperatingPoint:
    TABLE = TestTrackMalformedCalibration.TABLE
    TRACK_KEYS = ["class_id", "frame_begin", "frame_end", "chan_lo", "chan_hi",
                  "center_channel", "mean_confidence", "admitted", "start_s", "end_s"]

    def events(self, tmp_path, *calibration) -> list[dict]:
        fused = np.full((20, 4, 7), 0.01)
        fused[..., 0] = 0.94
        fused[5:13, 1:3] = [0.04, 0.01, 0.01, 0.01, 0.01, 0.01, 0.91]
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=fused)
        assert run(["--out", str(tmp_path / "track"), "track", "--scores", str(scores),
                    *calibration]) == 0
        text = (tmp_path / "track" / "events.jsonl").read_text()
        return [json.loads(line) for line in text.splitlines()]

    def test_calibrated_rows_carry_the_budget_pick(self, tmp_path):
        table = tmp_path / "calibration.json"
        table.write_text(json.dumps(self.TABLE))
        events = self.events(tmp_path, "--calibration", str(table))
        # tracker.alpha 0.5 admits the first threshold with alpha_hat <= 0.5.
        assert [(e["class_id"], e["admitted"], e["threshold"], e["expected_alpha"],
                 e["expected_beta"]) for e in events] == [(6, True, 0.5, 0.3, 0.2)]
        assert list(events[0]) == self.TRACK_KEYS + ["threshold", "expected_alpha",
                                                     "expected_beta"]

    def test_uncalibrated_rows_have_no_operating_point(self, tmp_path):
        events = self.events(tmp_path)
        assert [list(e) for e in events] == [self.TRACK_KEYS]
