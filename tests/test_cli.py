import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fiberwatch.cli import (EXIT_CONFIG, EXIT_MISSING, load_config,
                            merged_config, run, validate_config)
from fiberwatch.ensemble import EnsembleModel, save_ensemble
from fiberwatch.errors import ConfigurationError
from fiberwatch.features import NormalizerStats
from fiberwatch.tensornet import Network, reference_member_specs
from fiberwatch.training import one_hot


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
        from fiberwatch.errors import MissingDataError
        with pytest.raises(MissingDataError):
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

    def test_missing_config_exits_3(self, tmp_path):
        assert run(["--config", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "x"), "gen"]) == EXIT_MISSING


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


@pytest.fixture
def model(tmp_path):
    members = [Network(spec, seed=j) for j, spec in enumerate(reference_member_specs())]
    normalizer = NormalizerStats(np.zeros(64), np.ones(64))
    return save_ensemble(EnsembleModel(members, np.full((3, 7), 0.5), normalizer),
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


class TestBadConfigValues:
    STREAM = np.ones(2 * 5000, "<i2").tobytes()

    @pytest.mark.parametrize("section, key, value, fragment", [
        ("framing", "adapt_decay", -3, "adapt_decay"),
        ("framing", "adapt_decay", 1.5, "adapt_decay"),
        ("ensemble", "threshold", 0, "thresholds"),
        ("features", "subwindows", 7, "not divisible by 7"),
    ])
    def test_infer_exits_2(self, tmp_path, capsys, model, section, key, value, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = infer(tmp_path, model, self.STREAM, 2, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert one_config_error_line(capsys, fragment)

    def test_track_threshold_0_exits_2(self, tmp_path, capsys, rng):
        scores = tmp_path / "scores.npz"
        np.savez(scores, fused=rng.dirichlet(np.ones(7), size=(6, 4)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"threshold": 0}}))
        code = run(["--config", str(cfg), "--out", str(tmp_path / "track"), "track",
                    "--scores", str(scores)])
        assert code == EXIT_CONFIG
        assert one_config_error_line(capsys, "thresholds")


class TestBenchCommand:
    def test_bench_reports_throughput(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bench={"frames": 40, "repeats": 2})
        out = tmp_path / "bench"
        assert run(["--config", str(cfg), "--out", str(out), "bench"]) == 0
        result = json.loads((out / "bench.json").read_text())
        assert result["frames"] == 40
        assert result["single_worker"]["frames_per_s"] > 0
        assert "ms_per_frame" in result["single_worker"]

    def test_bench_multi_worker(self, tmp_path):
        cfg = write_config(tmp_path, bench={"frames": 24, "repeats": 1}, workers=2)
        out = tmp_path / "bench"
        assert run(["--config", str(cfg), "--out", str(out), "bench"]) == 0
        result = json.loads((out / "bench.json").read_text())
        assert result["multi_worker"]["workers"] == 2
