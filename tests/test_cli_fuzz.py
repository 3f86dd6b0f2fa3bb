"""Corrupted model descriptors, member checkpoints, score files, stored
predictions, calibration tables and dataset files, and out-of-range
configuration values, must end with a documented exit code and, when
non-zero, one line on stderr."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiberwatch.cli import DEFAULTS, run
from fiberwatch.ensemble import EnsembleModel, save_ensemble
from fiberwatch.features import NormalizerStats
from fiberwatch.tensornet import Network, reference_member_specs
from fiberwatch.tracker import CalibrationTable

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
# A configuration under which every command runs in about a second on the
# fixture's dataset (28 frames).
TINY = {"dataset": {"frames_per_class": 4, "scenarios_per_class": 2, "channels": 2,
                    "split_ratio": 1},
        "training": {"epochs": 1},
        "embedding": {"perplexity": 5.0, "iterations": 20},
        "search": {"population": 4, "generations": 1, "epochs": 1,
                   "max_frames_per_class": 2}}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    members = [Network(spec, seed=j) for j, spec in enumerate(reference_member_specs())]
    model = save_ensemble(EnsembleModel(members, NormalizerStats(np.zeros(64), np.ones(64))),
                          root / "model" / "ensemble.json")
    stream = root / "stream.i16"
    stream.write_bytes(np.random.default_rng(0).normal(0, 300, 2 * 3100)
                       .astype("<i2").tobytes())
    scores = root / "scores.npz"
    np.savez(scores, fused=np.random.default_rng(1).dirichlet(np.ones(7), size=(5, 3)))
    dataset = root / "ds"
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    assert run_captured(["--config", config, "--out", dataset, "gen"])[0] == 0
    predictions = root / "predictions.npy"
    np.save(predictions, np.random.default_rng(2).dirichlet(np.ones(7), size=14))
    calibration = root / "calibration.json"
    calibration.write_text(CalibrationTable(np.array([0.0, 0.5, 0.8]),
                                            np.array([0.6, 0.3, 0.0]),
                                            np.array([0.0, 0.2, 0.5])).to_json())
    return {"root": root, "model": model, "stream": stream, "scores": scores,
            "checkpoint": model.with_suffix(".c2.net"), "dataset": dataset, "config": config,
            "predictions": predictions, "calibration": calibration,
            "meta": dataset / "meta.json", "manifest": dataset / "manifest.jsonl"}


def run_captured(argv):
    """Exit code and stderr of one CLI run; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run([str(a) for a in argv])
    return code, err.getvalue()


def corrupt(raw: bytes, mode: str, at: int, byte: int) -> bytes:
    at %= len(raw) + 1
    if mode == "truncate":
        return raw[:at]
    if mode == "insert":
        return raw[:at] + bytes([byte]) + raw[at:]
    at = min(at, len(raw) - 1)
    return raw[:at] + bytes([raw[at] ^ (byte or 1)]) + raw[at + 1:]


json_values = st.one_of(st.none(), st.booleans(), st.integers(-10, 10 ** 6),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.text(max_size=4), st.lists(st.integers(-2, 9), max_size=3))


def replace_leaf(doc, path: list[int], value):
    """Replace the value that ``path`` steers to (each step picks a child)."""
    node = doc
    for step in path:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = list(keys)[step % len(keys)]
        if not isinstance(node[key], (dict, list)) or not node[key]:
            node[key] = value
            return doc
        node = node[key]
    return doc


def assert_clean(code: int, err: str):
    assert code in EXIT_CODES, err
    assert "Traceback" not in err
    if code:
        assert len(err.strip().splitlines()) == 1, err


def infer_argv(files):
    return ["--out", files["root"] / "infer", "infer", "--stream", files["stream"],
            "--channels", 2, "--model", files["model"]]


def argv_reading(files, target):
    """A command that reads the ``target`` file."""
    if target == "scores":
        return ["--out", files["root"] / "track", "track", "--scores", files["scores"]]
    if target == "calibration":
        return ["--out", files["root"] / "track", "track", "--scores", files["scores"],
                "--calibration", files["calibration"]]
    if target == "predictions":
        return ["--out", files["root"] / "eval", "eval", "--data", files["dataset"],
                "--predictions", files["predictions"]]
    if target in ("meta", "manifest"):
        return ["--out", files["root"] / "eval", "eval", "--data", files["dataset"],
                "--model", files["model"]]
    return infer_argv(files)


def argv_reading_section(files, section):
    """A command that reads the configuration's ``section``."""
    data = ["--data", files["dataset"]]
    return {"seed": ["gen"], "dataset": ["gen"], "framing": ["train", *data],
            "features": ["train", *data], "training": ["train", *data],
            "ensemble": infer_argv(files)[2:], "embedding": ["analyze", *data],
            "search": ["search", *data],
            "tracker": argv_reading(files, "calibration")[2:]}[section]


def corrupted_run_ends_cleanly(files, target, mode, at, byte):
    path = files[target]
    pristine = path.read_bytes()
    try:
        path.write_bytes(corrupt(pristine, mode, at, byte))
        assert_clean(*run_captured(argv_reading(files, target)))
    finally:
        path.write_bytes(pristine)


def mistyped_run_ends_cleanly(files, target, path, value):
    doc = files[target]
    pristine = doc.read_text()
    try:
        doc.write_text(json.dumps(replace_leaf(json.loads(pristine), path, value)))
        assert_clean(*run_captured(argv_reading(files, target)))
    finally:
        doc.write_text(pristine)


def mistyped_manifest_line_ends_cleanly(files, line, path, value):
    manifest = files["manifest"]
    pristine = manifest.read_text()
    lines = pristine.splitlines()
    line %= len(lines)
    lines[line] = json.dumps(replace_leaf(json.loads(lines[line]), path, value))
    try:
        manifest.write_text("\n".join(lines) + "\n")
        assert_clean(*run_captured(argv_reading(files, "manifest")))
    finally:
        manifest.write_text(pristine)


# Every leaf a command reads; `out` is left alone, and the `scenario`,
# `workers` and `bench` sections are read by no command.
READ_LEAVES = [("seed", None)] + [
    (section, key) for section in ("dataset", "framing", "features", "training",
                                   "ensemble", "embedding", "search", "tracker")
    for key in DEFAULTS[section]]
# Integers around and below each range, small, huge and non-finite floats,
# and values of other types.
config_values = st.one_of(
    st.integers(-3, 6), st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1e300, -1e300, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([None, True, False, "", "l2", [], [1]]))

corruptions = dict(mode=st.sampled_from(["flip", "truncate", "insert"]),
                   at=st.integers(0, 400) | st.integers(0, 10 ** 7),
                   byte=st.integers(0, 255))
leaf_changes = dict(path=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
                    value=json_values)


@FUZZ
@given(target=st.sampled_from(["model", "checkpoint", "scores"]), **corruptions)
def test_corrupted_bytes_end_cleanly(files, target, mode, at, byte):
    corrupted_run_ends_cleanly(files, target, mode, at, byte)


@FUZZ
@given(target=st.sampled_from(["predictions", "calibration"]), **corruptions)
def test_corrupted_predictions_and_calibration_end_cleanly(files, target, mode, at, byte):
    corrupted_run_ends_cleanly(files, target, mode, at, byte)


@FUZZ
@given(**leaf_changes)
def test_mistyped_descriptor_entries_end_cleanly(files, path, value):
    mistyped_run_ends_cleanly(files, "model", path, value)


@FUZZ
@given(**leaf_changes)
def test_mistyped_calibration_entries_end_cleanly(files, path, value):
    mistyped_run_ends_cleanly(files, "calibration", path, value)


@FUZZ
@given(target=st.sampled_from(["meta", "manifest"]), **corruptions)
def test_corrupted_dataset_files_end_cleanly(files, target, mode, at, byte):
    corrupted_run_ends_cleanly(files, target, mode, at, byte)


@FUZZ
@given(**leaf_changes)
def test_mistyped_dataset_meta_entries_end_cleanly(files, path, value):
    mistyped_run_ends_cleanly(files, "meta", path, value)


@FUZZ
@given(line=st.integers(0, 10 ** 6), **leaf_changes)
def test_mistyped_manifest_entries_end_cleanly(files, line, path, value):
    mistyped_manifest_line_ends_cleanly(files, line, path, value)


@settings(FUZZ, max_examples=150)        # about 40 leaves: more draws than the others
@given(leaf=st.sampled_from(READ_LEAVES), value=config_values)
def test_configuration_values_end_cleanly(files, leaf, value):
    section, key = leaf
    doc = json.loads(files["config"].read_text())
    if key is None:
        doc[section] = value
    else:
        doc.setdefault(section, {})[key] = value
    config = files["root"] / "values.json"
    config.write_text(json.dumps(doc))
    assert_clean(*run_captured(["--config", config, "--out", files["root"] / "values",
                                *argv_reading_section(files, section)]))
