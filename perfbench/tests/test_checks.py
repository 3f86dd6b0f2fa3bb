"""The correctness checks pass correct outputs and reject perturbed ones."""

import csv
import json
import shutil

import numpy as np
import pytest

import checks
import generate
import plan


def block_reference(rng):
    fused = rng.uniform(0.0, 0.1, (6, 8, 7))
    fused[..., 0] = 0.9
    decisions = np.zeros((6, 8), dtype=np.int64)
    fused[1:5, 2:5, 3], fused[1:5, 2:5, 0] = 0.8, 0.05
    decisions[1:5, 2:5] = 3
    track = {"class_id": 3, "frame_begin": 1, "frame_end": 4, "chan_lo": 2,
             "chan_hi": 4, "center_channel": 3, "mean_confidence": 0.8}
    return {"fused": fused, "decisions": decisions, "tracks": [track], "sha256": "x"}


def test_block_check_accepts_reference_and_float_noise():
    ref = block_reference(np.random.default_rng(0))
    noisy = ref["fused"] + 1e-12
    assert checks.check_block(noisy, ref["decisions"], ref["tracks"], 3, ref) == []


@pytest.mark.parametrize("perturb", ["score", "decision", "track", "missing", "class"])
def test_block_check_rejects_perturbed_output(perturb):
    ref = block_reference(np.random.default_rng(0))
    fused, decisions = ref["fused"].copy(), ref["decisions"].copy()
    events = [dict(t) for t in ref["tracks"]]
    if perturb == "score":
        fused[2, 3, 3] += 1e-4
    elif perturb == "decision":
        decisions[0, 0] = 5
    elif perturb == "track":
        events[0]["frame_end"] += 1
    elif perturb == "missing":
        events = []
    else:
        events[0]["class_id"] = 4
    assert checks.check_block(fused, decisions, events, 3, ref)


def test_block_truth_checks_without_reference():
    assert checks.check_block(None, None, [], 0, None) == []
    assert checks.check_block(None, None, [{"class_id": 2}], 0, None)
    assert checks.check_block(None, None, [{"class_id": 2}], 5, None)


def test_cable_check_passes_the_real_tracker_and_rejects_perturbation(tmp_path):
    from fiberwatch import cli

    scores, expected = generate.cable_grid(plan.TINY, 7)
    np.savez(tmp_path / "scores.npz", fused=scores)
    assert cli.run(["--out", str(tmp_path / "out"), "track",
                    "--scores", str(tmp_path / "scores.npz")]) == 0
    events = checks.read_events(tmp_path / "out" / "events.jsonl")
    assert checks.check_cable(events, expected) == []
    moved = [dict(e) for e in events]
    moved[0]["chan_hi"] += 1
    assert checks.check_cable(moved, expected)
    assert checks.check_cable(events[1:], expected)
    doubled = events + [dict(events[0], frame_begin=events[0]["frame_end"])]
    assert checks.check_cable(doubled, expected)
    shifted = [dict(e) for e in events]
    shifted[-1]["mean_confidence"] += 1e-4
    assert checks.check_cable(shifted, expected)


def write_train_dir(path, accuracies):
    shutil.copytree(plan.FIXTURE_DIR, path)
    for j, acc in enumerate(accuracies, 1):
        with open(path / f"history_c{j}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "train_loss", "test_accuracy", "seconds"])
            w.writerow([0, "1.0", f"{acc - 0.1:.6f}", "1.0"])
            w.writerow([1, "0.5", f"{acc:.6f}", "1.0"])


def test_train_check(tmp_path):
    ref = [0.84, 0.93, 0.87]
    good = tmp_path / "good"
    write_train_dir(good, [0.85, 0.92, 0.87])
    assert checks.check_train(good, 3, 175, ref) == []
    assert checks.check_train(good, 3, 175, None) == []
    off = tmp_path / "off"
    write_train_dir(off, [0.84, 0.80, 0.87])
    assert checks.check_train(off, 3, 175, ref)
    broken = tmp_path / "nan"
    write_train_dir(broken, ref)
    raw = bytearray((broken / "ensemble.c2.net").read_bytes())
    raw[-8:] = np.array([np.nan]).astype("<f8").tobytes()
    (broken / "ensemble.c2.net").write_bytes(bytes(raw))
    assert checks.check_train(broken, 3, 175, ref) == ["ensemble.c2.net: non-finite parameters"]


def write_analyze_dir(path, coords, labels, edges):
    path.mkdir()
    with open(path / "embedding.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point", "class_id", "y0", "y1"])
        for i, (c, lab) in enumerate(zip(coords, labels)):
            w.writerow([i, lab, *c])
    (path / "mst.json").write_text(json.dumps({"edges": edges}))


def test_analyze_check(tmp_path):
    labels = [i % 7 for i in range(21)]
    coords = np.random.default_rng(1).normal(size=(21, 2))
    tree = [[0, 1, 0.1], [1, 2, 0.2], [2, 3, 0.3], [3, 4, 0.4], [4, 5, 0.5], [5, 6, 0.6]]
    write_analyze_dir(tmp_path / "ok", coords, labels, tree)
    assert checks.check_analyze(tmp_path / "ok", 21, labels) == []
    bad = coords.copy()
    bad[3, 1] = np.nan
    write_analyze_dir(tmp_path / "nan", bad, labels, tree)
    assert checks.check_analyze(tmp_path / "nan", 21, labels)
    assert checks.check_analyze(tmp_path / "ok", 21, labels[::-1])
    assert checks.check_analyze(tmp_path / "ok", 20, labels)
    cycle = tree[:5] + [[0, 5, 0.9]]
    write_analyze_dir(tmp_path / "cycle", coords, labels, cycle)
    assert checks.check_analyze(tmp_path / "cycle", 21, labels)
