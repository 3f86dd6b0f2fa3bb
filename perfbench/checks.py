"""Correctness checks on the outputs of each benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct. The checks read output files directly and call no fiberwatch
code, so a traced run records no spans for them and a defect in the
program cannot also hide itself in its own check.

Tolerances are stated here. A change that only reorders floating-point
work stays inside them; a wrong output does not.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

FUSED_TOL = 1e-6          # fused score vs reference (stored as float32)
CONFIDENCE_TOL = 2e-6     # events.jsonl rounds mean_confidence to 6 decimals
# A member's best test accuracy may move by this many test frames, or this
# share of the test set, whichever is larger, from the reference.
ACCURACY_TOL_FRAMES = 2
ACCURACY_TOL_SHARE = 0.03
CHECKPOINT_MAGIC = b"FWNET1\n"
TRACK_KEYS = ("class_id", "frame_begin", "frame_end", "chan_lo", "chan_hi",
              "center_channel")


def read_events(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def compare_tracks(got: list[dict], want: list[dict]) -> list[str]:
    """Track lists equal: same order, bounds and class; confidence within tolerance."""
    if len(got) != len(want):
        return [f"{len(got)} tracks, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if any(g[k] != w[k] for k in TRACK_KEYS):
            problems.append(f"track {i}: {[g[k] for k in TRACK_KEYS]} != "
                            f"{[w[k] for k in TRACK_KEYS]}")
        elif abs(g["mean_confidence"] - w["mean_confidence"]) > CONFIDENCE_TOL:
            problems.append(f"track {i}: confidence {g['mean_confidence']} != "
                            f"{w['mean_confidence']}")
    return problems


def check_block(fused, decisions, events: list[dict], class_id: int,
                reference: dict | None) -> list[str]:
    """One infer -> track block.

    Always: an event block yields a track of its class, a background block
    none. With a reference (same input bytes as when it was recorded):
    decisions and tracks equal, fused scores within ``FUSED_TOL``.
    """
    problems = []
    classes = [e["class_id"] for e in events]
    if class_id == 0 and classes:
        problems.append(f"background block produced tracks of classes {classes}")
    if class_id != 0 and class_id not in classes:
        problems.append(f"no class-{class_id} track; got classes {classes}")
    if reference is None:
        return problems
    if fused.shape != reference["fused"].shape:
        return problems + [f"score grid {fused.shape} != {reference['fused'].shape}"]
    err = float(np.max(np.abs(fused - reference["fused"])))
    if not err <= FUSED_TOL:
        problems.append(f"fused scores differ by {err:.3g} > {FUSED_TOL}")
    if not np.array_equal(decisions, reference["decisions"]):
        problems.append(f"{int(np.sum(decisions != reference['decisions']))} "
                        "decisions differ")
    return problems + compare_tracks(events, reference["tracks"])


def check_cable(events: list[dict], expected: list[dict]) -> list[str]:
    """Each injected box matched by exactly one track of its class, no others."""
    problems = []
    for box in expected:
        hits = [e for e in events if e["class_id"] == box["class_id"]
                and e["frame_begin"] <= box["frame_end"]
                and box["frame_begin"] <= e["frame_end"]
                and e["chan_lo"] <= box["chan_hi"] and box["chan_lo"] <= e["chan_hi"]]
        if len(hits) != 1:
            problems.append(f"box {[box[k] for k in TRACK_KEYS[:5]]}: "
                            f"{len(hits)} matching tracks")
    return problems + compare_tracks(events, expected)


def best_accuracies(train_dir: Path, members: int) -> list[float]:
    out = []
    for j in range(1, members + 1):
        with open(Path(train_dir) / f"history_c{j}.csv", newline="") as fh:
            out.append(max(float(r["test_accuracy"]) for r in csv.DictReader(fh)))
    return out


def checkpoint_values(path: Path) -> np.ndarray:
    """Every parameter value of a member checkpoint, read from its raw layout."""
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a member checkpoint")
    pos = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, pos)
    header = json.loads(raw[pos + 4:pos + 4 + hlen])
    values = np.frombuffer(raw[pos + 4 + hlen:],
                           dtype=np.dtype(header["dtype"]).newbyteorder("<"))
    expected = sum(int(np.prod(s)) for s in header["shapes"])
    if values.size != expected:
        raise ValueError(f"{path}: {values.size} values, header says {expected}")
    return values


def check_train(train_dir: Path, members: int, test_frames: int,
                reference: list[float] | None) -> list[str]:
    """Checkpoints finite; best test accuracies within tolerance of the reference."""
    train_dir = Path(train_dir)
    desc = json.loads((train_dir / "ensemble.json").read_text())
    problems = []
    if len(desc["members"]) != members:
        problems.append(f"{len(desc['members'])} members, want {members}")
    for name in desc["members"]:
        values = checkpoint_values(train_dir / name)
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite parameters")
    if reference is None:
        return problems
    tol = max(ACCURACY_TOL_SHARE, ACCURACY_TOL_FRAMES / test_frames)
    for j, (got, want) in enumerate(zip(best_accuracies(train_dir, members), reference)):
        if not abs(got - want) <= tol:
            problems.append(f"member C{j + 1}: best accuracy {got:.4f}, "
                            f"reference {want:.4f} (tolerance {tol:.4f})")
    return problems


def read_embedding(analyze_dir: Path) -> tuple[np.ndarray, list[int]]:
    with open(Path(analyze_dir) / "embedding.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    coords = np.array([[float(v) for v in r[2:]] for r in rows])
    return coords, [int(r[1]) for r in rows]


def is_spanning_tree(edges, nodes: int) -> bool:
    parent = list(range(nodes))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[rj] = ri
    return len(edges) == nodes - 1


def check_analyze(analyze_dir: Path, points: int,
                  reference_labels: list[int] | None, classes: int = 7) -> list[str]:
    """Finite coordinates, one row per sampled point, a spanning tree over the classes."""
    coords, labels = read_embedding(analyze_dir)
    problems = []
    if len(labels) != points:
        problems.append(f"{len(labels)} embedded points, want {points}")
    if not np.all(np.isfinite(coords)):
        problems.append("non-finite embedding coordinates")
    if reference_labels is not None and labels != reference_labels:
        problems.append("sampled point labels differ from the reference")
    edges = json.loads((Path(analyze_dir) / "mst.json").read_text())["edges"]
    if not is_spanning_tree(edges, classes):
        problems.append(f"mst.json is not a {classes - 1}-edge spanning tree: {edges}")
    return problems
