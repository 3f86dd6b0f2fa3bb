"""Seeded input generator; runs in its own process before the timed one.

    python3 perfbench/generate.py --workload NAME --seed N --size full|tiny --out DIR

Writes the inputs of one benchmark run into DIR: the named workload's
inputs at the given size, and tiny inputs for the cross-check pass of the
other three. ``DIR/inputs.json`` lists each part with its fingerprint, and
the time this fresh interpreter took to import ``fiberwatch.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import plan

# Which input part each workload reads.
PART_OF = {"infer_stream": "blocks", "train_members": "dataset",
           "analyze_embed": "dataset", "track_cable": "cable"}


def make_blocks(sizes: plan.Sizes, seed: int, out: Path) -> dict:
    """Render pool blocks as .i16 files, in the run's order.

    A full-size run writes the whole pool (the timed loop cycles through it);
    a tiny pass writes the first ``min_blocks`` of the order.
    """
    from fiberwatch import SAMPLE_RATE_HZ, siggen

    out.mkdir(parents=True, exist_ok=True)
    pool = plan.block_pool()
    order = plan.block_order(seed)
    if sizes.name == "tiny":
        order = order[:sizes.min_blocks]
    background = siggen.default_profiles()[0]
    blocks = []
    for b in order:
        spec = pool[b]
        events = () if spec.class_id == 0 else (
            siggen.EventSpec(spec.class_id, spec.start_s, spec.end_s,
                             spec.chan_lo, spec.chan_hi),)
        scenario = siggen.ScenarioSpec(plan.BLOCK_SECONDS, plan.BLOCK_CHANNELS,
                                       background, events, seed=spec.seed)
        stream, _ = siggen.render_scenario(scenario)
        path = out / f"block{b:02d}.i16"
        path.write_bytes(stream.samples.astype("<i2").tobytes())
        blocks.append({"block_id": b, "class_id": spec.class_id, "file": path.name,
                       "sha256": plan.file_digest(path),
                       "channel_seconds": stream.channel_count * stream.sample_count
                                          / SAMPLE_RATE_HZ})
    (out / "blocks.json").write_text(json.dumps(blocks, indent=1))
    return {"blocks": len(blocks)}


def make_dataset(sizes: plan.Sizes, seed: int, out: Path) -> dict:
    """A labelled dataset written by the public `gen` command."""
    from fiberwatch import cli

    ds_seed = seed % plan.DATASET_POOL
    out.mkdir(parents=True, exist_ok=True)
    config = plan.config_path(out)
    config.write_text(json.dumps(plan.dataset_config(sizes)))
    rc = cli.run(["--config", str(config), "--seed", str(ds_seed), "--out", str(out), "gen"])
    if rc != 0:
        raise RuntimeError(f"gen exited with {rc}")
    splits = [json.loads(line)["split"]
              for line in (out / "manifest.jsonl").read_text().splitlines()]
    return {"dataset_seed": ds_seed, "train_frames": splits.count("train"),
            "frames": len(splits)}


def cable_grid(sizes: plan.Sizes, seed: int):
    """Fused-score grid with isolated event boxes and false-alarm cells.

    Returns (scores, expected tracks). Boxes (classes 1-6 in turn) last 4-20
    frames over 2-8 channels; false-alarm cells are single cells of a random
    event class. Every box and cell keeps ``CABLE_MARGIN`` empty cells to all
    others, so the default tracker glues each box into exactly one track and
    drops every false cell; the expected tracks follow from the boxes alone.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xCAB1E])
    n_f, n_c, m = sizes.cable_frames, sizes.cable_channels, plan.CABLE_MARGIN
    scores = np.empty((n_f, n_c, 7))
    scores[..., 0] = rng.uniform(0.6, 1.0, (n_f, n_c))
    scores[..., 1:] = rng.uniform(0.0, 0.05, (n_f, n_c, 6))
    taken = np.zeros((n_f, n_c), dtype=bool)

    def place(class_id, f0, f1, c0, c1) -> bool:
        if taken[max(0, f0 - m):f1 + m + 1, max(0, c0 - m):c1 + m + 1].any():
            return False
        taken[f0:f1 + 1, c0:c1 + 1] = True
        box = scores[f0:f1 + 1, c0:c1 + 1]
        box[...] = rng.uniform(0.0, 0.05, box.shape)
        box[..., class_id] = rng.uniform(0.55, 0.99, box.shape[:2])
        return True

    def fill(count, try_one):
        done = 0
        for _ in range(200 * count + 1000):
            if done == count:
                return
            done += try_one()
        raise RuntimeError("cable grid too crowded for the requested boxes")

    tracks = []

    def try_box() -> bool:
        class_id = 1 + len(tracks) % 6
        dur, wid = int(rng.integers(4, 21)), int(rng.integers(2, 9))
        f0, c0 = int(rng.integers(0, n_f - dur + 1)), int(rng.integers(0, n_c - wid + 1))
        f1, c1 = f0 + dur - 1, c0 + wid - 1
        if not place(class_id, f0, f1, c0, c1):
            return False
        chans = np.tile(np.arange(c0, c1 + 1), dur)
        tracks.append({"class_id": class_id, "frame_begin": f0, "frame_end": f1,
                       "chan_lo": c0, "chan_hi": c1, "center_channel": int(np.median(chans)),
                       "mean_confidence": float(np.mean(
                           scores[f0:f1 + 1, c0:c1 + 1, class_id]))})
        return True

    def try_false_cell() -> bool:
        f, c = int(rng.integers(0, n_f)), int(rng.integers(0, n_c))
        return place(int(rng.integers(1, 7)), f, f, c, c)

    fill(sizes.cable_boxes, try_box)
    fill(round(n_f * n_c * plan.CABLE_FALSE_SHARE), try_false_cell)
    tracks.sort(key=lambda t: (t["class_id"], t["frame_begin"], t["chan_lo"]))
    return scores, tracks


def make_cable(sizes: plan.Sizes, seed: int, out: Path) -> dict:
    import numpy as np

    out.mkdir(parents=True, exist_ok=True)
    scores, tracks = cable_grid(sizes, seed)
    np.savez(out / "scores.npz", fused=scores)
    (out / "expected_tracks.json").write_text(json.dumps(tracks))
    return {"cells": int(scores.shape[0] * scores.shape[1]), "boxes": len(tracks)}


MAKERS = {"blocks": make_blocks, "dataset": make_dataset, "cable": make_cable}


def parts_for(workload: str, size: str) -> dict[str, str]:
    """Input part directories a run needs, keyed by workload name."""
    return {w: f"{PART_OF[w]}_{size if w == workload else 'tiny'}"
            for w in plan.WORKLOADS}


def main(argv=None) -> int:
    tic = time.perf_counter()
    import fiberwatch.cli  # noqa: F401  (timed: a fresh interpreter's set-up)
    import_s = time.perf_counter() - tic

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(plan.SIZES), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    parts = {}
    for part_dir in sorted(set(parts_for(args.workload, args.size).values())):
        kind, size = part_dir.rsplit("_", 1)
        info = MAKERS[kind](plan.SIZES[size], args.seed, out / part_dir)
        info["digest"] = plan.tree_digest(out / part_dir)
        parts[part_dir] = info
    doc = {"import_s": import_s, "workload": args.workload, "seed": args.seed,
           "size": args.size, "parts": parts,
           "fingerprint": plan.tree_digest(out)}
    (out / "inputs.json").write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
