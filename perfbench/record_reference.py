"""Record the reference outputs that the correctness checks compare against.

    python3 perfbench/record_reference.py

Runs from the repository root with the public CLI and the committed
fixture ensemble, and writes perfbench/reference/:

- blocks.npz / blocks.json: fused scores, decisions and tracks of every
  block of the pool, with the SHA-256 of the block's input bytes;
- datasets.json: per size and dataset seed, the dataset fingerprint, each
  member's best test accuracy after `train`, and the labels of the points
  `analyze` samples.

A run compares against a reference only when its inputs hash the same, so
a change to the input generator is flagged instead of failing every check.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
import plan  # noqa: E402
from fiberwatch import cli  # noqa: E402


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"{argv}: exit code {rc}")


def record_blocks(build: Path) -> None:
    generate.make_blocks(plan.FULL, 0, build / "blocks")
    model = plan.FIXTURE_DIR / "ensemble.json"
    meta, arrays = {}, {}
    for blk in plan.load_json(build / "blocks" / "blocks.json"):
        b = blk["block_id"]
        run("--out", build / "infer", "infer", "--stream", build / "blocks" / blk["file"],
            "--channels", plan.BLOCK_CHANNELS, "--model", model)
        run("--out", build / "track", "track", "--scores", build / "infer" / "scores.npz")
        with np.load(build / "infer" / "scores.npz") as z:
            arrays[f"fused{b}"] = z["fused"].astype(np.float32)
            arrays[f"decisions{b}"] = z["decisions"].astype(np.int8)
        meta[str(b)] = {"sha256": blk["sha256"], "class_id": blk["class_id"],
                        "tracks": checks.read_events(build / "track" / "events.jsonl")}
    np.savez_compressed(plan.REFERENCE_DIR / "blocks.npz", **arrays)
    (plan.REFERENCE_DIR / "blocks.json").write_text(json.dumps(meta, indent=0))


def record_datasets(build: Path) -> None:
    doc = {}
    for sizes in (plan.FULL, plan.TINY):
        for ds_seed in range(plan.DATASET_POOL):
            data = build / f"dataset_{sizes.name}_{ds_seed}"
            generate.make_dataset(sizes, ds_seed, data)
            config = plan.config_path(data)
            run("--config", config, "--seed", 0, "--out", build / "train", "train",
                "--data", data)
            run("--config", config, "--seed", 0, "--out", build / "analyze", "analyze",
                "--data", data)
            _, labels = checks.read_embedding(build / "analyze")
            doc.setdefault(sizes.name, {})[str(ds_seed)] = {
                "fingerprint": plan.tree_digest(data),
                "accuracy": checks.best_accuracies(build / "train", plan.MEMBERS),
                "analyze_labels": labels}
            print(f"{sizes.name} dataset {ds_seed}: accuracy "
                  f"{doc[sizes.name][str(ds_seed)]['accuracy']}", flush=True)
    (plan.REFERENCE_DIR / "datasets.json").write_text(json.dumps(doc))


def main() -> int:
    build = ROOT / plan.WORK_ROOT / "reference-build"
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    plan.REFERENCE_DIR.mkdir(exist_ok=True)
    record_blocks(build)
    record_datasets(build)
    shutil.rmtree(build)
    return 0


if __name__ == "__main__":
    sys.exit(main())
