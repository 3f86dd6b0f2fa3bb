"""Build the trained ensemble that the infer_stream workload scores with.

    python3 perfbench/make_fixture.py

Runs the public CLI from the repository root: `gen` at 300 frames per
class, then `train` for 3 epochs, seed 0. Copies the descriptor and the
member checkpoints into perfbench/fixture/ and writes their SHA256SUMS,
which every benchmark run verifies. An untrained ensemble would score every
class near 1/7, below the 0.5 threshold, and leave the tracker no work.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import plan  # noqa: E402
from fiberwatch import cli  # noqa: E402

CONFIG = {"dataset": {"frames_per_class": 300},
          "training": {"epochs": 3, "early_stop_acc": None, "relabel": False}}


def main() -> int:
    build = ROOT / plan.WORK_ROOT / "fixture-build"
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    config = build / "config.json"
    config.write_text(json.dumps(CONFIG))
    for argv in (["--out", build / "data", "gen"],
                 ["--out", build / "model", "train", "--data", build / "data"]):
        rc = cli.run(["--config", str(config), "--seed", "0", *map(str, argv)])
        if rc != 0:
            return rc
    desc = json.loads((build / "model" / "ensemble.json").read_text())
    names = ["ensemble.json", *desc["members"]]
    for name in names:
        shutil.copyfile(build / "model" / name, plan.FIXTURE_DIR / name)
    (plan.FIXTURE_DIR / "SHA256SUMS").write_text("".join(
        f"{plan.file_digest(plan.FIXTURE_DIR / n)}  {n}\n" for n in names))
    shutil.rmtree(build)
    return 0


if __name__ == "__main__":
    sys.exit(main())
