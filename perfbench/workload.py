"""The timed process: drives `fiberwatch.cli.run` in a closed loop.

    python3 perfbench/workload.py --workload NAME --inputs DIR --seconds S --trace 0|1

One client, one process: each command waits for the previous one. A run
is a main pass of the named workload, for ``MAIN_SHARE`` of ``--seconds``
and at least its minimum operation count, with a cross-check pass of each
other workload at tiny size spread through it, so that every end-to-end
metric has a value on every workload. Each operation's outputs are
checked after its timed region.

With ``--trace 1`` the run is made twice, untraced and then traced, each
for half of ``--seconds``; the traced run gives the per-layer metrics, and
the difference between the two gives the tracing overhead of each
end-to-end metric. The result is written as JSON to ``DIR/result.json``;
spans go to ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

tic = time.perf_counter()
import fiberwatch.cli as cli  # noqa: E402  (timed: a fresh interpreter's set-up)
IMPORT_S = time.perf_counter() - tic

import numpy as np  # noqa: E402

import checks  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402
from generate import parts_for  # noqa: E402

MODEL = plan.FIXTURE_DIR / "ensemble.json"


@dataclass
class Op:
    wall: float                 # seconds inside cli.run calls
    work: float                 # channel-seconds, frames trained, cells: per kind
    problems: list = field(default_factory=list)
    referenced: bool = True     # False: inputs differ from the recorded reference


class Runner:
    """Runs and checks the operations of one benchmark run."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.ops_dir = inputs / "ops"
        self.tracer: spans.Tracer | None = None
        self.references = _load_references()
        self.info = plan.load_json(inputs / "inputs.json")["parts"]

    def _run(self, argv) -> int:
        return cli.run([str(a) for a in argv])

    def _op(self, label: str, body) -> Op:
        """Run ``body``; an exception or nonzero exit fails the operation."""
        if self.tracer:
            self.tracer.op = label
        t0 = time.perf_counter()
        try:
            return body()
        except Exception:                      # one failed op must not end the run
            traceback.print_exc()
            return Op(time.perf_counter() - t0, 0.0,
                      [f"{label}: raised {traceback.format_exc(limit=1)}"])
        finally:
            if self.tracer:
                self.tracer.op = None

    def op(self, kind: str, part: str, sizes: plan.Sizes, i: int) -> Op:
        """Operation ``i`` of one kind; ``i`` also picks the block to submit."""
        step = {"infer_stream": self.block, "train_members": self.train,
                "track_cable": self.track, "analyze_embed": self.analyze}[kind]
        return self._op(f"{sizes.name}:{kind}:{i}",
                        lambda: step(self.inputs / part, sizes, i))

    # -- operations ---------------------------------------------------------

    def block(self, part: Path, sizes: plan.Sizes, i: int) -> Op:
        blocks = plan.load_json(part / "blocks.json")
        blk = blocks[i % len(blocks)]
        d_inf, d_trk = self._fresh("infer"), self._fresh("track")
        t0 = time.perf_counter()
        rc = self._run(["--out", d_inf, "infer", "--stream", part / blk["file"],
                        "--channels", plan.BLOCK_CHANNELS, "--model", MODEL])
        if rc == 0:
            rc = self._run(["--out", d_trk, "track", "--scores", d_inf / "scores.npz"])
        op = Op(time.perf_counter() - t0, blk["channel_seconds"])
        if rc != 0:
            op.problems.append(f"block {blk['block_id']}: exit code {rc}")
            return op
        ref = self.references["blocks"].get(blk["block_id"])
        if ref is None or ref["sha256"] != blk["sha256"]:
            ref, op.referenced = None, False
        with np.load(d_inf / "scores.npz") as z:
            fused, decisions = z["fused"], z["decisions"]
        op.problems += checks.check_block(fused, decisions,
                                          checks.read_events(d_trk / "events.jsonl"),
                                          blk["class_id"], ref)
        return op

    def train(self, part: Path, sizes: plan.Sizes, i: int) -> Op:
        info = self.info[part.name]
        out = self._fresh("train")
        t0 = time.perf_counter()
        rc = self._run(["--config", plan.config_path(part), "--seed", 0, "--out", out,
                        "train", "--data", part])
        op = Op(time.perf_counter() - t0, plan.MEMBERS * sizes.epochs * info["train_frames"])
        if rc != 0:
            op.problems.append(f"train: exit code {rc}")
            return op
        ref = self._dataset_reference(sizes, info)
        op.referenced = ref is not None
        op.problems += checks.check_train(out, plan.MEMBERS,
                                          info["frames"] - info["train_frames"],
                                          ref and ref["accuracy"])
        return op

    def track(self, part: Path, sizes: plan.Sizes, i: int) -> Op:
        out = self._fresh("cable")
        t0 = time.perf_counter()
        rc = self._run(["--out", out, "track", "--scores", part / "scores.npz"])
        op = Op(time.perf_counter() - t0, self.info[part.name]["cells"])
        if rc != 0:
            op.problems.append(f"track: exit code {rc}")
            return op
        op.problems += checks.check_cable(checks.read_events(out / "events.jsonl"),
                                          plan.load_json(part / "expected_tracks.json"))
        return op

    def analyze(self, part: Path, sizes: plan.Sizes, i: int) -> Op:
        info = self.info[part.name]
        out = self._fresh("analyze")
        t0 = time.perf_counter()
        rc = self._run(["--config", plan.config_path(part), "--seed", 0, "--out", out,
                        "analyze", "--data", part])
        op = Op(time.perf_counter() - t0, 1.0)
        if rc != 0:
            op.problems.append(f"analyze: exit code {rc}")
            return op
        ref = self._dataset_reference(sizes, info)
        op.referenced = ref is not None
        op.problems += checks.check_analyze(out, min(sizes.analyze_points, info["frames"]),
                                            ref and ref["analyze_labels"])
        return op

    # -- helpers ------------------------------------------------------------

    def _fresh(self, name: str) -> Path:
        """An empty output directory, so no check can read a previous op's files."""
        d = self.ops_dir / name
        if d.exists():
            for p in d.iterdir():
                p.unlink()
        d.mkdir(parents=True, exist_ok=True)
        return d

    def _dataset_reference(self, sizes: plan.Sizes, info: dict) -> dict | None:
        ref = self.references["datasets"].get(sizes.name, {}).get(str(info["dataset_seed"]))
        return ref if ref and ref["fingerprint"] == info["digest"] else None


def _load_references() -> dict:
    blocks = {}
    meta = plan.load_json(plan.REFERENCE_DIR / "blocks.json")
    with np.load(plan.REFERENCE_DIR / "blocks.npz") as z:
        for key, row in meta.items():
            b = int(key)
            blocks[b] = {"sha256": row["sha256"], "tracks": row["tracks"],
                         "fused": z[f"fused{b}"].astype(np.float64),
                         "decisions": z[f"decisions{b}"].astype(np.int64)}
    return {"blocks": blocks,
            "datasets": plan.load_json(plan.REFERENCE_DIR / "datasets.json")}


def verify_fixture() -> None:
    for line in (plan.FIXTURE_DIR / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        if plan.file_digest(plan.FIXTURE_DIR / name) != digest:
            raise SystemExit(f"fixture file {name} does not match SHA256SUMS")


def run_passes(runner: Runner, workload: str, size: str, seconds: float) -> dict[str, list[Op]]:
    """The main pass of ``workload``, with the cross-check pass spread through it.

    The main pass runs until its own operations have taken
    ``MAIN_SHARE * seconds`` and number at least its minimum count. Each
    other workload's ``CROSS_OPS`` operations are spread evenly over the
    main pass's expected length, as estimated from its operations so far,
    so that the cross-check pass samples the whole run instead of one short
    window.
    """
    parts = parts_for(workload, size)
    sizes = plan.SIZES[size]
    min_main = sizes.min_blocks if workload == "infer_stream" else 1
    target = plan.MAIN_SHARE * seconds
    cross = {w: n for w, n in plan.CROSS_OPS.items() if w != workload}
    ops: dict[str, list[Op]] = {w: [] for w in plan.WORKLOADS}

    def step(kind, kind_sizes):
        ops[kind].append(runner.op(kind, parts[kind], kind_sizes, len(ops[kind])))

    def cross_due(progress):
        """Run the cross-check operations due once ``progress`` of the main pass is done."""
        for w, n in cross.items():
            while len(ops[w]) < n and len(ops[w]) <= progress * n:
                step(w, plan.TINY)

    cross_due(0.0)
    main_s = 0.0
    while len(ops[workload]) < min_main or main_s < target:
        t0 = time.perf_counter()
        step(workload, sizes)
        main_s += time.perf_counter() - t0
        expected = max(target, main_s / len(ops[workload]) * min_main)
        cross_due(main_s / expected)
    cross_due(1.0)
    return ops


def end_to_end(ops: dict[str, list[Op]]) -> dict[str, float]:
    """Every end-to-end metric except setup_s, which the caller measures.

    A rate per command is the median over commands: the host's speed
    drifts in spells of seconds, and a spell then slows some commands of
    the run, not the run's figure.
    """
    def per_command(kind):
        return statistics.median(o.work / o.wall for o in ops[kind])

    blocks = ops["infer_stream"]
    walls = [o.wall for o in blocks]
    return {
        "stream_rtf": sum(o.work for o in blocks) / sum(walls),
        "block_p50_s": float(np.percentile(walls, 50)),
        "block_tail_s": float(np.percentile(walls, plan.BLOCK_TAIL_PCT)),
        "train_frames_per_s": per_command("train_members"),
        "track_cells_per_s": per_command("track_cable"),
        "analyze_s": statistics.median(o.wall for o in ops["analyze_embed"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: spans.Tracer) -> dict[str, float]:
    agg = spans.aggregate(tracer.spans)

    def get(name, key):
        return float(agg[name][key]) if name in agg else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        # cells featurized per frame framed: below 1 when a load frames
        # more of a stream than its manifest labels
        "training.stream_features.cell_share": ratio(
            get("training.stream_features", "cells"),
            get("framing.frame_matrix", "frames")),
        # KL evaluations per post-exaggeration step: about 1 when no step is halved
        "embedding.tsne.kl_per_step": ratio(
            spans.child_calls(tracer.spans, "embedding.tsne", "embedding.kl_divergence"),
            get("embedding.tsne", "post_steps")),
    }
    out = {}
    for m in plan.PER_LAYER:
        if m.name in special:
            out[m.name] = special[m.name]
        elif not m.name.startswith("trace_overhead."):
            name, _, key = m.name.rpartition(".")
            out[m.name] = int(get(name, key)) if m.unit == "count" else get(name, key)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(plan.SIZES), default="full")
    args = p.parse_args(argv)

    verify_fixture()
    inputs = Path(args.inputs)
    runner = Runner(inputs)
    # A traced run makes two passes, untraced and traced, of half the seconds each.
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = run_passes(runner, args.workload, args.size, seconds)
    metrics = end_to_end(ops)
    result = {"import_s": IMPORT_S, "metrics": metrics, "env": environment()}
    all_ops = [o for kind in ops.values() for o in kind]
    if args.trace:
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        tracer.install(plan.TRACED)
        install_s = time.perf_counter() - t0
        runner.tracer = tracer
        traced_ops = run_passes(runner, args.workload, args.size, seconds)
        tracer.uninstall()
        traced = end_to_end(traced_ops)
        layers = per_layer(tracer)
        for m in plan.END_TO_END:
            layers[f"trace_overhead.{m.name}"] = (
                install_s if m.name == "setup_s" else traced[m.name] - metrics[m.name])
        result["traced_metrics"] = traced
        result["per_layer"] = layers
        all_ops += [o for kind in traced_ops.values() for o in kind]
        with open(inputs / "spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    problems = [p for o in all_ops for p in o.problems]
    result.update(attempted=len(all_ops), failed=sum(1 for o in all_ops if o.problems),
                  problems=problems[:20],
                  unreferenced=sum(1 for o in all_ops if not o.referenced),
                  ops={k: len(v) for k, v in ops.items()},
                  op_walls_s={k: [round(o.wall, 6) for o in v] for k, v in ops.items()},
                  block_tail_pct=plan.BLOCK_TAIL_PCT)
    (inputs / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
