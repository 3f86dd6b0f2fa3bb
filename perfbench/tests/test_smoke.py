"""Tiny-size runs of every workload through the benchmark's own command."""

import json
import shutil
import subprocess
import sys

import pytest

import plan
from conftest import BENCH, ROOT
from test_schema import result_problems


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_tiny_run(workload):
    proc = bench("--workload", workload, "--seed", 1, "--seconds", 0, "--trace", 0,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result_problems(result, 0) == []
    assert result["correct"] and result["failed"] == 0, proc.stderr
    record = json.loads(lines[-2].removeprefix("record "))
    assert record["env"]["blas_threads"] == 1
    assert len(record["input_fingerprint"]) == 64
    assert record["ops_without_reference"] == 0


def test_tiny_traced_run_reports_every_layer():
    proc = bench("--workload", "track_cable", "--seed", 2, "--seconds", 0, "--trace", 1,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result_problems(result, 1) == []
    assert result["correct"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["tracker.glue_tracks.self_s"] > 0
    assert values["tensornet.backward_batch.rows"] > 0
    assert 0 < values["training.stream_features.cell_share"] <= 1
    assert values["embedding.tsne.kl_per_step"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "infer_stream", "--seed", 0, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
