"""fiberwatch benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates its inputs from the seed
in one process, times the named workload in a fresh second process
through the public CLI, checks every output, and prints the metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``record {...}``, holds the environment and the input fingerprint. The
same record, and the spans of a traced run, are kept under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
# Every workload runs with this many BLAS threads; two OpenBLAS threads
# on a two-core machine made block latency both slower and noisier.
BLAS_THREADS = 1
GENERATE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 160
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fiberwatch.cli; "
                "print(time.perf_counter() - t)")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_state(root: Path) -> dict:
    """Revision and dirty flag, or None outside a git checkout."""
    if not (root / ".git").exists():
        return {"git_revision": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()

    try:
        return {"git_revision": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_revision": None, "git_dirty": None}


def run_child(argv, env, timeout, **kw) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and reaped first."""
    return subprocess.run([sys.executable, *map(str, argv)], env=env, timeout=timeout,
                          check=True, **kw)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(plan.SIZES), default="full",
                   help="input size; tiny is the self-test smoke size")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fiberwatch" / "cli.py").is_file():
        print("perfbench: src/fiberwatch not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    work = root / plan.WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = root / plan.WORK_ROOT / "results"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run_child([HERE / "generate.py", "--workload", args.workload, "--seed", args.seed,
                   "--size", args.size, "--out", work], env, GENERATE_TIMEOUT_S,
                  stdout=subprocess.DEVNULL)
        probe = run_child(["-c", IMPORT_PROBE], env, GENERATE_TIMEOUT_S,
                          capture_output=True, text=True)
        run_child([HERE / "workload.py", "--workload", args.workload, "--inputs", work,
                   "--seconds", args.seconds, "--trace", args.trace, "--size", args.size],
                  env, WORKLOAD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        inputs = plan.load_json(work / "inputs.json")
        out = plan.load_json(work / "result.json")
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.copyfile(work / "spans.jsonl", results / f"{stem}.spans.jsonl")
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Set-up: three fresh interpreters import fiberwatch.cli per run.
    setup = [inputs["import_s"], float(probe.stdout), out["import_s"]]
    e2e = dict(out["metrics"], setup_s=statistics.median(setup))
    if args.trace:
        metrics = {m.name: {"value": out["per_layer"][m.name], "unit": m.unit}
                   for m in plan.PER_LAYER}
    else:
        metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in plan.END_TO_END}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "input_fingerprint": inputs["fingerprint"], "input_parts": inputs["parts"],
        "end_to_end": e2e, "traced_end_to_end": out.get("traced_metrics"),
        "setup_samples_s": setup, "block_tail_pct": out["block_tail_pct"],
        "ops": out["ops"], "op_walls_s": out["op_walls_s"],
        "error_rate": out["failed"] / out["attempted"],
        "problems": out["problems"], "ops_without_reference": out["unreferenced"],
        "env": dict(out["env"], nproc=os.cpu_count(), python=platform.python_version(),
                    blas_threads=BLAS_THREADS, **git_state(root)),
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for problem in out["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if out["unreferenced"]:
        print(f"perfbench: {out['unreferenced']} operations had inputs that differ from "
              "the recorded references; compare runs only at equal input_fingerprint",
              file=sys.stderr)
    print(f"perfbench {args.workload} seed {args.seed}: {out['attempted']} operations, "
          f"error_rate {record['error_rate']:.4f}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
