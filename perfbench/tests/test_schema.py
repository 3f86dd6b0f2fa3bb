"""BENCHMARK.json matches the benchmark's own metric tables and the result format."""

import json
import re

import plan
from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END_NAMES = {"stream_rtf", "block_p50_s", "block_tail_s", "train_frames_per_s",
                 "track_cells_per_s", "analyze_s", "setup_s", "peak_rss_mb"}


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_matches_tables():
    assert benchmark() == plan.benchmark_document()


def test_document_shape():
    doc = benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert [w["name"] for w in doc["workloads"]] == list(plan.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in doc[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_metric_names_units_directions():
    doc = benchmark()
    assert {m["name"] for m in doc["end_to_end"]} == END_TO_END_NAMES
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    overheads = {m["name"] for m in doc["per_layer"] if m["name"].startswith("trace_")}
    assert overheads == {f"trace_overhead.{n}" for n in END_TO_END_NAMES}


def result_problems(doc: dict, trace: int) -> list[str]:
    """What is wrong with one result line, judged against BENCHMARK.json."""
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(doc)}")
    if not (isinstance(doc.get("attempted"), int) and doc["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(doc.get("failed"), int):
        problems.append("failed must be a whole number")
    group = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in benchmark()[group]}
    got = doc.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            problems.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def test_result_schema_rejects_bad_lines():
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {m.name: {"value": 1.5, "unit": m.unit} for m in plan.END_TO_END}}
    assert result_problems(good, 0) == []
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["setup_s"]
    assert result_problems(missing, 0)
    wrong_unit = json.loads(json.dumps(good))
    wrong_unit["metrics"]["stream_rtf"]["unit"] = "s"
    assert result_problems(wrong_unit, 0)
    assert result_problems(dict(good, attempted=0), 0)
    assert result_problems(good, 1)
