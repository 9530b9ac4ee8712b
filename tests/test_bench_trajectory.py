"""The benchmark trajectory: one entry per change that measured the
benchmark, in the metric names and units that BENCHMARK.json declares."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def test_entries_report_every_end_to_end_metric_of_the_benchmark():
    benchmark = _load("BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    workloads = {w["name"] for w in benchmark["workloads"]}
    entries = _load("BENCH_TRAJECTORY.json")["entries"]
    assert entries
    for entry in entries:
        assert re.fullmatch(r"[0-9a-f]{40}", entry["parent"])
        assert entry["change"] and entry["seconds"] > 0
        assert entry["workloads"] and set(entry["workloads"]) <= workloads
        for runs in entry["workloads"].values():
            assert runs["seeds"] and runs["pairs"] >= 1
            assert set(runs["metrics"]) == set(units)
            for name, metric in runs["metrics"].items():
                assert metric["unit"] == units[name]
                for side in ("parent", "change"):
                    assert type(metric[side]) in (int, float)
