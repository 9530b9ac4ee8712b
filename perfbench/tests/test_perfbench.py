"""Tests of the benchmark itself, in its smoke mode (tiny radius, few jobs).

    python3 -m pytest perfbench/tests -q      # from the repository root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import refloop  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from thompsonf import classify, cli, diagrams, folner, words  # noqa: E402

WORKLOADS = ("census", "oracle", "lemma-del")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def bench(workload, trace, cwd=ROOT, env=None, seconds="0.3"):
    """Run the benchmark command in smoke mode; return (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        tracer.METRICS
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace):
    code, stdout = bench(workload, trace)
    result = result_of(stdout)
    assert code == 0, stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in metrics)
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ratio 0 " in stdout
    env = json.loads(next(line for line in stdout.splitlines()
                          if line.startswith("env "))[4:])
    assert set(env) == {"python", "nproc", "cpu", "loadavg_start", "seed", "commit"}


def test_traced_census_sees_every_layer():
    code, stdout = bench("census", 1)
    values = {k: v["value"] for k, v in result_of(stdout)["metrics"].items()}
    assert code == 0
    for name in ("words.nf_multiply.calls", "diagrams.nf_to_diagram.calls",
                 "classify.class_of.calls", "folner.subgraph_density.calls"):
        assert values[name] > 0, name
    assert values["cli.run.self_s"] > 0
    assert values["folner.ball.elements"] == 161 * 4 + 53  # four ball(4), one ball(3)


FAULTS = {
    # the histogram verb miscounts M1
    "census": """
        from thompsonf import folner
        _original = folner.class_histogram
        def class_histogram(s):
            counts = _original(s)
            counts[next(iter(counts))] += 1
            return counts
        folner.class_histogram = class_histogram
    """,
    # the normal-form product drops the right factor's last negative letter
    "oracle": """
        from thompsonf import words
        _original = words.nf_multiply
        def nf_multiply(a, b):
            if b.neg:
                b = words.NormalForm(b.pos, b.neg[:-1])
            return _original(a, b)
        words.nf_multiply = nf_multiply
    """,
    # the density after deletion is reported too low
    "lemma-del": """
        import dataclasses
        from thompsonf import folner
        _original = folner.deletion_bound_check
        def deletion_bound_check(s, k):
            report = _original(s, k)
            return dataclasses.replace(report, density_after=report.density_after - 9)
        folner.deletion_bound_check = deletion_bound_check
    """,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_output_is_counted_as_failed(workload, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(FAULTS[workload]))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    code, stdout = bench(workload, 0, env=env)
    result = result_of(stdout)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    ratio = next(line for line in stdout.splitlines() if line.startswith("failed_ratio"))
    assert not ratio.startswith("failed_ratio 0 ")
    assert "FAILED" in stdout


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("oracle", 0, cwd=tmp_path)
    assert code != 0
    assert "correct" not in stdout


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_each_job_is_divided_by_the_median_of_the_loops_around_it():
    assert refloop.local_medians([1.0, 9.0, 1.0, 1.0, 9.0], window=1) == [
        5.0, 1.0, 1.0, 1.0, 5.0]
    assert refloop.reference() > 0


def _layer_outputs():
    """A little of every layer, with results compared as text."""
    out = []
    for pair in worker.oracle_inputs(5, jobs=6, long=2, max_len=40, max_index=6):
        out.append([str(x) for x in worker.oracle_job(pair)])
    for trial in worker.lemma_inputs(5, jobs=4, radius=3):
        out.append(worker.lemma_text(worker.lemma_job(trial)))
    s = folner.ball(3)
    out.append(folner.histogram_csv(folner.class_histogram(s)))
    out.append(str(folner.subgraph_density(folner.drop_classes(s, [classify.ClassLabel.M2]))))
    out.append(classify.check_closures(s))
    return out


def test_traced_and_untraced_outputs_are_identical_and_originals_come_back(capsys):
    names = {
        (folner, "nf_multiply"), (classify, "nf_multiply"), (classify, "nf_to_diagram"),
        (folner, "class_of"), (cli, "class_of"), (words, "format_word"),
        (diagrams, "concat_product"), (cli, "run"),
    }
    originals = {(m, n): getattr(m, n) for m, n in names}
    init = words.NormalForm.__init__
    plain = _layer_outputs()
    t = tracer.Tracer()
    t.install("thompsonf")
    try:
        assert all(getattr(m, n) is not originals[m, n] for m, n in names)
        with t.job():
            traced = _layer_outputs()
            assert cli.run(["histogram", "2"]) == 0
    finally:
        t.uninstall()
    assert traced == plain
    assert all(getattr(m, n) is originals[m, n] for m, n in names)
    assert words.NormalForm.__init__ is init
    assert "class,count" in capsys.readouterr().out
    values = tracer.layer_metrics([json.loads(json.dumps(t.summary()))], 1.0)
    assert values["diagrams.concat_product.calls"] == 6
    assert values["folner.deletion_bound_check.self_s"] > 0
    assert values["classify.check_closures.self_s"] > 0
    assert 0 < values["classify.class_of.repeat_ratio"] < 1
