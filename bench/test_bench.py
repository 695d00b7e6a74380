"""Tests of the benchmark itself: its checks, its trace and its inputs.

Run from the repository root:

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import walkjones

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def table_jobs():
    return workloads.build_jobs(walkjones, "table-n2n3", 0)


@pytest.fixture(scope="module")
def small_jobs(table_jobs):
    # 12 jobs at N=2 and 4 at N=3, all under a tenth of a second.
    return table_jobs[:12] + table_jobs[84:88]


def traced_pass(jobs, hooks=spans.HOOKS):
    with spans.SpanRecorder(walkjones, hooks) as recorder:
        result = run.run_pass(walkjones.cjp, jobs, recorder)
    return recorder, result


def test_trace_leaves_polynomials_unchanged(small_jobs):
    original = walkjones.cjp.colored_jones
    plain = run.run_pass(walkjones.cjp, small_jobs)
    _, traced = traced_pass(small_jobs)
    assert plain.failed == traced.failed == 0
    assert plain.polynomials == traced.polynomials
    assert walkjones.cjp.colored_jones is original


def test_per_layer_counts_repeat_exactly(small_jobs):
    first, _ = traced_pass(small_jobs)
    second, _ = traced_pass(small_jobs)
    assert first.counts == second.counts
    calls = {name: layer["calls"] for name, layer in spans.layer_times(first.spans).items()}
    assert calls == {name: layer["calls"] for name, layer in spans.layer_times(second.spans).items()}
    assert len(first.spans) == len(second.spans)


def test_generator_runs_three_times_per_job(small_jobs):
    # Two runs for the orientation choice, one for the chosen braid.
    recorder, _ = traced_pass(small_jobs)
    assert recorder.counts["burau.generator_calls"] == 3 * len(small_jobs)


def test_reference_matches_engine_on_a_subset():
    reference = workloads.load_reference()
    for name, color in (("3_1", 2), ("4_1", 3), ("6_2", 2), ("7_4", 3), ("8_19", 2), ("9_2", 4)):
        braid = walkjones.knot_lookup(name).braid_word()
        poly = walkjones.colored_jones(braid, color).polynomial
        assert poly.terms == reference[workloads.job_key(name, color)], (name, color)


def test_corrupted_reference_entry_is_counted(tmp_path, monkeypatch):
    data = json.loads(workloads.REFERENCE_PATH.read_text())
    data["polynomials"]["4_1@2"][0][1] += 1
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", bad)
    jobs = workloads.build_jobs(walkjones, "table-n2n3", 0)[:5]
    result = run.run_pass(walkjones.cjp, jobs)
    assert result.failed == 1
    assert result.polynomials[0] == jobs[0].expected


def test_absent_hook_is_reported_and_harmless(small_jobs):
    hooks = spans.HOOKS + (
        ("cjp", "renamed_stage", "cjp.renamed_stage", None),
        ("nosuchmodule", "walk", "nosuchmodule.walk", None),
    )
    recorder, result = traced_pass(small_jobs, hooks)
    assert recorder.absent == ["cjp.renamed_stage", "nosuchmodule.walk"]
    assert result.failed == 0
    present, _ = traced_pass(small_jobs)
    assert recorder.counts == present.counts


def test_failing_counter_does_not_stop_the_run(small_jobs):
    def broken(counts, args, result):
        raise KeyError("renamed field")

    hooks = tuple((t, a, n, broken if n == spans.STACK_MULTIPLY else o) for t, a, n, o in spans.HOOKS)
    recorder, result = traced_pass(small_jobs, hooks)
    assert recorder.broken == {spans.STACK_MULTIPLY}
    assert result.failed == 0


def test_layer_times_subtract_children_and_counting():
    trace = [
        ("cjp.colored_jones", 0.0, 10.0, -1, "j", 1.0),
        (spans.STACK_MULTIPLY, 1.0, 4.0, 0, "j", 0.5),
        (spans.KERNEL, 1.5, 3.0, 1, "j", 0.0),
        ("burau.walk_generator", 5.0, 7.0, 0, "j", 0.0),
        (spans.KERNEL, 5.5, 6.0, 3, "j", 0.0),
    ]
    layers = spans.layer_times(trace)
    assert layers["cjp.colored_jones"]["total"] == 9.0
    assert layers["cjp.colored_jones"]["self"] == 9.0 - 2.5 - 2.0
    assert layers[spans.STACK_MULTIPLY]["self"] == 2.5 - 1.5
    assert layers[spans.KERNEL + ".stack"]["total"] == 1.5
    assert layers[spans.KERNEL + ".generator"]["total"] == 0.5


def test_markov_words_are_seeded_knots():
    records = walkjones.load_table()
    words = workloads.markov_words(records, 7)
    assert words == workloads.markov_words(records, 7)
    assert words != workloads.markov_words(records, 8)
    assert len(words) == 2 * len(records)
    by_name = {r.name: r for r in records}
    for job_id, name, text in words:
        braid = walkjones.parse_braid(text)
        assert braid.is_knot_closure(), job_id
        variant = int(job_id.rsplit("~", 1)[1])
        assert braid.strands == by_name[name].braid_word().strands + variant
        assert braid.k == by_name[name].braid_word().k + 2 + variant


def test_markov_jobs_match_their_source_knot():
    jobs = workloads.build_jobs(walkjones, "markov-n2", 3)
    sample = [job for job in jobs if job.braid.strands <= 4][:12]
    assert run.run_pass(walkjones.cjp, sample).failed == 0


def test_metric_names_match_benchmark_json(small_jobs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run.run_pass(walkjones.cjp, small_jobs)
    e2e = run.end_to_end(small_jobs, [plain], 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    traced = [traced_pass(small_jobs)]
    layer = run.per_layer(small_jobs, traced, [plain], 0.5)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".trace", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "table-n2n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
