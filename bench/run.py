"""walkjones benchmark: one workload, one process, one job at a time.

Run from the repository root:

    python3 bench/run.py --workload table-n2n3 --seed 1 --seconds 30 --trace 0

A job is one colored Jones polynomial J_N of one braid. The run repeats
whole passes over the workload's jobs in a closed loop (each job starts when
the previous one has returned) for about ``--seconds``, checking every
polynomial. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints
per-layer metrics from the spans of the traced ones. Progress lines go
first; the last line of standard output is the result as one JSON object.

Times are reported at a fixed reference machine speed. On a shared machine
the speed this process gets drifts by tens of percent over seconds and
minutes, so short calibration samples of a fixed loop (sharing no code with
the engine) are interleaved with the jobs, and each measured time is scaled
by the samples around it. The progress lines also give the rate as measured.

The engine is imported from ``src/`` of the current directory and nowhere
else; without it the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

TRACE_DIR = Path(__file__).with_name(".trace")
SETUP_SAMPLES = 11
CALIBRATION_LOOPS = 40_000
CALIBRATE_EVERY_S = 0.5
# Median length of one calibration sample on the machine the baseline was
# measured on (2 vCPUs, Python 3.11.7); times are reported at that speed.
REFERENCE_SAMPLE_S = 0.020

# A fresh interpreter that stops at the point where a job could start.
SETUP_PROGRAM = """\
import sys
sys.path.insert(0, "src")
import walkjones
walkjones.load_table()
kernels = getattr(walkjones, "kernels", None)
if kernels is not None:
    kernels.active()
print("ready", flush=True)
"""


def calibration_sample() -> float:
    """Seconds taken by a fixed loop of tuple, dict and integer work that
    shares no code with the engine, so its length follows only the speed
    the machine gives this process at the moment."""
    start = perf_counter()
    table: dict = {}
    for i in range(CALIBRATION_LOOPS):
        key = (i % 61, i & 15)
        table[key] = table.get(key, 0) + i * 3 - (i >> 2)
    return perf_counter() - start


def reference_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibration samples to the
    reference machine speed."""
    return 2 * REFERENCE_SAMPLE_S / (before + after)


@dataclass
class Pass:
    raw: list[float] = field(default_factory=list)  # seconds per job as measured
    times: list[float] = field(default_factory=list)  # seconds per job at reference speed
    failed: int = 0
    polynomials: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.times)

    @property
    def scale(self) -> float:
        return self.seconds / sum(self.raw)


def run_pass(cjp, jobs, recorder=None) -> Pass:
    """Compute every job once, in order, and check each result.

    A calibration sample is taken before the first job, after each job
    that ends CALIBRATE_EVERY_S or more after the previous sample, and
    after the last job. Each job's time is scaled by the two samples
    around it.
    """
    out = Pass()
    samples = [calibration_sample()]
    before = []  # per job, the index of the sample taken before it
    since = 0.0
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = job.id
        start = perf_counter()
        try:
            poly = cjp.colored_jones(job.braid, job.color).polynomial
        except Exception:
            print(f"job {job.id} raised:", file=sys.stderr)
            traceback.print_exc()
            poly = None
        elapsed = perf_counter() - start
        out.raw.append(elapsed)
        out.polynomials.append(poly)
        if poly != job.expected:
            out.failed += 1
        before.append(len(samples) - 1)
        since += elapsed
        if since >= CALIBRATE_EVERY_S or i == len(jobs) - 1:
            samples.append(calibration_sample())
            since = 0.0
    out.times = [t * reference_scale(samples[s], samples[s + 1]) for t, s in zip(out.raw, before)]
    return out


def run_until(seconds: float, step) -> list:
    """Call step() at least once, and again while another call would end
    nearer to ``seconds`` than stopping now (calls take their median time)."""
    begin = perf_counter()
    results, lengths = [], []
    while True:
        start = perf_counter()
        results.append(step())
        lengths.append(perf_counter() - start)
        if perf_counter() - begin + statistics.median(lengths) / 2 > seconds:
            return results


def median_at_reference(measure, samples: int = SETUP_SAMPLES) -> float:
    """Median of ``samples`` calls of measure() (each returning seconds),
    each scaled by the calibration samples taken around it."""
    times = []
    before = calibration_sample()
    for _ in range(samples):
        elapsed = measure()
        after = calibration_sample()
        times.append(elapsed * reference_scale(before, after))
        before = after
    return statistics.median(times)


def fresh_setup() -> float:
    """Seconds for a fresh interpreter to import walkjones, load the table
    and resolve the kernel backend."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROGRAM], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with status {proc.returncode}")
    return elapsed


def table_load(walkjones) -> float:
    start = perf_counter()
    walkjones.load_table()
    return perf_counter() - start


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(jobs, passes: list[Pass], setup_s: float) -> dict:
    per_job_ms = [1000 * statistics.median(p.times[i] for p in passes) for i in range(len(jobs))]
    return {
        "jobs_per_s": (statistics.median(len(jobs) / p.seconds for p in passes), "1/s"),
        "job_ms_p50": (percentile(per_job_ms, 50), "ms"),
        "job_ms_p90": (percentile(per_job_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(jobs, traced: list, untraced: list[Pass], table_ms: float) -> dict:
    """Per-layer metrics: times are medians over the traced passes, counts
    come from the first traced pass (the caller checks that they repeat)."""
    layers = [(spans.layer_times(rec.spans), result.scale) for rec, result in traced]

    def ms(name, key):
        return 1000 * statistics.median(lay.get(name, {}).get(key, 0.0) * scale for lay, scale in layers)

    counts = traced[0][0].counts
    pairs = counts["weyl.pairs_tried"]
    metrics = {
        "table.load_ms": (table_ms, "ms"),
        "cjp.loop_ms": (ms("cjp.colored_jones", "self"), "ms"),
        "cjp.orientation_ms": (ms("cjp.choose_orientation", "self"), "ms"),
        "burau.generator_ms": (ms("burau.walk_generator", "total"), "ms"),
        "burau.braid_matrix_ms": (ms("burau.braid_matrix", "total"), "ms"),
        "burau.quantum_det_ms": (ms("burau.quantum_det", "total"), "ms"),
        "weyl.multiply_ms": (ms(spans.STACK_MULTIPLY, "self"), "ms"),
        "weyl.evaluate_ms": (ms("weyl.evaluate_walk_sum", "total"), "ms"),
        "kernels.walk_products_ms.stack": (ms(spans.KERNEL + ".stack", "total"), "ms"),
        "kernels.walk_products_ms.generator": (ms(spans.KERNEL + ".generator", "total"), "ms"),
        "burau.generator_calls_per_job": (counts["burau.generator_calls"] / len(jobs), "count"),
        "weyl.keep_ratio": (counts["weyl.keys_out"] / pairs if pairs else 0.0, "ratio"),
    }
    for name in spans.COUNTERS:
        if name != "burau.generator_calls":
            metrics[name] = (counts[name], "bits" if name.endswith("_bits_max") else "count")
    for stage, share in spans.stage_shares({
        name: {key: ms(name, key) for key in ("self", "total")} for name in layers[0][0]
    }).items():
        metrics[f"share.{stage}"] = (share, "frac")
    overhead = statistics.median(p.seconds for _, p in traced) / statistics.median(p.seconds for p in untraced)
    metrics["trace.overhead_frac"] = (overhead - 1, "frac")
    metrics["trace.spans"] = (len(traced[0][0].spans), "count")
    metrics["trace.absent_hooks"] = (len(traced[0][0].absent), "count")
    return metrics


def write_spans(path: Path, recorder, header: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, job, counting in recorder.spans:
            fh.write(json.dumps([name, start, end, parent, job, counting]) + "\n")


def import_engine(root: Path):
    """Import walkjones from root/src; without those sources, fail rather
    than fall back to an installed copy."""
    src = root / "src"
    if not (src / "walkjones" / "__init__.py").is_file():
        raise ImportError(f"no walkjones sources under {src}")
    sys.path.insert(0, str(src))
    return importlib.import_module("walkjones")


def backend_name(walkjones) -> str:
    kernels = getattr(walkjones, "kernels", None)
    return kernels.active_name() if kernels is not None else "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        walkjones = import_engine(Path.cwd())
    except ImportError as exc:
        print(f"bench: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    cjp = walkjones.cjp
    jobs = workloads.build_jobs(walkjones, args.workload, args.seed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": backend_name(walkjones),
        "jobs_per_pass": len(jobs),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "trace": args.trace,
    }
    print(json.dumps(info), flush=True)

    if args.trace == 0:
        setup_s = median_at_reference(fresh_setup)
        passes = run_until(args.seconds, lambda: run_pass(cjp, jobs))
        metrics = end_to_end(jobs, passes, setup_s)
        counts_repeat = True
    else:
        table_ms = 1000 * median_at_reference(lambda: table_load(walkjones))

        def pair():
            plain = run_pass(cjp, jobs)
            with spans.SpanRecorder(walkjones) as recorder:
                traced = run_pass(cjp, jobs, recorder)
            return plain, (recorder, traced)

        pairs = run_until(args.seconds, pair)
        passes = [p for pr in pairs for p in (pr[0], pr[1][1])]
        traced = [pr[1] for pr in pairs]
        first = traced[0][0]
        counts_repeat = all(rec.counts == first.counts for rec, _ in traced)
        if not counts_repeat:
            print("bench: per-layer counts differ between traced passes", file=sys.stderr)
        if first.absent:
            print(f"bench: absent layers (hook target not found): {', '.join(first.absent)}")
        if first.broken:
            print(f"bench: layers whose counters failed: {', '.join(sorted(first.broken))}")
        metrics = per_layer(jobs, traced, [pr[0] for pr in pairs], table_ms)
        write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", first, info)

    attempted = len(jobs) * len(passes)
    failed = sum(p.failed for p in passes)
    raw_rate = statistics.median(len(jobs) / sum(p.raw) for p in passes)
    print(f"passes {len(passes)}, failed_frac {failed / attempted:.6g}, "
          f"jobs_per_s as measured {raw_rate:.6g} (machine speed {statistics.median(p.scale for p in passes):.4g} "
          f"of reference)")
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
