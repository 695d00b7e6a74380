"""Benchmark workloads: the (braid, color) jobs each workload runs.

A job is one colored Jones polynomial. ``table-n2n3`` and ``high-color``
check against the stored reference polynomials; ``markov-n2`` checks each
moved braid against the engine's J_2 of the unmoved source braid, which
Markov invariance makes equal.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("table-n2n3", "high-color", "markov-n2")
HIGH_COLOR = (("9_1", 6), ("9_2", 4), ("9_5", 4), ("9_35", 5))


@dataclass
class Job:
    id: str
    braid: object  # walkjones.BraidWord
    color: int
    expected: object  # walkjones.LaurentPolynomial


def job_key(name: str, color: int) -> str:
    return f"{name}@{color}"


def reference_specs(records, workload: str) -> list[tuple[str, str, int]]:
    """(knot name, braid text, color) for each job of a reference workload."""
    if workload == "table-n2n3":
        return [(r.name, r.braid, n) for n in (2, 3) for r in records]
    if workload == "high-color":
        by_name = {r.name: r for r in records}
        return [(name, by_name[name].braid, n) for name, n in HIGH_COLOR]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def load_reference(path: Path | None = None) -> dict[str, dict[int, int]]:
    """Reference polynomials as {job key: {exponent: coefficient}}."""
    data = json.loads((path or REFERENCE_PATH).read_text())
    return {key: {e: c for e, c in terms} for key, terms in data["polynomials"].items()}


def markov_words(records, seed: int) -> list[tuple[str, str, int]]:
    """Seeded Markov-moved braid words: (job id, source knot, braid text).

    Each table braid is conjugated by a random generator, rotated cyclically
    by a random offset, then stabilized once (variant 1) or twice
    (variant 2), each stabilization adding a strand and a crossing of
    random sign. The closure stays the same knot.
    """
    rng = random.Random(f"markov-n2:{seed}")
    out = []
    for variant in (1, 2):
        for rec in records:
            word = [int(t) for t in rec.braid.split()]
            m = max(abs(v) for v in word) + 1
            g = rng.randint(1, m - 1) * rng.choice((1, -1))
            word = [g] + word + [-g]
            r = rng.randrange(len(word))
            word = word[r:] + word[:r]
            for _ in range(variant):
                word.append(m * rng.choice((1, -1)))
                m += 1
            out.append((f"{rec.name}~{variant}", rec.name, " ".join(map(str, word))))
    return out


def build_jobs(walkjones, workload: str, seed: int) -> list[Job]:
    """The workload's jobs, each with the polynomial it must produce."""
    records = walkjones.load_table()
    poly = walkjones.LaurentPolynomial
    if workload == "markov-n2":
        source = {}
        jobs = []
        for job_id, name, text in markov_words(records, seed):
            braid = walkjones.parse_braid(text)
            if not braid.is_knot_closure():
                raise ValueError(f"Markov move broke the knot closure: {job_id} = {text}")
            if name not in source:
                rec = walkjones.knot_lookup(name, records)
                source[name] = walkjones.colored_jones(rec.braid_word(), 2).polynomial
            jobs.append(Job(job_id, braid, 2, source[name]))
        return jobs
    specs = reference_specs(records, workload)
    reference = load_reference()
    return [
        Job(job_key(name, n), walkjones.parse_braid(text), n, poly(reference[job_key(name, n)]))
        for name, text, n in specs
    ]
