"""Regenerate bench/reference.json from the engine in src/.

Run from the repository root:

    python3 bench/make_reference.py

Every polynomial is checked before it is stored: the result without the
mirror choice must be the same polynomial, J_N(1) must be 1, and on the
knots the brute-force oracle can handle (3_1, 4_1, 5_1, 5_2 at N = 2, 3)
the oracle must agree. Any failed check aborts without writing the file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ORACLE_KNOTS = ("3_1", "4_1", "5_1", "5_2")


def checked_polynomial(walkjones, name: str, text: str, color: int):
    braid = walkjones.parse_braid(text)
    poly = walkjones.colored_jones(braid, color).polynomial
    problems = []
    if walkjones.colored_jones(braid, color, mirror_opt=False).polynomial != poly:
        problems.append("mirror_opt=False gives another polynomial")
    if sum(poly.terms.values()) != 1:
        problems.append("J_N(1) != 1")
    if name in ORACLE_KNOTS and color in (2, 3):
        if walkjones.naive_colored_jones(braid, color) != poly:
            problems.append("brute-force oracle disagrees")
    if problems:
        raise SystemExit(f"{name} N={color}: {'; '.join(problems)}")
    return poly


def main() -> int:
    sys.path.insert(0, "src")
    import walkjones

    records = walkjones.load_table()
    polynomials = {}
    for workload in ("table-n2n3", "high-color"):
        for name, text, color in workloads.reference_specs(records, workload):
            poly = checked_polynomial(walkjones, name, text, color)
            polynomials[workloads.job_key(name, color)] = sorted(poly.terms.items())
            print(f"{name} N={color}: {len(poly)} terms", flush=True)
    # One polynomial per line, so a regenerated file diffs job by job.
    rows = ",\n".join(f"{json.dumps(key)}: {json.dumps(terms)}" for key, terms in polynomials.items())
    workloads.REFERENCE_PATH.write_text(
        '{"about": "J_N(q) of every table-n2n3 and high-color job as [exponent, coefficient] pairs",\n'
        f'"polynomials": {{\n{rows}\n}}}}\n'
    )
    print(f"wrote {len(polynomials)} polynomials to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
