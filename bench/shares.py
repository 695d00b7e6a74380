"""Per-job stage shares from a span file written by a traced run.

    python3 bench/run.py --workload high-color --seed 1 --seconds 30 --trace 1
    python3 bench/shares.py bench/.trace/high-color-seed1.jsonl

Prints, for each job and for all jobs together, the traced job time and
the share of it spent in each stage (see spans.STAGES).
"""
from __future__ import annotations

import json
import sys

import spans


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        header = json.loads(fh.readline())
        recorded = [tuple(json.loads(line)) for line in fh]
    print(f"# {header['workload']} seed {header['seed']}, backend {header['backend']}")
    stages = [stage for stage, _, _ in spans.STAGES]
    print(f"{'job':12s} {'ms':>10s} " + " ".join(f"{s:>16s}" for s in stages))
    rows = spans.layer_times(recorded, per_job=True)
    rows["(all)"] = spans.layer_times(recorded)
    for job, layers in rows.items():
        ms = 1000 * layers.get("cjp.colored_jones", {}).get("total", 0.0)
        shares = spans.stage_shares(layers)
        print(f"{job:12s} {ms:10.1f} " + " ".join(f"{shares[s]:16.3f}" for s in stages))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
