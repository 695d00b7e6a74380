"""Command line interface: compute one polynomial, or benchmark the table.

Exit codes: 0 success, 1 bad arguments (checked before anything is
computed) or an input past the engine's size limit, 2 braid closure is
not a knot.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .braid import BraidWord, NotAKnotError, parse_braid
from .cjp import colored_jones
from .burau import simple_walk_count, unpruned_walk_count
from .table import KnotRecord, knot_lookup, load_table


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for non-knot only
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="walkjones", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute the colored Jones polynomial of one braid closure")
    src = comp.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", help="braid word as signed generator indices, e.g. '-1 2 -1 2'; "
                     "it runs on one strand more than its highest index (there is no --strands option)")
    src.add_argument("--knot", help="name from the bundled knot table, e.g. 4_1")
    comp.add_argument("--color", type=int, default=2, help="color N >= 1 (default 2; 2 = Jones polynomial)")
    comp.add_argument("--eval-q", default=None, metavar="COMPLEX",
                      help="additionally evaluate the polynomial at this q (e.g. '0.5+0.5j')")
    comp.add_argument("--format", choices=("text", "json"), default="text")
    comp.add_argument("--no-mirror-opt", action="store_true", help="disable mirror orientation selection")
    comp.add_argument("--no-drl", action="store_true", help="disable duplicate-reduction pruning")
    comp.add_argument("--table", default=None, help="knot table CSV overriding the bundled one")

    bench = sub.add_parser("bench", help="benchmark the knot table, CSV to stdout")
    bench.add_argument("--max-crossings", type=int, default=9)
    bench.add_argument("--colors", default="2", help="comma-separated color list (default '2')")
    bench.add_argument("--with-no-drl", action="store_true",
                       help="also count level-one walks without duplicate reduction")
    bench.add_argument("--table", default=None, help="knot table CSV overriding the bundled one")
    return parser


def _parse_colors(text: str) -> list[int]:
    try:
        colors = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad color list {text!r}")
    if not colors or any(n < 1 for n in colors):
        raise ValueError(f"colors must be >= 1, got {text!r}")
    return colors


def _table_braid(rec: KnotRecord) -> BraidWord:
    """The record's braid word; a bad word raises naming the knot."""
    try:
        return rec.braid_word()
    except ValueError as exc:
        raise ValueError(f"{rec.name}: {exc}") from None


def _resolve_braid(args) -> tuple[str, BraidWord]:
    if args.knot is None:
        return args.braid, parse_braid(args.braid)
    try:
        rec = knot_lookup(args.knot, load_table(args.table) if args.table else None)
    except KeyError as exc:  # str() of a KeyError quotes its message
        raise ValueError(exc.args[0]) from None
    return rec.name, _table_braid(rec)


def cmd_compute(args) -> int:
    label, braid = _resolve_braid(args)
    q0 = None
    if args.eval_q is not None:
        text = args.eval_q.strip()
        try:
            q0 = complex(text[:-1] + "j" if text.endswith("i") else text)
        except ValueError as exc:
            raise ValueError(f"bad --eval-q value: {exc}") from None

    start = time.perf_counter()
    result = colored_jones(braid, args.color, mirror_opt=not args.no_mirror_opt, drl=not args.no_drl)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    poly = result.polynomial

    value = None
    if q0 is not None:
        try:
            value = poly.eval_at(q0)
        except ValueError as exc:  # q = 0, not finite, or overflowing this polynomial
            raise ValueError(f"bad --eval-q value: {exc}") from None

    if args.format == "json":
        payload = {
            "input": label,
            "n": args.color,
            "mirror_used": result.mirror_used,
            "framing_exponent": result.framing_exponent,
            "heights_summed": result.heights_summed,
            "simple_walks": result.simple_walk_count,
            "braid_used": result.braid_used.text(),
            "strands": result.braid_used.strands,
            "crossings": result.braid_used.k,
            "factors": [
                {"braid_used": f.braid_used.text(), "strands": f.braid_used.strands,
                 "mirror_used": f.mirror_used, "simple_walks": f.simple_walk_count}
                for f in result.factors
            ],
            "terms": [{"exp": e, "coeff": c} for e, c in sorted(poly.terms.items())],
            "time_ms": elapsed_ms,
        }
        if value is not None:
            payload["eval"] = {"q": args.eval_q, "value": [value.real, value.imag]}
        print(json.dumps(payload))
    else:
        print(poly.format())
        if value is not None:
            print(f"J({args.eval_q}) = {value}")
    return 0


def _bench_row(rec: KnotRecord, color: int, with_no_drl: bool) -> dict:
    braid = rec.braid_word()
    # the engine measures the reduced word; one that reduces to one strand has no walks
    reduced = braid.reduced()
    no_drl = (unpruned_walk_count(reduced) if reduced.strands > 1 else 0) if with_no_drl else ""
    start = time.perf_counter()
    result = colored_jones(braid, color)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "name": rec.name,
        "crossings": rec.crossings,
        "strands": braid.strands,
        "simple_walks": simple_walk_count(reduced),
        "simple_walks_mirror": simple_walk_count(reduced.mirror()),
        "walks_no_drl": no_drl,
        "N": color,
        "heights": result.heights_summed,
        "time_ms": f"{elapsed_ms:.3f}",
        "terms": len(result.polynomial.terms),
        "simple_walks_used": result.simple_walk_count,
        "_poly": result.polynomial.format(),
    }


BENCH_COLUMNS = ["name", "crossings", "strands", "simple_walks", "simple_walks_mirror",
                 "walks_no_drl", "N", "heights", "time_ms", "terms", "simple_walks_used"]


def bench_rows(records, colors, with_no_drl=False):
    """Benchmark rows in table order."""
    return [_bench_row(rec, color, with_no_drl) for rec in records for color in colors]


def cmd_bench(args) -> int:
    colors = _parse_colors(args.colors)
    records = [r for r in load_table(args.table) if r.crossings <= args.max_crossings]
    # Every row is checked before any is computed, so a bad row fails at once.
    for rec in records:
        braid = _table_braid(rec)
        if not braid.is_knot_closure():
            raise NotAKnotError(f"{rec.name}: closure of {braid} is not a knot")
    rows = bench_rows(records, colors, with_no_drl=args.with_no_drl)
    print(",".join(BENCH_COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in BENCH_COLUMNS))
    return 0


def _join_eval_q(argv: list[str]) -> list[str]:
    """argv with each "--eval-q VALUE" joined into "--eval-q=VALUE", so that
    a value starting with "-", such as -0.5+0.5j, is not read as an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--eval-q" else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    """Run one command. Commands raise; this reports a ValueError, OSError
    or OverflowError as one line and exit 1, or exit 2 for a closure that
    is not a knot. Any other exception propagates."""
    args = _build_parser().parse_args(_join_eval_q(sys.argv[1:] if argv is None else argv))
    try:
        return (cmd_compute if args.command == "compute" else cmd_bench)(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"walkjones: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NotAKnotError) else 1


if __name__ == "__main__":
    sys.exit(main())
