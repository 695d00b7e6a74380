"""Bundled knot table: minimal braid words for prime knots up to 9 crossings.

The table ships as a plain CSV (name, crossings, braid) next to this module
and can be overridden with any file in the same format. Braid words come
from standard minimal-braid tables; the test suite re-validates that every
record closes to a knot rather than trusting the data.
"""
from __future__ import annotations

import csv
import difflib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .braid import BraidWord, parse_braid

_COLUMNS = ("name", "crossings", "braid")


@dataclass(frozen=True)
class KnotRecord:
    name: str
    crossings: int
    braid: str

    def braid_word(self) -> BraidWord:
        return parse_braid(self.braid)


def load_table(path: str | Path | None = None) -> list[KnotRecord]:
    """Load the bundled table, or any CSV with columns name,crossings,braid."""
    if path is None:
        text = resources.files("walkjones").joinpath("knots.csv").read_text()
    else:
        text = Path(path).read_text()
    records = []
    reader = csv.DictReader(text.splitlines())
    missing = [c for c in _COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path or 'knots.csv'}: missing column(s) {', '.join(missing)}")
    for row in reader:
        where = f"{path or 'knots.csv'}: row {reader.line_num}"
        gaps = [c for c in _COLUMNS if not (row[c] or "").strip()]
        if gaps:
            raise ValueError(f"{where}: missing {', '.join(gaps)}")
        crossings = row["crossings"].strip()
        try:
            count = int(crossings)
        except ValueError:
            raise ValueError(f"{where}: crossings {crossings!r} is not an integer") from None
        records.append(KnotRecord(row["name"].strip(), count, row["braid"].strip()))
    return records


def knot_lookup(name: str, records: list[KnotRecord] | None = None) -> KnotRecord:
    """Find a record by name; unknown names raise with near matches listed."""
    if records is None:
        records = load_table()
    for rec in records:
        if rec.name == name:
            return rec
    near = difflib.get_close_matches(name, [r.name for r in records], n=3)
    hint = f" (close matches: {', '.join(near)})" if near else ""
    raise KeyError(f"unknown knot {name!r}{hint}")
