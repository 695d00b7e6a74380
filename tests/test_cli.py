"""Command line surface: formats, exit codes, bench CSV."""
import json

import pytest

from walkjones.cli import BENCH_COLUMNS, main
from walkjones.laurent import LaurentPolynomial
from walkjones.table import load_table

P = LaurentPolynomial.parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_knot_text(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--color", "2")
    assert code == 0
    assert out.strip() == "q^-2 - q^-1 + 1 - q + q^2"


def test_compute_braid_color_one(capsys):
    code, out, _ = run(capsys, "compute", "--braid", "1 1 1", "--color", "1")
    assert code == 0
    assert out.strip() == "1"


def test_compute_unknot_any_color(capsys):
    code, out, _ = run(capsys, "compute", "--braid", "-1", "--color", "5")
    assert code == 0
    assert out.strip() == "1"


def test_compute_json_roundtrips_text(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "3_1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rebuilt = LaurentPolynomial({t["exp"]: t["coeff"] for t in payload["terms"]})
    assert rebuilt == P("q + q^3 - q^4")
    assert payload["input"] == "3_1"
    assert payload["n"] == 2
    assert payload["simple_walks"] >= 1
    assert "time_ms" in payload


def test_compute_eval_q(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "3_1", "--eval-q", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q + q^3 - q^4"
    assert "1" in lines[1]


def test_compute_non_knot_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--braid", "1 1", "--color", "2")
    assert code == 2
    assert "not a knot" in err


def test_compute_bad_braid_exit_1(capsys):
    code, _, err = run(capsys, "compute", "--braid", "0 2")
    assert code == 1
    assert "0" in err


def test_compute_bad_flags_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--braid", "1 1 1", "--knot", "3_1"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_compute_unknown_knot_exit_1(capsys):
    code, _, err = run(capsys, "compute", "--knot", "99_99")
    assert code == 1
    assert "99_99" in err


def test_compute_oracle_flag_matches(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--oracle")
    assert code == 0
    assert out.strip() == "q^-2 - q^-1 + 1 - q + q^2"


def test_compute_strands_override(capsys):
    # doubly stabilized unknot on 3 strands
    code, out, _ = run(capsys, "compute", "--braid", "1 2", "--color", "4")
    assert code == 0
    assert out.strip() == "1"


def test_bench_csv_shape(capsys):
    code, out, _ = run(capsys, "bench", "--max-crossings", "4", "--colors", "2,3", "--with-no-drl")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    rows = [dict(zip(BENCH_COLUMNS, line.split(","))) for line in lines[1:]]
    assert [(r["name"], r["N"]) for r in rows] == [("3_1", "2"), ("3_1", "3"), ("4_1", "2"), ("4_1", "3")]
    for r in rows:
        assert int(r["simple_walks"]) <= int(r["walks_no_drl"])
    fig8 = rows[2]
    assert (fig8["simple_walks"], fig8["walks_no_drl"]) == ("5", "9")


def test_bench_deterministic_nontime_columns(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "bench", "--max-crossings", "5", "--colors", "2")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        runs.append([[c for i, c in enumerate(row) if BENCH_COLUMNS[i] != "time_ms"] for row in rows])
    assert runs[0] == runs[1]


def test_bench_threads_preserve_order(capsys):
    _, seq, _ = run(capsys, "bench", "--max-crossings", "5", "--colors", "2")
    _, par, _ = run(capsys, "bench", "--max-crossings", "5", "--colors", "2", "--threads", "4")
    strip = lambda out: [
        [c for i, c in enumerate(line.split(",")) if BENCH_COLUMNS[i] != "time_ms"]
        for line in out.strip().splitlines()[1:]
    ]
    assert strip(seq) == strip(par)


def test_compute_missing_table_exit_1(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    code, out, err = run(capsys, "compute", "--knot", "3_1", "--table", str(missing))
    assert code == 1
    assert out == ""
    assert err.startswith("walkjones: ") and "missing.csv" in err


def test_table_missing_columns_named(capsys, tmp_path):
    table = tmp_path / "short.csv"
    table.write_text("name,braid\n3_1,1 1 1\n")
    with pytest.raises(ValueError, match=r"short\.csv.*crossings"):
        load_table(table)
    for argv in (("compute", "--knot", "3_1"), ("bench",)):
        code, out, err = run(capsys, *argv, "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == f"walkjones: {table}: missing column(s) crossings\n"


@pytest.mark.parametrize(
    "row, missing",
    [("4_1,4", "braid"), ("4_1", "crossings, braid"), ("4_1,,-1 2 -1 2", "crossings"), ("4_1,4, ", "braid")],
)
def test_table_missing_value_named(capsys, tmp_path, row, missing):
    table = tmp_path / "gap.csv"
    table.write_text(f"name,crossings,braid\n3_1,3,1 1 1\n{row}\n")
    with pytest.raises(ValueError, match=rf"gap\.csv: row 3: missing {missing}$"):
        load_table(table)
    for argv in (("compute", "--knot", "3_1"), ("bench",)):
        code, out, err = run(capsys, *argv, "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == f"walkjones: {table}: row 3: missing {missing}\n"


def test_compute_strands_with_knot_exit_1(capsys):
    code, out, err = run(capsys, "compute", "--knot", "3_1", "--strands", "5")
    assert code == 1
    assert out == ""
    assert "--strands" in err
