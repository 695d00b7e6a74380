"""Command line surface: formats, exit codes, bench CSV."""
import json

import pytest

from walkjones import cjp, cli
from walkjones.cjp import simple_walk_count
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
    assert payload["braid_used"] == "1 1 1"
    assert "time_ms" in payload


@pytest.mark.parametrize("color, used", [("3", "-1 -1 -2 1 -2 -2 -3 2 -3 -4 3 -4"), ("4", "1 2 -1 2 2 3 -2 3 4 -3 4 1")])
def test_compute_json_braid_used(capsys, color, used):
    code, out, _ = run(capsys, "compute", "--knot", "9_5", "--color", color, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["braid_used"] == used
    assert payload["mirror_used"] == (color == "3")


def test_compute_eval_q(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "3_1", "--eval-q", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q + q^3 - q^4"
    assert "1" in lines[1]


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "1+nanj", "0.5-infi", "1e200", "1e-200", "2e200j"])
def test_compute_non_finite_eval_q_exit_1(capsys, value):
    # the figure eight's q^2 term overflows at a huge q and its q^-2 at a tiny one
    code, out, err = run(capsys, "compute", "--knot", "4_1", "--eval-q", value)
    assert code == 1
    assert out == ""
    assert err.startswith("walkjones: bad --eval-q value: ")
    assert "not finite" in err


def test_compute_eval_q_imaginary_unit_i(capsys):
    code, out, _ = run(capsys, "compute", "--braid", "1 1 1", "--eval-q", "0.5+0.5i")
    assert code == 0
    assert out.splitlines()[1] == f"J(0.5+0.5i) = {P('q + q^3 - q^4').eval_at(0.5 + 0.5j)}"


def test_compute_eval_q_negative_complex_space_separated(capsys):
    # a value starting with "-" that argparse would read as an option
    code, out, _ = run(capsys, "compute", "--knot", "3_1", "--eval-q", "-0.5+0.5j")
    assert code == 0
    assert out.splitlines()[1] == f"J(-0.5+0.5j) = {P('q + q^3 - q^4').eval_at(-0.5 + 0.5j)}"
    code, out, err = run(capsys, "compute", "--knot", "3_1", "--eval-q", "-1e100j")
    assert code == 1
    assert out == ""
    assert err.startswith("walkjones: bad --eval-q value: ")
    assert "not finite" in err


def test_compute_non_knot_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--braid", "1 1", "--color", "2")
    assert code == 2
    assert "not a knot" in err


@pytest.mark.parametrize("argv", [("--braid", "99999999999999999999"), ("--braid", "1", "--strands", "99999999999999999999")])
def test_compute_huge_strand_count_not_a_knot_exit_2(capsys, argv):
    code, out, err = run(capsys, "compute", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("walkjones: closure of ") and err.endswith(" strands is not a knot\n")


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


def test_compute_oracle_flag_exit_1(capsys):
    # the brute-force oracle is a library function, not a CLI route
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--knot", "4_1", "--oracle"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --oracle" in capsys.readouterr().err


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
        assert int(r["simple_walks_used"]) == min(int(r["simple_walks"]), int(r["simple_walks_mirror"]))
    fig8 = rows[2]
    assert (fig8["simple_walks"], fig8["walks_no_drl"]) == ("5", "9")


def test_bench_reports_walks_of_the_cut_that_ran(capsys, tmp_path):
    table = tmp_path / "9_5.csv"
    table.write_text("name,crossings,braid\n9_5,9,1 1 2 -1 2 2 3 -2 3 4 -3 4\n")
    code, out, _ = run(capsys, "bench", "--table", str(table), "--colors", "3,4")
    assert code == 0
    rows = [dict(zip(BENCH_COLUMNS, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert [(r["N"], r["simple_walks"], r["simple_walks_mirror"], r["simple_walks_used"]) for r in rows] == [
        ("3", "47", "45", "45"), ("4", "47", "45", "23"),
    ]


def test_bench_threads_unknown_option_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--max-crossings", "3", "--threads", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_bench_row_reuses_the_orientation_walk_counts(monkeypatch):
    # at N <= 3 a row runs the level-one generator three times, all inside
    # colored_jones: the input word, its mirror, and the word that ran
    records = [r for r in load_table() if r.name in ("4_1", "9_5")]
    calls = []
    generator = cjp.walk_generator
    monkeypatch.setattr(cjp, "walk_generator", lambda *args, **kw: calls.append(args) or generator(*args, **kw))
    assert len(cli.bench_rows(records, [2])) == len(records)
    assert len(calls) == 3 * len(records)
    monkeypatch.undo()
    rows = cli.bench_rows(records, [2, 4])
    braids = [rec.braid_word() for rec in records for _ in (2, 4)]
    assert [(row["simple_walks"], row["simple_walks_mirror"]) for row in rows] == [
        (simple_walk_count(b), simple_walk_count(b.mirror())) for b in braids
    ]


def test_bench_deterministic_nontime_columns(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "bench", "--max-crossings", "5", "--colors", "2")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        runs.append([[c for i, c in enumerate(row) if BENCH_COLUMNS[i] != "time_ms"] for row in rows])
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize(
    "row, message",
    [
        ("4_1,x,-1 2 -1 2", "{table}: row 3: crossings 'x' is not an integer"),
        ("4_1,4,-1 x -1 2", "4_1: bad braid token 'x': expected a nonzero signed integer"),
    ],
    ids=["crossings", "braid"],
)
def test_table_bad_value_named(capsys, tmp_path, row, message):
    # compute and bench both name the file and row, or the knot
    table = tmp_path / "bad.csv"
    table.write_text(f"name,crossings,braid\n3_1,3,1 1 1\n{row}\n")
    expected = f"walkjones: {message.format(table=table)}\n"
    for argv in (("compute", "--knot", "4_1"), ("bench",)):
        code, out, err = run(capsys, *argv, "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == expected


@pytest.mark.parametrize(
    "braid, code, message",
    [("x", 1, "bad braid token 'x'"), ("1 1", 2, "closure of 1 1 on 2 strands is not a knot")],
)
def test_bench_bad_braid_named(capsys, monkeypatch, tmp_path, braid, code, message):
    # the bad row comes last, and no row may be computed before it is found
    computed = []
    monkeypatch.setattr(cli, "colored_jones", lambda *args: computed.append(args))
    table = tmp_path / "bad.csv"
    table.write_text(f"name,crossings,braid\n4_1,4,-1 2 -1 2\n3_1,3,{braid}\n")
    got, out, err = run(capsys, "bench", "--table", str(table))
    assert got == code
    assert out == ""
    assert err.startswith(f"walkjones: 3_1: {message}")
    assert computed == []


def test_compute_strands_with_knot_exit_1(capsys):
    code, out, err = run(capsys, "compute", "--knot", "3_1", "--strands", "5")
    assert code == 1
    assert out == ""
    assert "--strands" in err
