"""Acceptance criteria, one test per criterion.

Each criterion prints a single PASS/FAIL line (visible with `pytest -s`
or `-rA`) including its wall-clock time, and enforces the stated runtime
bounds where the criterion pins one.
"""
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import rand_mono, rand_signs
from walk_helpers import mono_mul, summed
from walkjones.braid import BraidWord, parse_braid
from walkjones.burau import unpruned_walk_count, walk_generator
from walkjones.cjp import colored_jones, simple_walk_count
from walkjones.cli import bench_rows
from walkjones.laurent import LaurentPolynomial
from walkjones.oracle import (
    FreeWord,
    KeyedMonomial,
    _normalize_random_schedule,
    free_normalize,
    naive_colored_jones,
)
from walkjones.table import knot_lookup, load_table
from walkjones.weyl import zero_key

P = LaurentPolynomial.parse
ONE = LaurentPolynomial.one()


def _report(num, desc, started, limit=None):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {num:2d} PASS {desc} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def _fail_line(num, desc):
    print(f"\nACCEPTANCE {num:2d} FAIL {desc}")


def _letters(text):
    return tuple((tok[0], int(tok[1:])) for tok in text.split())


def test_criterion_1_paper_walk_sum():
    desc = "level-one walk sum of the figure-eight braid matches the displayed nine monomials"
    started = time.perf_counter()
    try:
        braid = parse_braid("-1 2 -1 2")
        signs = braid.signs()
        displayed = [
            ("q^3", "c2 a3 a4 a1 a2 a3 b4"),
            ("-q^2", "a1 a2 a3 a4 c2 a3 b4"),
            ("q", "a1 a2 a3 a4"),
            ("q^3", "c2 a3 a4 b1 c3 b4"),
            ("-q^2", "b1 c3 a4 c2 a3 b4"),
            ("q", "b1 c3 a4"),
            ("-q^2", "a1 b2 c4 c2 a3 b4"),
            ("q", "c2 a3 b4"),
            ("q", "a1 b2 c4"),
        ]
        normalized = [free_normalize(FreeWord(_letters(text), P(coeff)), signs) for coeff, text in displayed]
        expected = summed((mono.key, mono.coeff) for mono in normalized)
        assert walk_generator(braid, prune_simple=False) == expected
        assert unpruned_walk_count(braid) == 9
    except BaseException:
        _fail_line(1, desc)
        raise
    _report(1, desc, started, limit=1.0)


def test_criterion_2_simple_walks():
    desc = "simple-walk pruning: figure-eight 5 walks, trefoil 1, mirror trefoil 3"
    started = time.perf_counter()
    try:
        from conftest import key_from_letters

        pruned = walk_generator(parse_braid("-1 2 -1 2"), prune_simple=True)
        assert len(pruned) == 5
        for word in ("a1 a2 a3 a4", "b1 c3 a4", "c2 a3 b4", "a1 b2 c4"):
            assert pruned.entries[key_from_letters(4, word)] == P("q")
        assert pruned.entries[key_from_letters(4, "a1 b2 c2 a3 b4 c4")] == P("-1")
        assert simple_walk_count(parse_braid("1 1 1")) == 1
        assert simple_walk_count(parse_braid("-1 -1 -1")) == 3
    except BaseException:
        _fail_line(2, desc)
        raise
    _report(2, desc, started)


def test_criterion_3_end_to_end_values():
    desc = "exact polynomials: J2(4_1), J2(trefoil), J3(trefoil)"
    started = time.perf_counter()
    try:
        checks = [
            ("-1 2 -1 2", 2, "q^-2 - q^-1 + 1 - q + q^2"),
            ("1 1 1", 2, "q + q^3 - q^4"),
            ("1 1 1", 3, "q^2 + q^5 - q^7 + q^8 - q^9 - q^10 + q^11"),
        ]
        for text, color, expected in checks:
            t0 = time.perf_counter()
            result = colored_jones(parse_braid(text), color)
            assert result.polynomial == P(expected), (text, color)
            assert time.perf_counter() - t0 < 1.0
    except BaseException:
        _fail_line(3, desc)
        raise
    _report(3, desc, started)


def test_criterion_4_unknot_battery():
    desc = "unknot braids give exactly 1 for all colors up to 10"
    started = time.perf_counter()
    try:
        for text in ("1", "-1", "1 2", "1 -2 -3"):
            braid = parse_braid(text)
            for color in range(1, 11):
                assert colored_jones(braid, color).polynomial == ONE, (text, color)
    except BaseException:
        _fail_line(4, desc)
        raise
    _report(4, desc, started)


def test_criterion_5_color_one_battery():
    desc = "J1 = 1 for every bundled knot"
    started = time.perf_counter()
    try:
        for rec in load_table():
            result = colored_jones(rec.braid_word(), 1)
            assert result.polynomial == ONE, rec.name
            assert result.framing_exponent == 0, rec.name
    except BaseException:
        _fail_line(5, desc)
        raise
    _report(5, desc, started, limit=30.0)


def test_criterion_6_oracle_equivalence():
    desc = "naive full expansion equals the engine (pruning on and off) on 3_1, 4_1, 5_1, 5_2"
    started = time.perf_counter()
    try:
        for name in ("3_1", "4_1", "5_1", "5_2"):
            braid = knot_lookup(name).braid_word()
            for color in (2, 3):
                reference = naive_colored_jones(braid, color)
                assert colored_jones(braid, color, drl=True).polynomial == reference, (name, color)
                assert (
                    colored_jones(braid, color, drl=False, mirror_opt=False).polynomial == reference
                ), (name, color)
    except BaseException:
        _fail_line(6, desc)
        raise
    _report(6, desc, started, limit=300.0)


def test_criterion_7_symmetry_battery():
    desc = "mirror relation <= 8 crossings, palindromic amphichirals, Markov moves"
    started = time.perf_counter()
    try:
        records = [r for r in load_table() if r.crossings <= 8]
        for rec in records:
            braid = rec.braid_word()
            for color in (2, 3):
                direct = colored_jones(braid, color, mirror_opt=False).polynomial
                mirrored = colored_jones(braid.mirror(), color, mirror_opt=False).polynomial
                assert direct == mirrored.invert_var(), (rec.name, color)
        for name in ("4_1", "6_3", "8_3"):
            braid = knot_lookup(name).braid_word()
            for color in (2, 3, 4):
                poly = colored_jones(braid, color).polynomial
                assert poly == poly.invert_var(), (name, color)
        for name in ("3_1", "4_1"):
            braid = knot_lookup(name).braid_word()
            for color in (2, 3):
                base = colored_jones(braid, color).polynomial
                for index in range(1, braid.strands):
                    for sign in (1, -1):
                        conj = BraidWord(
                            ((index, sign),) + braid.crossings + ((index, -sign),), braid.strands
                        )
                        assert colored_jones(conj, color).polynomial == base, (name, color, index)
                for sign in (1, -1):
                    stab = BraidWord(braid.crossings + ((braid.strands, sign),), braid.strands + 1)
                    assert colored_jones(stab, color).polynomial == base, (name, color, sign)
    except BaseException:
        _fail_line(7, desc)
        raise
    _report(7, desc, started)


def _spearman(xs, ys):
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                out[order[t]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx) ** 0.5
    vy = sum((b - my) ** 2 for b in ry) ** 0.5
    return cov / (vx * vy)


def test_criterion_8_drl_impact_and_bench():
    desc = "pruning impact and full-table bench at color 2"
    started = time.perf_counter()
    try:
        records = load_table()
        rows = bench_rows(records, [2], with_no_drl=True)
        assert time.perf_counter() - started < 600.0, "bench exceeded 10 minutes"
        for row in rows:
            assert row["simple_walks"] <= row["walks_no_drl"], row["name"]
        by_name = {row["name"]: row for row in rows}
        assert by_name["4_1"]["simple_walks"] < by_name["4_1"]["walks_no_drl"]
        strict = sum(1 for r in rows if r["simple_walks"] < r["walks_no_drl"])
        assert strict >= 1
        used_walks = [min(r["simple_walks"], r["simple_walks_mirror"]) for r in rows]
        times = [float(r["time_ms"]) for r in rows]
        rho = _spearman(used_walks, times)
        print(f"\n  criterion 8: strict-prune rows {strict}/{len(rows)}, spearman(time, walks) = {rho:.3f}")
        assert rho > 0.5, f"rank correlation {rho:.3f} <= 0.5"
    except BaseException:
        _fail_line(8, desc)
        raise
    _report(8, desc, started, limit=600.0)


def test_criterion_9_thread_determinism():
    desc = "byte-identical polynomials across thread counts 1, 2 and max"
    started = time.perf_counter()
    try:
        records = load_table()
        outputs = []
        for threads in (1, 2, os.cpu_count() or 2):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                polys = list(pool.map(lambda rec: colored_jones(rec.braid_word(), 2).polynomial.format(), records))
            outputs.append(list(zip((r.name for r in records), polys)))
        assert outputs[0] == outputs[1] == outputs[2]
    except BaseException:
        _fail_line(9, desc)
        raise
    _report(9, desc, started)


def test_criterion_10_randomized_property_suites():
    desc = "1000-case property suites: associativity, normalization agreement, ring axioms"
    started = time.perf_counter()
    try:
        rng = random.Random(2025)
        for _ in range(1000):
            k = rng.randint(1, 4)
            signs = rand_signs(rng, k)
            m1, m2, m3 = (rand_mono(rng, k) for _ in range(3))
            assert mono_mul(mono_mul(m1, m2, signs), m3, signs) == mono_mul(
                m1, mono_mul(m2, m3, signs), signs
            )
        for _ in range(1000):
            k = rng.randint(1, 4)
            signs = rand_signs(rng, k)
            letters = tuple((rng.choice("abc"), rng.randint(1, k)) for _ in range(rng.randint(0, 12)))
            word = FreeWord(letters, ONE)
            bubble = free_normalize(word, signs)
            assert bubble == _normalize_random_schedule(word, signs, rng)
            acc = KeyedMonomial(zero_key(k), ONE)
            for kind, crossing in letters:
                key = list(zero_key(k))
                key[3 * (crossing - 1) + {"b": 0, "c": 1, "a": 2}[kind]] = 1
                acc = mono_mul(acc, KeyedMonomial(tuple(key), ONE), signs)
            assert acc == bubble
        for _ in range(1000):
            terms = lambda: LaurentPolynomial(
                {rng.randint(-5, 5): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))}
            )
            a, b, c = terms(), terms(), terms()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
    except BaseException:
        _fail_line(10, desc)
        raise
    _report(10, desc, started)
