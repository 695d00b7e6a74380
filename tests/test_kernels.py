"""Kernel modules: the pure and compiled kernels agree bit for bit, the
compiled one is used exactly when it imports, and the shipped C source
matches the Cython source."""
import importlib
import random
import re
from pathlib import Path

import pytest

from walkjones import _purekernels as pure
from walkjones import kernels
from walkjones.braid import parse_braid
from walkjones.cjp import colored_jones

PACKAGE = Path(kernels.__file__).parent
MARKER = re.compile(r'/\* "walkjones/_corekernels\.pyx":(\d+)$')
FLAG = "             # <<<<<<<<<<<<<<"


def rand_items(rng, k, count):
    items = []
    for _ in range(count):
        key = tuple(rng.randint(0, 3) for _ in range(3 * k))
        coeff = {}
        for _ in range(rng.randint(1, 3)):
            coeff[rng.randint(-5, 5)] = rng.randint(-6, 6) or 1
        items.append((key, coeff))
    return items


def test_walk_products_parity_random():
    native = pytest.importorskip("walkjones._corekernels")
    rng = random.Random(71)
    for _ in range(400):
        k = rng.randint(1, 5)
        signs = tuple(rng.choice((1, -1)) for _ in range(k))
        a = rand_items(rng, k, rng.randint(1, 4))
        b = rand_items(rng, k, rng.randint(1, 4))
        n_limit = rng.choice((0, 1, 2, 3, 4))
        assert pure.walk_products(a, b, signs, n_limit) == native.walk_products(a, b, signs, n_limit)


def test_scalar_kernels_parity_random():
    native = pytest.importorskip("walkjones._corekernels")
    rng = random.Random(72)
    for _ in range(400):
        k = rng.randint(1, 5)
        signs = tuple(rng.choice((1, -1)) for _ in range(k))
        (ka, ca), (kb, cb) = rand_items(rng, k, 2)
        assert pure.key_product(ka, kb, signs) == native.key_product(ka, kb, signs)
        n = rng.randint(1, 5)
        assert pure.drl_keep(ka, n) == native.drl_keep(ka, n)
        shift = rng.randint(-4, 4)
        assert pure.poly_mul_shift(ca, cb, shift) == native.poly_mul_shift(ca, cb, shift)


def test_pipeline_identical_across_backends(monkeypatch):
    native = pytest.importorskip("walkjones._corekernels")
    for text in ("1 1 1", "-1 2 -1 2", "1 1 1 2 -1 2", "1 1 2 -1 -3 2 -3"):
        results = []
        for module in (pure, native):
            monkeypatch.setattr(kernels, "_kernels", module)
            results.append(colored_jones(parse_braid(text), 3).polynomial.format())
        assert results[0] == results[1]


def test_backend_selection_api():
    try:
        importlib.import_module("walkjones._corekernels")
    except ImportError:
        expected = "pure"
    else:
        expected = "native"
    assert kernels.active().BACKEND_NAME == expected
    assert kernels.active_name() == expected


def test_pure_api_matches_pyx():
    # Runs without a compiler: the native parity tests skip when the
    # extension is not built, so this is what catches a pure-side drift.
    pyx = (PACKAGE / "_corekernels.pyx").read_text()
    native_names = set(re.findall(r"^def (\w+)\(", pyx, re.M)) | set(re.findall(r"^(\w+) = ", pyx, re.M))
    # "annotations" is bound by the module's __future__ import
    pure_names = {name for name in vars(pure) if not name.startswith("_")} - {"annotations"}
    assert native_names == pure_names


def test_shipped_c_matches_pyx():
    # Each Cython source comment in the .c quotes a few lines of the .pyx
    # around the flagged one, whose number the marker gives.
    pyx = (PACKAGE / "_corekernels.pyx").read_text().splitlines()
    c_lines = (PACKAGE / "_corekernels.c").read_text().splitlines()
    checked = 0
    for at, line in enumerate(c_lines):
        match = MARKER.search(line)
        if not match:
            continue
        block = []
        for quoted in c_lines[at + 1 :]:
            if quoted.strip() == "*/":
                break
            block.append(quoted[3:])
        flagged = [i for i, quoted in enumerate(block) if quoted.endswith(FLAG)]
        assert len(flagged) == 1, f".c line {at + 1}: expected one flagged line"
        first = int(match.group(1)) - 1 - flagged[0]
        block[flagged[0]] = block[flagged[0]][: -len(FLAG)]
        for offset, quoted in enumerate(block):
            assert 0 <= first + offset < len(pyx), f".c line {at + 1}: quotes past the end of the .pyx"
            assert quoted.rstrip() == pyx[first + offset].rstrip(), (
                f".c line {at + 1} quotes .pyx line {first + offset + 1} as {quoted!r}"
            )
        checked += 1
    assert checked > 0
