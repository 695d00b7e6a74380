"""The kernels module: what the benchmark's span hooks rely on, and the
rule it reads."""
import pytest

from walk_helpers import unit_product
from walkjones import kernels
from walkjones.braid import parse_braid
from walkjones.burau import walk_generator
from walkjones.weyl import reordering_form


def test_bench_hook_api(monkeypatch):
    assert kernels.active() is kernels
    assert kernels.active_name() == "pure"
    # The hooks wrap the module attribute, so the engine must look the
    # kernel up on the module at call time, not import it by name.
    walk_products = kernels.walk_products
    calls = []
    monkeypatch.setattr(kernels, "walk_products", lambda *args: calls.append(args) or walk_products(*args))
    walk_generator(parse_braid("-1 2 -1 2"))
    assert len(calls) > 0


@pytest.mark.parametrize("sign", [1, -1])
def test_walk_products_reads_the_reordering_form(sign):
    # a unit key of kind t times one of kind u picks up q**F[t][u]
    form = reordering_form(sign)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for t, left in enumerate(units):
        for u, right in enumerate(units):
            key = tuple(x + y for x, y in zip(left, right))
            assert unit_product(left, right, (sign,)) == (key, form[t][u]), (t, u)
