"""The kernels module: what the benchmark's span hooks rely on."""
from walkjones import kernels
from walkjones.braid import parse_braid
from walkjones.burau import walk_generator


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
