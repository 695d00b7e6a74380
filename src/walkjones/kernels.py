"""The generic walk-sum kernels, on plain data.

Exponent keys are flat tuples (s_1, r_1, d_1, ..., s_k, r_k, d_k) and
coefficients are canonical {exponent: int} dicts.

The reordering rule is stated here and nowhere else. The product key is
the entrywise sum of the two keys. Per crossing j, multiplying normal-form
words with letter counts (s1, r1, d1) and (s2, r2, d2) costs q**delta with

    delta = d1*r2 - 2*r1*s2               at a positive crossing,
    delta = 2*d1*s2 - d1*r2 + 2*r1*s2     at a negative crossing;

the product coefficient is q**(sum of the deltas) * ca * cb. walk_products
applies it; key_product is its one-pair call.

Callers look these functions up on the module at call time, so that a
wrapper installed on the module attribute sees every call.
"""
from __future__ import annotations

import sys


def active():
    """This module; kept for the benchmark's span hooks."""
    return sys.modules[__name__]


def active_name() -> str:
    """The kernel implementation's name; kept for the benchmark's report."""
    return "pure"


def key_product(ka: tuple, kb: tuple, signs: tuple) -> tuple:
    """Entrywise key sum and the q-power picked up by normal reordering."""
    ((key, coeff),) = walk_products([(ka, {0: 1})], [(kb, {0: 1})], signs, 0).items()
    ((delta, _),) = coeff.items()
    return key, delta


def drl_keep(key: tuple, n: int) -> bool:
    """True iff every crossing satisfies (#a + max(#b, #c)) < n."""
    for b in range(0, len(key), 3):
        s = key[b]
        r = key[b + 1]
        if key[b + 2] + (s if s > r else r) >= n:
            return False
    return True


def walk_products(items_a: list, items_b: list, signs: tuple, n_limit: int) -> dict:
    """All pairwise products of two walk sums, merged into a canonical map.

    items_*: lists of (key, coeff dict). n_limit > 0 discards any product
    whose key fails drl_keep(key, n_limit) before accumulation; 0 disables
    pruning. Returns {key: coeff dict} with no zero coefficients.
    """
    k = len(signs)
    width = 3 * k
    out: dict = {}
    for ka, ca in items_a:
        if len(ka) != width:
            raise ValueError(f"key length mismatch: {len(ka)} for {k} crossings")
        for kb, cb in items_b:
            if len(kb) != width:
                raise ValueError(f"key length mismatch: {len(kb)} for {k} crossings")
            key = [0] * width
            delta = 0
            keep = True
            for j in range(k):
                b = 3 * j
                s1, r1, d1 = ka[b], ka[b + 1], ka[b + 2]
                s2, r2, d2 = kb[b], kb[b + 1], kb[b + 2]
                if signs[j] > 0:
                    delta += d1 * r2 - 2 * r1 * s2
                else:
                    delta += 2 * d1 * s2 - d1 * r2 + 2 * r1 * s2
                s = s1 + s2
                r = r1 + r2
                d = d1 + d2
                if n_limit and d + (s if s > r else r) >= n_limit:
                    keep = False
                    break
                key[b] = s
                key[b + 1] = r
                key[b + 2] = d
            if not keep:
                continue
            tkey = tuple(key)
            acc = out.get(tkey)
            if acc is None:
                acc = {}
                out[tkey] = acc
            for ea, va in ca.items():
                base = ea + delta
                for eb, vb in cb.items():
                    e = base + eb
                    v = acc.get(e, 0) + va * vb
                    if v:
                        acc[e] = v
                    elif e in acc:
                        del acc[e]
            if not acc:
                del out[tkey]
    return out
