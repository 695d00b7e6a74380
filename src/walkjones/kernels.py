"""The generic walk-sum product on plain data: what braid_matrix, the
verification paths (quantum_det, the unpruned generator, the tests'
reference products) and the benchmark's span hooks call.

Exponent keys are flat tuples (s_1, r_1, d_1, ..., s_k, r_k, d_k) and
coefficients are canonical {exponent: int} dicts. The product key is the
entrywise sum of the two keys, and the q-power that normal reordering adds
is read off the reordering forms of weyl, where the rule is written down.

Callers look walk_products up on the module at call time, so that a
wrapper installed on the module attribute sees every call.
"""
from __future__ import annotations

import sys

from .weyl import reordering_form


def active():
    """This module; kept for the benchmark's span hooks."""
    return sys.modules[__name__]


def active_name() -> str:
    """The kernel implementation's name; kept for the benchmark's report."""
    return "pure"


# (F[c][b], F[a][b], F[a][c]) of the reordering form F of a negative and of
# a positive crossing: the entries that may be nonzero
_TERMS = tuple((f[1][0], f[2][0], f[2][1]) for f in map(reordering_form, (-1, 1)))


def walk_products(items_a: list, items_b: list, signs: tuple, n_limit: int) -> dict:
    """All pairwise products of two walk sums, merged into a canonical map.

    items_*: lists of (key, coeff dict). n_limit > 0 discards any product
    whose key fails weyl.drl_keep(key, n_limit), that is, with
    #a + max(#b, #c) >= n_limit at some crossing, before accumulation; 0
    disables pruning. Returns {key: coeff dict} with no zero coefficients.
    A pair picks up q**delta, delta summed over crossings from the three
    entries of the crossing's weyl.reordering_form that may be nonzero.
    """
    k = len(signs)
    width = 3 * k
    forms = [_TERMS[sign > 0] for sign in signs]
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
            for b, (f_cb, f_ab, f_ac) in zip(range(0, width, 3), forms):
                s1, r1, d1 = ka[b], ka[b + 1], ka[b + 2]
                s2, r2, d2 = kb[b], kb[b + 1], kb[b + 2]
                # only the right key's b and c letters are passed
                if s2:
                    delta += (f_cb * r1 + f_ab * d1) * s2
                if r2:
                    delta += f_ac * d1 * r2
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
