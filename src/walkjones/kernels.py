"""The hot kernels, chosen once at import.

The compiled extension ``_corekernels`` is used when it imports; otherwise
the pure-Python twin ``_purekernels``. Both have the same API and give
bit-identical results. Callers look a kernel up on ``active()`` at call
time, so a test can patch an attribute of the module in use.
"""
from __future__ import annotations

try:
    from . import _corekernels as _kernels
except ImportError:
    from . import _purekernels as _kernels


def active():
    """The kernel module in use."""
    return _kernels


def active_name() -> str:
    return _kernels.BACKEND_NAME
