"""Build script: compiles the optional native kernel extension.

The package is fully functional without the extension (a pure-Python
implementation of the same kernels is selected at import time). The
extension is cythonized from ``_corekernels.pyx`` when Cython is installed
and compiled from the shipped ``_corekernels.c`` otherwise. A failure to
compile or link it is a warning and leaves a pure-Python install.
"""
import sys

from setuptools import Extension, setup

NAME = "walkjones._corekernels"


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        print("walkjones: Cython not available, compiling the shipped _corekernels.c", file=sys.stderr)
        exts = [Extension(NAME, ["src/walkjones/_corekernels.c"])]
    else:
        exts = cythonize(
            [Extension(NAME, ["src/walkjones/_corekernels.pyx"])],
            compiler_directives={"language_level": "3"},
        )
    for ext in exts:
        ext.optional = True
    return exts


setup(ext_modules=extensions())
