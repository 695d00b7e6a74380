"""walkjones: exact colored Jones polynomials of knots from braid words.

The polynomial is computed from walk sums read off the quantum determinant
of the deformed Burau matrix of the braid, with braid reduction (cyclic
cancellation and Markov destabilization), duplicate-reduction pruning and
the choice of the cheapest equivalent word (the mirror, and from N = 4 a
rotation or the flip) keeping the stack of walks small. A word that
closes to a connected sum is computed factor by factor. All
arithmetic is exact over integer-coefficient Laurent polynomials in q.
"""

from .braid import BraidWord, NotAKnotError, parse_braid
from .cjp import CjpResult, choose_orientation, colored_jones, simple_walk_count
from .laurent import LaurentParseError, LaurentPolynomial
from .oracle import FreeWord, KeyedMonomial, free_normalize, naive_colored_jones, right_quantum_check
from .table import KnotRecord, knot_lookup, load_table
from .weyl import WalkSum

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CjpResult",
    "FreeWord",
    "KeyedMonomial",
    "KnotRecord",
    "LaurentParseError",
    "LaurentPolynomial",
    "NotAKnotError",
    "WalkSum",
    "choose_orientation",
    "colored_jones",
    "free_normalize",
    "knot_lookup",
    "load_table",
    "naive_colored_jones",
    "parse_braid",
    "right_quantum_check",
    "simple_walk_count",
    "__version__",
]
