"""Ordered pair counts at a fixed tree distance inside finite subtrees.

For the depth-``P`` subtree of a rate-``A`` tree, the number of ordered
node pairs ``(v, w)``, ``v != w``, separated by exactly ``L`` edges admits
a closed form.  The module ships three independent routes to that number:

* :func:`count_pairs_enum`   -- brute-force enumeration (the oracle; capped
  at trees of 10**4 nodes),
* :func:`count_pairs_sum`    -- a double sum over the generation of the
  meeting node of the pair and the split of the path length,
* :func:`count_pairs_closed` -- the five-term closed form with its
  indicator conditions.

All three agree exactly; the test suite pins this down.  Counts grow like
``A**(P + L/2)`` and leave 63-bit range quickly, so everything is computed
in arbitrary precision (the closed form goes through ``Fraction`` and is
checked to be integral).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, ValidationError, require
from .tree import Subtree, region_nodes, tree_distance

ENUM_NODE_CAP = 10**4


def _validate(A: int, P: int, L: int) -> None:
    require((("A", A, 2), ("P", P, 1), ("L", L, 1)))


@lru_cache(maxsize=128)
def _distance_histogram(A: int, P: int) -> dict[int, int]:
    """Ordered-pair distance histogram of the depth-P subtree at the root."""
    nodes = list(region_nodes(Subtree(0, 1, P), A))
    hist: dict[int, int] = {}
    for i, v in enumerate(nodes):
        for w in nodes[i + 1 :]:
            d = tree_distance(v, w, A)
            hist[d] = hist.get(d, 0) + 2  # both orders
    return hist


def count_pairs_enum(A: int, P: int, L: int) -> int:
    """Count ordered pairs at distance ``L`` by exhaustive enumeration."""
    _validate(A, P, L)
    n = (A**P - 1) // (A - 1)
    if n > ENUM_NODE_CAP:
        raise CapacityError(
            f"enumeration oracle capped at {ENUM_NODE_CAP} nodes, "
            f"depth {P} at rate {A} has {n}"
        )
    return _distance_histogram(A, P).get(L, 0)


def count_pairs_sum(A: int, P: int, L: int) -> int:
    """Count ordered pairs at distance ``L`` via the double sum.

    The outer index ``h`` is the generation (within the subtree) of the
    meeting node of the pair, the inner index ``i`` is the distance from the
    meeting node to the first element of the pair.  ``i == L`` covers the
    ancestor/descendant pairs (factor 2 for both orders), ``i < L`` the
    pairs branching apart below the meeting node.
    """
    _validate(A, P, L)
    if L > 2 * (P - 1):
        return 0
    h_max = P - 1 - (L + 1) // 2  # floor(P - 1 - L/2), exact for both parities
    total = 0
    for h in range(h_max + 1):
        reach = P - 1 - h
        inner = 0
        for i in range(max(1, L - reach), min(L, reach) + 1):
            term = 2 if i == L else (A - 1) * A ** (L - i - 1)
            inner += A**i * term
        total += A**h * inner
    return total


def count_pairs_closed(A: int, P: int, L: int) -> int:
    """Count ordered pairs at distance ``L`` via the five-term closed form.

    Indicator conditions gate the terms (L <= P-1; L <= P; L >= 4;
    4 <= L < P).  Half-integer indices use exact floor/ceil on integers;
    the terms are combined as exact rationals and the total is integral.
    """
    _validate(A, P, L)
    if L > 2 * (P - 1):
        return 0
    half_up = (L + 1) // 2  # ceil(L/2)
    half_dn = L // 2        # floor(L/2)
    total = Fraction(0)
    if L <= P - 1:
        total += Fraction(2 * (A**P - A**L), A - 1)
    if L <= P:
        total += (L - 1) * (A**P - A ** (L - 1))
    if L >= 4:
        total += (2 * (P - 1) - L + 1) * (A ** (P - 1 + half_dn) - A ** max(L - 1, P))
        total -= Fraction(
            2 * (((A - 1) * (P - 1 - half_up) - 1) * A ** (P - 1 + half_dn) + A**L),
            A - 1,
        )
    if 4 <= L < P:
        total += Fraction(2 * (((A - 1) * (P - L) - 1) * A**P + A**L), A - 1)
    if total.denominator != 1:
        raise ValidationError(
            f"closed form for (A={A}, P={P}, L={L}) is not integral: {total}"
        )
    return int(total)


def growth_ratio(A: int, P: int, L: int) -> float:
    """The ratio ``count / (P * A**(P + L/2))`` as a float.

    The count is bounded by a constant multiple of ``P * A**(P + L/2)``, so
    this ratio stays bounded on any grid; zero when there are no pairs.
    """
    n = count_pairs_closed(A, P, L)  # validates the inputs
    if n == 0:
        return 0.0
    log_ratio = math.log(n) - math.log(P) - (P + L / 2.0) * math.log(A)
    return math.exp(log_ratio)


def total_ordered_pairs(A: int, P: int) -> int:
    """n*(n-1) for the depth-``P`` subtree; the distance counts sum to this."""
    require((("A", A, 2), ("P", P, 1)))
    n = (A**P - 1) // (A - 1)
    return n * (n - 1)
