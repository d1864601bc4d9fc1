"""The one exact elimination core, and the binomial coefficient convention
used by every dimension formula.

A row is a sparse dict from ordered keys to nonzero integers.  ``_insert``
reduces a row, at its least key, by the stored pivot row of that key until
it vanishes or becomes the pivot row of its least key.  Its one row update,
``_combine``, clears that key and divides the result by the gcd of its
entries, so entries stay small and integral and every pivot row is
primitive.  No step divides inexactly or rounds, and the pivots depend only
on the order in which rows arrive, so they are identical across runs and
platforms.
"""

from __future__ import annotations

import math

__all__ = ["binomial"]


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), zero whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _combine(row: dict, prow: dict, key) -> dict:
    """``prow[key] * row - row[key] * prow``, divided by the gcd of its entries.

    The result is zero at ``key`` and primitive.  Its only division is by
    that gcd, so it is exact by construction.
    """
    a, b = prow[key], row[key]
    new = {}
    for c in row.keys() | prow.keys():
        v = a * row.get(c, 0) - b * prow.get(c, 0)
        if v:
            new[c] = v
    return _primitive(new)


def _primitive(row: dict) -> dict:
    """``row`` divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _insert(pivots: dict, row: dict):
    """Combine ``row`` through :func:`_combine` with the pivot row of its
    least key until it vanishes or becomes that key's pivot row, divided by
    the gcd of its entries, so every pivot row is primitive.  Returns the
    new key, or None; any ordered keys work."""
    while row and (key := min(row)) in pivots:
        row = _combine(row, pivots[key], key)
    if row:
        pivots[key] = _primitive(row)
    return key if row else None
