"""Exact linear algebra over the rational numbers.

Rationals are plain :class:`fractions.Fraction` values: the stdlib type
already guarantees the canonical form the rest of the package relies on
(positive denominator, numerator coprime to it) and never rounds.  This
module adds the small amount of linear algebra everything else needs: a
dense immutable matrix, exact rank, deterministic nullspace bases, and the
binomial coefficient convention used by every dimension formula.

``rank`` and ``nullspace_basis`` share one elimination core over
integer-rescaled sparse rows, with one row update: a row is combined with
a pivot row to clear the pivot column and then divided by the gcd of its
entries, so entries stay small and integral; a row that becomes a pivot
row unchanged is divided by its gcd too.  The forward pass and the
back-substitution of ``nullspace_basis`` both use it.  The forward pass
reduces each row, in input order, by the pivot row of its least column
until it vanishes or becomes a new pivot row, so echelon forms, and with
them nullspace bases, depend only on the row order and are identical
across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

__all__ = ["Rational", "Matrix", "binomial", "rank", "nullspace_basis"]


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), zero whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _as_rational(value) -> Fraction:
    # floats would smuggle rounding error into exact computations
    if isinstance(value, float):
        raise TypeError("matrix entries must be exact rationals, not floats")
    return Fraction(value)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with Fraction entries, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        """Build a matrix from an iterable of rows of rationals.

        ``cols`` is only needed to disambiguate a matrix with zero rows.
        """
        data = [list(r) for r in rows]
        if data:
            ncols = len(data[0])
            if cols is not None and cols != ncols:
                raise ValueError("cols argument disagrees with row length")
        else:
            ncols = cols if cols is not None else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("rows have unequal lengths")
        entries = tuple(_as_rational(x) for r in data for x in r)
        return cls(len(data), ncols, entries)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        ents = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, ents)


def _sparse_int_rows(m: Matrix) -> list[dict[int, int]]:
    """Rescale each row by the lcm of its denominators; drop zero entries.

    Row scaling by a nonzero rational changes neither the rank nor the
    kernel, and integer entries keep the elimination in integers.
    """
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append({j: int(x * den) for j, x in enumerate(row) if x})
    return out


def _combine(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """``prow[col] * row - row[col] * prow``, divided by the gcd of its entries.

    The result is zero in ``col`` and primitive.  Its only division is by
    that gcd, so it is exact by construction.
    """
    a, b = prow[col], row[col]
    new = {}
    for c in row.keys() | prow.keys():
        v = a * row.get(c, 0) - b * prow.get(c, 0)
        if v:
            new[c] = v
    return _primitive(new)


def _primitive(row: dict[int, int]) -> dict[int, int]:
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


def _echelon(rows: Iterable[dict[int, int]], ncols: int):
    """Forward elimination on sparse integer rows, by leading-column insertion.

    Returns ``(echelon_rows, pivot_cols)`` with ``pivot_cols`` increasing and
    ``echelon_rows[k]`` having its least column at ``pivot_cols[k]``.  Each
    row, in input order, goes through :func:`_insert`.  Reading stops once
    all ``ncols`` columns have a pivot.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        _insert(pivot_rows, row)
    pivots = sorted(pivot_rows)
    return [pivot_rows[col] for col in pivots], pivots


def _rank_of_int_rows(rows: Iterable[dict[int, int]], ncols: int) -> int:
    _, pivots = _echelon(rows, ncols)
    return len(pivots)


def rank(m: Matrix) -> int:
    """Rank of ``m`` over the rationals, by elimination on integer rows."""
    return _rank_of_int_rows(_sparse_int_rows(m), m.cols)


def nullspace_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of ``{v : m v = 0}``.

    Each basis vector corresponds to one free column of the reduced row
    echelon form: its entry there is 1, it is 0 at every other free column,
    and its remaining entries sit in pivot columns.  The list is ordered by
    free column, and always has ``cols - rank(m)`` elements.  RREF is unique
    for a given row space, so the basis is canonical.
    """
    red, pivots = _echelon(_sparse_int_rows(m), m.cols)
    # back-substitute on integer rows until each pivot column is zero in
    # every other row; the RREF entry of row r in column c is r[c] / r[p]
    for i in reversed(range(len(red))):
        pi = pivots[i]
        for j in range(i):
            if pi in red[j]:
                red[j] = _combine(red[j], red[i], pi)
    pivot_set = set(pivots)
    zero = Fraction(0)
    out = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [zero] * m.cols
        vec[free] = Fraction(1)
        for r, p in zip(red, pivots):
            if free in r:
                vec[p] = Fraction(-r[free], r[p])
        out.append(tuple(vec))
    return out
