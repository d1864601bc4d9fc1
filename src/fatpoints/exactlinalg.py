"""Exact linear algebra over the rational numbers.

Rationals are plain :class:`fractions.Fraction` values: the stdlib type
already guarantees the canonical form the rest of the package relies on
(positive denominator, numerator coprime to it) and never rounds.  This
module adds the small amount of linear algebra everything else needs: a
dense immutable matrix, exact rank, deterministic nullspace bases, and the
binomial coefficient convention used by every dimension formula.

``rank`` and ``nullspace_basis`` share one elimination core: a
fraction-free (Bareiss) forward pass over integer-rescaled sparse rows.
The pivot is always the first remaining row with a nonzero entry in the
scanned column, so echelon forms, and with them nullspace bases, are
identical across runs and platforms.
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
    kernel, and integer entries keep the fraction-free elimination exact.
    """
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append({j: int(x * den) for j, x in enumerate(row) if x})
    return out


def _echelon(rows: Iterable[dict[int, int]], ncols: int):
    """Fraction-free forward elimination on sparse integer rows.

    Returns ``(echelon_rows, pivot_cols)`` where ``echelon_rows[k]`` has its
    leading nonzero entry in column ``pivot_cols[k]``.  Each update divides
    by the previous pivot; by Sylvester's determinant identity the division
    is exact, which the divmod below also asserts.
    """
    active = [dict(r) for r in rows if r]
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        if not active:
            break
        pidx = next((k for k, row in enumerate(active) if col in row), None)
        if pidx is None:
            continue
        prow = active.pop(pidx)
        piv = prow[col]
        remaining: list[dict[int, int]] = []
        for row in active:
            f = row.pop(col, 0)
            if f:
                new = {}
                for c in row.keys() | prow.keys():
                    if c == col:
                        continue
                    v = piv * row.get(c, 0) - f * prow.get(c, 0)
                    if v:
                        q, r = divmod(v, prev)
                        if r:
                            raise ArithmeticError("fraction-free elimination lost exactness")
                        new[c] = q
                row = new
            elif prev != piv:
                scaled = {}
                for c, v in row.items():
                    q, r = divmod(piv * v, prev)
                    if r:
                        raise ArithmeticError("fraction-free elimination lost exactness")
                    scaled[c] = q
                row = scaled
            if row:
                remaining.append(row)
        active = remaining
        echelon.append(prow)
        pivots.append(col)
        prev = piv
    return echelon, pivots


def _rank_of_int_rows(rows: Iterable[dict[int, int]], ncols: int) -> int:
    _, pivots = _echelon(rows, ncols)
    return len(pivots)


def rank(m: Matrix) -> int:
    """Rank of ``m`` over the rationals, by fraction-free elimination."""
    return _rank_of_int_rows(_sparse_int_rows(m), m.cols)


def nullspace_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of ``{v : m v = 0}``.

    Each basis vector corresponds to one free column of the reduced row
    echelon form: its entry there is 1, it is 0 at every other free column,
    and its remaining entries sit in pivot columns.  The list is ordered by
    free column, and always has ``cols - rank(m)`` elements.  RREF is unique
    for a given row space, so the basis is canonical.
    """
    echelon, pivots = _echelon(_sparse_int_rows(m), m.cols)
    # back-substitute to the RREF over Q: pivot entries 1, pivot columns
    # zero in every other row
    red: list[dict[int, Fraction]] = [
        {c: Fraction(v, row[p]) for c, v in row.items()} for row, p in zip(echelon, pivots)
    ]
    for i in reversed(range(len(red))):
        pi = pivots[i]
        ri = red[i]
        for j in range(i):
            coef = red[j].get(pi)
            if not coef:
                continue
            new = dict(red[j])
            del new[pi]
            for c, v in ri.items():
                if c == pi:
                    continue
                nv = new.get(c, 0) - coef * v
                if nv:
                    new[c] = nv
                elif c in new:
                    del new[c]
            red[j] = new
    pivot_set = set(pivots)
    zero = Fraction(0)
    out = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [zero] * m.cols
        vec[free] = Fraction(1)
        for r, p in zip(red, pivots):
            coef = r.get(free)
            if coef:
                vec[p] = -coef
        out.append(tuple(vec))
    return out
