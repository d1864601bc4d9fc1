"""Hilbert functions of fat point schemes and of their images: one
Buchberger-Moller pass per scheme and ambient dimension.

For a scheme Z = m1*P1 + ... + ms*Ps in P^n, H(t) is the number of
independent conditions Z imposes on degree-t forms, dim (I_Z)_t =
C(t+n, n) - H(t), and the regularity index is the first t where H(t)
reaches the multiplicity e = sum C(m_i + n - 1, n).

Every value comes from one pass over the functionals of the points, after
Marinari, Moller and Mora (AAECC 4, 1993) and Abbott, Bigatti, Kreuzer and
Robbiano (J. Symbolic Comput. 30, 2000), in P^dim: P^n for Z itself, and
P^m for its image embed(Z, m), whose points are Z's padded with zeros.  The
chart is L = 1 for L = X_0 + k X_1 + ... + k^n X_n, with the least k >= 0
at which L vanishes at no point (each point excludes at most n values).  A
padded point has its source point's nonzero coordinates, so it takes the
same chart, and no image scheme is built.  L is then a nonzerodivisor
modulo the ideal, so setting L = 1 maps the degree-t forms one-to-one onto
the polynomials of degree <= t in X_1, ..., X_dim, and a form lies in the
ideal exactly when its image is killed by the e functionals
(i, alpha) -> D^alpha f(p_i), |alpha| <= m_i - 1, with D^alpha the
divided-power derivative and p_i the affine point.  H(t) is therefore the
rank of the functional vectors of the monomials of degree <= t, whatever
the chart.  The pass takes the monomials degree by degree in graded-lex
order, which is multiplicative, and only those whose divisors are all
standard: a multiple of a non-standard monomial lies in the span of smaller
ones.  Each candidate is found once, as a standard monomial gamma times X_j
with j at least gamma's last variable, and its vector is gamma's stored
vector times X_j,

    w[i, alpha] = c_ij * w[i, alpha] + w[i, alpha - e_j],

where the integer representatives c_i are scaled so that L(c_i) = q for
every point, so p_i = c_i / q.  Entry (i, alpha) of a degree-d monomial's
vector is then its exact value times q^(d - |alpha|): one nonzero factor
per vector times one per functional, which changes no linear dependency
and no rank on a set of keys, and leaves every entry an integer.  Each
candidate is reduced by ``exactlinalg._insert`` at its least key;
a nonzero result is a new pivot and its monomial is standard, so after
degree t the pivots number H(t) exactly.  Keys sort by decreasing level
m_i - 1 - |alpha|.  The functionals of Z - k, every multiplicity lowered by
k, are those of level >= k, a prefix of the keys, and an echelon row whose
pivot lies past a prefix is zero on it: the pivots of level >= k number
H(t) of Z - k.  A pass walks only as far as it is asked, and stops once
its pivots number e.

In the image's pass, the functionals D^alpha with alpha in the old
variables X_1, ..., X_n are the source's, so restriction, setting the new
variables to zero, maps the image's ideal into the source's.  The vector of
x^a y^b, with x the old variables and y the new, is supported on the keys
whose alpha has new-variable part b, so the standard monomials in x alone
are the source's, in the same order, and their count up to degree t, the
pass's ``old_rank(t)``, is the source's H(t) from the image's own walk.
A new variable X_j, j > n, has c_ij = 0 at every padded point, so its
product with a vector keeps only the terms w[i, alpha - e_j] of the keys
of level >= 1.  A standard monomial whose vector lies on level-0 keys
alone, which its pivot, the least key, shows, has a zero product with
every new variable, and the pass does not offer those candidates.

A monomial or multi-index is the tuple of (variable, exponent) pairs of its
nonzero exponents, X_1^2 X_3 as ((1, 2), (3, 1)), and an affine point a dict
of its nonzero coordinates, so sizes follow the degree and the support, not
the number of variables.  Graded-lex order takes X_1 > X_2 > ... > X_dim
within a degree, i.e. exponent vectors in descending lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

from .errors import DegreeOutOfRange, InternalBoundViolation, ResourceLimit, brief, require_int
from .exactlinalg import binomial, _insert
from .scheme import FatPointScheme, TruncatedScheme, UnitIdeal, _image_dim, multiplicity, truncate

__all__ = [
    "COLUMN_CAP",
    "HilbertTable",
    "ideal_dim",
    "hilbert_function",
    "regularity_index",
    "hilbert_table",
    "hilbert_pass",
]

# Degrees whose monomial count exceeds this cap are refused with
# ResourceLimit instead of attempting an unbounded exact elimination.
# The CLI overrides it from the FATPOINTS_COLUMN_CAP environment variable.
COLUMN_CAP = 20_000


@dataclass(frozen=True)
class HilbertTable:
    """Values H(0), ..., H(reg) together with reg and the multiplicity."""

    values: tuple[int, ...]
    reg: int
    multiplicity: int


def _cap_check(ambient_dim: int, t: int, cap: int | None = None) -> None:
    """Refuse a degree whose C(t + ambient_dim, ambient_dim) columns exceed
    the cap, ``COLUMN_CAP`` unless given.  The count is built over
    min(t, ambient_dim) factors and cut short once it passes both the cap
    and 2^64, so a count over 64 bits is named as a lower bound."""
    if t < 0:
        raise DegreeOutOfRange(f"degree must be nonnegative, got {brief(t)}")
    cap = COLUMN_CAP if cap is None else cap
    k, cut = min(t, ambient_dim), max(cap, 2**64)
    cols = 1
    for i in range(1, k + 1):
        cols = cols * (t + ambient_dim - k + i) // i  # C(t + ambient_dim - k + i, i)
        if cols > cut:
            break
    if cols > cap:
        count = brief(cols) if cols.bit_length() <= 64 else f"at least {brief(cols)}"
        raise ResourceLimit(
            f"degree {brief(t)} in P^{brief(ambient_dim)} needs {count} monomial "
            f"columns (cap {brief(cap)})"
        )


def _times(monomial: tuple, j: int) -> tuple:
    """The monomial times X_j, both as (variable, exponent) pairs."""
    for k, (v, e) in enumerate(monomial):
        if v >= j:
            bump = ((j, e + 1),) if v == j else ((j, 1), (v, e))
            return monomial[:k] + bump + monomial[k + 1 :]
    return monomial + ((j, 1),)


def _divide(monomial: tuple, k: int) -> tuple:
    """The monomial divided by the variable of its k-th pair."""
    v, e = monomial[k]
    return monomial[:k] + (((v, e - 1),) if e > 1 else ()) + monomial[k + 1 :]


class _Pass:
    """Buchberger-Moller over the functionals of one scheme's points in P^dim,
    degree by degree; see the module docstring.  Its reads are ``h(t, drop)``,
    H(t) of Z - drop, ``ideal_dim``, ``reg`` and ``old_rank(t)``, the number
    of standard monomials of degree <= t in the scheme's own variables
    X_1, ..., X_n alone.  Each reads through ``h``, which checks a degree
    against ``cap`` at its first read, walks to it and stores the value; the
    regularity index is stored too."""

    def __init__(self, scheme: FatPointScheme, dim: int, cap: int | None = None):
        points = [point._integral for point, _ in scheme.components]
        k = 0  # the least k at which L = sum_j k^j X_j vanishes at no point
        while not all(values := [sum(v * k**j for j, v in zip(*p)) for p in points]):
            k += 1
        scale = math.lcm(*values)
        self.coords = [
            {j: v * (scale // value) for j, v in zip(*p) if j} for p, value in zip(points, values)
        ]
        self.scheme, self.dim, self.old = scheme, dim, scheme.ambient_dim
        self.cap = COLUMN_CAP if cap is None else cap
        # a key (-level, component, alpha) sorts by decreasing level m_i - 1 - |alpha|
        one = {(1 - m, i, ()): 1 for i, (_, m) in enumerate(scheme.components)}
        top = min(one)
        self.pivots = {top: one}  # in walk order: up to degree t, the first totals[t]
        # up to each degree: the pivots, and the standard monomials in X_1..X_n
        self.totals, self.old_totals = [1], [1]
        self.last = {(): top}  # the last degree's standard monomials and their pivots
        self.values: dict[tuple[int, int], int] = {}  # (t, drop) -> H(t) of Z - drop
        self.reg_value: int | None = None

    @cached_property
    def size(self) -> int:  # e, computed late: it can be huge where the cap refuses
        return multiplicity(self.scheme, self.dim)

    def h(self, t: int, drop: int = 0) -> int:
        """H(t) of Z - drop; its first read checks the cap, walks to degree t
        and stores it."""
        value = self.values.get((t, drop))
        if value is None:
            _cap_check(self.dim, t, self.cap)
            while len(self.totals) <= t and len(self.pivots) < self.size:
                self._walk()
            value = self.totals[min(t, len(self.totals) - 1)]
            if drop:  # the pivots of level >= drop among the first H(t)
                value = sum(key[0] <= -drop for key in islice(self.pivots, value))
            self.values[t, drop] = value
        return value

    def ideal_dim(self, t: int, drop: int = 0) -> int:
        return binomial(t + self.dim, self.dim) - self.h(t, drop)

    def reg(self) -> int:
        """The least t with H(t) = e; see ``regularity_index``."""
        if self.reg_value is None:
            # below the least t where C(t + dim, dim) reaches e or exceeds the
            # cap, H(t) <= C(t + dim, dim) < e
            t = 0
            while binomial(t + self.dim, self.dim) < min(self.size, self.cap + 1):
                t += 1
            bound = self.scheme.total_multiplicity() - 1
            while self.h(t) != self.size:
                if t >= bound:
                    raise InternalBoundViolation(
                        f"H(t) did not reach {self.size} for any t <= {bound}"
                    )
                t += 1
            self.reg_value = t
        return self.reg_value

    def old_rank(self, t: int) -> int:
        self.h(t)
        return self.old_totals[min(t, len(self.old_totals) - 1)]

    def _candidates(self):
        """Each next-degree monomial whose divisors are all standard, in
        graded-lex order, as (monomial, vector of gamma, j): found once, as
        gamma * X_j with j at least the last variable of gamma.  Where
        gamma's pivot, the least key of its vector, has level 0, its products
        with the new variables X_j, j > n, are zero and are skipped: the
        vector has no key (i, alpha) to shift to (i, alpha + e_j), and c_ij = 0
        at every padded point."""
        previous, pivots = self.last, self.pivots
        for gamma, key in previous.items():
            vector, top = pivots[key], self.dim if key[0] else self.old
            for j in range(gamma[-1][0] if gamma else 1, top + 1):
                beta = _times(gamma, j)
                # the divisor by X_j is gamma; the others must be standard too
                if all(_divide(beta, k) in previous for k in range(len(beta) - 1)):
                    yield beta, vector, j

    def _walk(self) -> None:
        pivots, known = self.pivots, len(self.pivots)
        last, old = {}, self.old_totals[-1]
        try:
            for beta, vector, j in self._candidates():
                if len(pivots) == self.size:  # every later candidate reduces to zero
                    break
                key = _insert(pivots, self._times_variable(vector, j))
                if key is not None:
                    last[beta] = key
                    old += j <= self.old
        except BaseException:  # an interrupted degree leaves no trace in the memo
            for key in list(pivots)[known:]:
                del pivots[key]
            raise
        self.last = last
        self.totals.append(len(pivots))
        self.old_totals.append(old)

    def _times_variable(self, vector: dict, j: int) -> dict:
        """w[i, alpha] = c_ij * w[i, alpha] + w[i, alpha - e_j]: the vector of
        X_j times the polynomial of ``vector``."""
        out = {}
        for key, v in vector.items():
            minus_level, i, alpha = key
            c = self.coords[i].get(j)
            if c:
                out[key] = out.get(key, 0) + c * v
            if minus_level < 0:  # (i, alpha + e_j) is a functional too
                up = (minus_level + 1, i, _times(alpha, j))
                out[up] = out.get(up, 0) + v
        return {key: v for key, v in out.items() if v}


_pass = lru_cache(maxsize=2)(_Pass)  # the one memo of this module
# perfbench/worker.py and perfbench/cli_boot.py (through tracer.rank_cache)
# clear and count the memo under this name; rename it there and here together.
_rank_at_degree = _pass


def hilbert_pass(scheme: FatPointScheme, target_dim: int | None = None) -> _Pass:
    """The memoized pass of the scheme, or of its image
    ``embed(scheme, target_dim)``.  Its ``h``, ``ideal_dim`` and ``reg``
    answer the functions of those names, and ``old_rank`` counts the image's
    standard monomials in the source's variables.  The memo is
    keyed by the cap too, so no value outlives a change of ``COLUMN_CAP``.
    The unit ideal has no pass and is refused."""
    if isinstance(scheme, UnitIdeal):
        raise ValueError("a pass needs a nonempty scheme")
    return _pass(scheme, _image_dim(scheme, target_dim), COLUMN_CAP)


def hilbert_function(
    scheme: TruncatedScheme, t: int, target_dim: int | None = None, drop: int = 0
) -> int:
    """H(t): independent conditions the scheme, or its image
    ``embed(scheme, target_dim)``, imposes on degree-t forms.

    With ``drop``, the value is that of ``truncate(scheme, drop)``.  Every
    value is a read of the memoized pass, ``hilbert_pass(scheme,
    target_dim).h(t, drop)``: the functionals of a truncation are a prefix
    of its keys, so only a negative drop builds a truncated scheme, through
    ``truncate``.  A degree or a drop that is not an int is refused."""
    require_int(t, "degree")
    require_int(drop, "drop")
    if drop < 0:
        scheme, drop = truncate(scheme, drop), 0
    if isinstance(scheme, UnitIdeal):
        _cap_check(_image_dim(scheme, target_dim), t)
        return 0
    return hilbert_pass(scheme, target_dim).h(t, drop)


def ideal_dim(
    scheme: TruncatedScheme, t: int, target_dim: int | None = None, drop: int = 0
) -> int:
    """Dimension of the degree-t part of the defining ideal of the scheme,
    or of its image ``embed(scheme, target_dim)``; ``drop`` as for
    ``hilbert_function``."""
    h = hilbert_function(scheme, t, target_dim, drop)
    dim = _image_dim(scheme, target_dim)
    return binomial(t + dim, dim) - h


def regularity_index(scheme: FatPointScheme, target_dim: int | None = None) -> int:
    """Least t with H(t) equal to the multiplicity, by ascending scan, for
    the scheme or its image ``embed(scheme, target_dim)``; the scan runs
    once per memoized pass, which stores its result.

    Since H(t) <= C(t+n, n), the scan starts at the least t where C(t+n, n)
    reaches the multiplicity or exceeds the column cap; such a first degree
    over the cap is refused before any elimination.  The scan is capped at
    sum(m_i) - 1, the classical worst case attained by collinear points;
    exceeding it means the Hilbert computation itself is broken, so that
    raises InternalBoundViolation rather than looping.
    """
    return hilbert_pass(scheme, target_dim).reg()


def hilbert_table(scheme: FatPointScheme) -> HilbertTable:
    """Hilbert values up to the regularity index, with built-in self-tests.

    Checks that the values start at 1, increase strictly, end at the
    multiplicity and stay there one degree further; a violation indicates
    a bug and raises InternalBoundViolation.
    """
    walk = hilbert_pass(scheme)
    reg, e = walk.reg(), walk.size
    values = tuple(walk.h(t) for t in range(reg + 1))
    ok = (
        values[0] == 1
        and all(a < b for a, b in zip(values, values[1:]))
        and values[-1] == e
        and walk.h(reg + 1) == e
    )
    if not ok:
        raise InternalBoundViolation(f"malformed Hilbert table {values} for e = {e}")
    return HilbertTable(values, reg, e)
