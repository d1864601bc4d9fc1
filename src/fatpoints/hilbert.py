"""Hilbert functions of fat point schemes: one Buchberger-Moller pass per
scheme for its own values, vanishing-conditions rows for its image.

For a scheme Z = m1*P1 + ... + ms*Ps in P^n, H(t) is the number of
independent conditions Z imposes on degree-t forms, dim (I_Z)_t =
C(t+n, n) - H(t), and the regularity index is the first t where H(t)
reaches the multiplicity e = sum C(m_i + n - 1, n).

Z's own values come from one pass over the functionals of its points, after
Marinari, Moller and Mora (AAECC 4, 1993) and Abbott, Bigatti, Kreuzer and
Robbiano (J. Symbolic Comput. 30, 2000).  The chart is L = 1 for
L = X_0 + k X_1 + ... + k^n X_n, with the least k >= 0 at which L vanishes
at no point (each point excludes at most n values).  L is then a
nonzerodivisor modulo I_Z, so setting L = 1 maps the degree-t forms
one-to-one onto the polynomials of degree <= t in X_1, ..., X_n, and a
form lies in I_Z exactly when its image is killed by the e functionals
(i, alpha) -> D^alpha f(p_i), |alpha| <= m_i - 1, with D^alpha the
divided-power derivative and p_i the affine point.  H(t) is therefore the
rank of the functional vectors of the monomials of degree <= t, whatever
the chart.  The pass takes the monomials degree by degree in graded-lex
order, which is multiplicative, and only those whose divisors are all
standard: a multiple of a non-standard monomial lies in the span of smaller
ones.  A candidate's vector is a standard monomial's stored vector times X_j,

    w[i, alpha] = c_ij * w[i, alpha] + w[i, alpha - e_j],

where the integer representatives c_i are scaled so that L(c_i) = q for
every point, so p_i = c_i / q.  Entry (i, alpha) of a degree-d monomial's
vector is then its exact value times q^(d - |alpha|): one nonzero factor
per vector times one per functional, which changes no linear dependency
and no rank on a set of keys, and leaves every entry an integer.  Each
candidate is reduced by ``exactlinalg``'s insertion step at its least key;
a nonzero result is a new pivot and its monomial is standard, so after
degree t the pivots number H(t) exactly.  Keys sort by decreasing level
m_i - 1 - |alpha|.  The functionals of Z - k, every multiplicity lowered by
k, are those of level >= k, a prefix of the keys, and an echelon row whose
pivot lies past a prefix is zero on it: the pivots of level >= k number
H(t) of Z - k.  A pass walks only as far as it is asked, and stops once
its pivots number e.

The image embed(Z, m), whose points are Z's padded with zeros, is answered
from Z's points in m + 1 variables, by rows.  Its conditions matrix has one
column per degree-t monomial and one row per pair (point, multi-index alpha
of order g_i = min(m_i - 1, t)): by Euler's formula, for |alpha| < t,

    (t - |alpha|) * D^alpha f(P) = sum_j P_j * (alpha_j + 1) * D^(alpha + e_j) f(P),

so the rows of order g_i span those of every lower order, and a point never
has more rows than columns.  The entry in row (i, alpha) and column beta is
C(beta, alpha) * P_i^(beta - alpha), zero unless alpha <= beta.  Each row is
built sparse and integral from the point times lead_i, the common
denominator of its coordinates, which scales it by lead_i^(t - g_i);
``conditions_matrix`` divides that out.  Writing beta = alpha + delta, the
columns and coefficients C(beta, delta) depend only on the number of
variables, the point's support, g_i and t, so they come from the bounded
cache ``_row_table``, and per point only the powers c^delta are computed.
The image's rows are Z's rows lifted onto the old-variable columns and rows
that meet no old-variable column, so its rank is Z's H(t) plus the rank of
the other rows.  Each image row is compared with the lifted source row of
the same label; if a source row has no equal image row, or another image
row meets an old-variable column, the row builder contradicts itself and
InternalBoundViolation is raised.

A monomial or multi-index is the tuple of (variable, exponent) pairs of its
nonzero exponents, X_0^2 X_3 as ((0, 2), (3, 1)), and an affine point a
dict of its nonzero coordinates, so sizes follow the degree and the support,
not the number of variables; exponent vectors appear only in
``monomial_basis`` and the ``conditions_matrix`` labels.  Monomials of a
fixed degree are listed in graded-lexicographic order with X_0 > X_1 > ...
> X_n, i.e. exponent vectors in descending lexicographic order, so
matrices, nullspace bases and JSON dumps are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DegreeOutOfRange, InternalBoundViolation, ResourceLimit, _brief
from .exactlinalg import Matrix, binomial, _combine, _primitive, _rank_of_int_rows
from .scheme import FatPointScheme, TruncatedScheme, UnitIdeal, _image_dim, multiplicity, truncate

__all__ = [
    "COLUMN_CAP",
    "MonomialBasis",
    "ConditionsMatrix",
    "HilbertTable",
    "monomial_basis",
    "conditions_matrix",
    "ideal_dim",
    "hilbert_function",
    "regularity_index",
    "hilbert_table",
    "restriction_ranks",
]

# Degrees whose monomial count exceeds this cap are refused with
# ResourceLimit instead of attempting an unbounded exact elimination.
# The CLI overrides it from the FATPOINTS_COLUMN_CAP environment variable.
COLUMN_CAP = 20_000


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent vectors of one total degree, in a fixed order."""

    num_vars: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConditionsMatrix:
    """Vanishing-conditions matrix plus its row and column labels.

    row_index[k] is the pair (component position, derivative multi-index)
    that produced row k.  Only multi-indices of the top order
    min(m_i - 1, t) are listed: by Euler's formula their rows span those of
    every lower order.  Columns follow ``basis.exponents``.
    """

    matrix: Matrix
    row_index: tuple[tuple[int, tuple[int, ...]], ...]
    basis: MonomialBasis


@dataclass(frozen=True)
class HilbertTable:
    """Values H(0), ..., H(reg) together with reg and the multiplicity."""

    values: tuple[int, ...]
    reg: int
    multiplicity: int


def _pairs(first: int, num_vars: int, degree: int):
    """Degree-``degree`` monomials in the variables first, ..., num_vars - 1,
    in graded-lex order; every call yields, so work follows the output."""
    if degree == 0:
        yield ()
        return
    for j in range(first, num_vars - 1):
        for e in range(degree, 0, -1):
            head = ((j, e),)  # one pair object, shared by every monomial it starts
            for rest in _pairs(j + 1, num_vars, degree - e):
                yield head + rest
    yield ((num_vars - 1, degree),)


@lru_cache(maxsize=None)
def _monomials(num_vars: int, degree: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Degree-``degree`` monomials in ``num_vars`` variables, graded-lex order."""
    return tuple(_pairs(0, num_vars, degree))


@lru_cache(maxsize=None)
def _column_index(num_vars: int, degree: int) -> dict[tuple, int]:
    return {beta: k for k, beta in enumerate(_monomials(num_vars, degree))}


def _exponent_vector(monomial: tuple, num_vars: int) -> tuple[int, ...]:
    exponents = dict(monomial)
    return tuple(exponents.get(j, 0) for j in range(num_vars))


def monomial_basis(num_vars: int, degree: int) -> MonomialBasis:
    """Degree-``degree`` monomials in ``num_vars`` variables, graded-lex order."""
    if num_vars < 1 or degree < 0:
        raise ValueError("need at least one variable and a nonnegative degree")
    exponents = tuple(_exponent_vector(m, num_vars) for m in _monomials(num_vars, degree))
    return MonomialBasis(num_vars, degree, exponents)


@lru_cache(maxsize=2048)
def _row_table(num_vars: int, support: tuple[int, ...], g: int, t: int):
    """The point-free part of the degree-t rows of order g, for points whose
    nonzero coordinates sit exactly at ``support``.

    For each alpha of degree g, in graded-lex order, a pair ``(columns,
    coefficients)`` with one entry per delta of degree t - g on the support,
    the deltas in ``_monomials(len(support), t - g)`` order: the column of
    beta = alpha + delta and prod_j C(beta_j, delta_j).
    """
    index = _column_index(num_vars, t)
    deltas = [[(support[k], d) for k, d in local] for local in _monomials(len(support), t - g)]
    table = []
    for alpha in _monomials(num_vars, g):
        columns, coefficients = [], []
        base = dict(alpha)
        for delta in deltas:
            beta = base.copy()
            coefficient = 1
            for j, d in delta:
                beta[j] = b = beta.get(j, 0) + d
                coefficient *= math.comb(b, d)
            columns.append(index[tuple(sorted(beta.items()))])
            coefficients.append(coefficient)
        table.append((tuple(columns), tuple(coefficients)))
    return tuple(table)


def _labelled_rows(scheme: FatPointScheme, dim: int, t: int):
    """Yield ``((component, alpha), scale, row)`` for every degree-t row of
    the scheme's points in P^dim, by component, then alpha of order
    g = min(m_i - 1, t) in graded-lex order.

    With c the integer representative of P_i, row (i, alpha) has one entry
    prod_j C(alpha_j + delta_j, delta_j) * c^delta in column alpha + delta
    for each delta of degree t - g on the nonzero coordinates of c.
    Columns and coefficients come from the cached ``_row_table`` of the
    point's support; the powers c^delta are one list per component.  The
    row is the normalized point's row times scale = lead_i^(t - g).
    """
    nvars = dim + 1
    for ci, (point, mult) in enumerate(scheme.components):
        lead, support, values = point._integral
        g = min(mult - 1, t)
        powers = [
            math.prod([values[k] ** e for k, e in local])
            for local in _monomials(len(support), t - g)
        ]
        scale = lead ** (t - g)
        alphas = _monomials(nvars, g)
        for alpha, (columns, coefficients) in zip(alphas, _row_table(nvars, support, g, t)):
            yield (ci, alpha), scale, dict(zip(columns, map(mul, coefficients, powers)))


def _cap_check(ambient_dim: int, t: int) -> None:
    """Refuse a degree whose C(t + ambient_dim, ambient_dim) columns exceed
    the cap.  The count is built over min(t, ambient_dim) factors and cut
    short once it passes both the cap and 2^64, so a count over 64 bits is
    named as a lower bound."""
    if t < 0:
        raise DegreeOutOfRange(f"degree must be nonnegative, got {_brief(t)}")
    k, cut = min(t, ambient_dim), max(COLUMN_CAP, 2**64)
    cols = 1
    for i in range(1, k + 1):
        cols = cols * (t + ambient_dim - k + i) // i  # C(t + ambient_dim - k + i, i)
        if cols > cut:
            break
    if cols > COLUMN_CAP:
        count = _brief(cols) if cols.bit_length() <= 64 else f"at least {_brief(cols)}"
        raise ResourceLimit(
            f"degree {_brief(t)} in P^{_brief(ambient_dim)} needs {count} monomial "
            f"columns (cap {_brief(COLUMN_CAP)})"
        )


def conditions_matrix(scheme: FatPointScheme, t: int) -> ConditionsMatrix:
    """Exact conditions matrix of the scheme in degree t.

    Rows are ordered by component, then by the derivative multi-index in
    graded-lex order; entries use the normalized point coordinates, so row
    (i, alpha) is the integer row divided by lead_i^(t - |alpha|).  Only
    multi-indices of order min(m_i - 1, t) are listed: the rows of lower
    orders lie in their span, so the rank and the nullspace are those of
    every order up to m_i - 1.
    """
    _cap_check(scheme.ambient_dim, t)
    basis = monomial_basis(scheme.ambient_dim + 1, t)
    zero = Fraction(0)
    dense_rows = []
    labels = []
    for (ci, alpha), scale, row in _labelled_rows(scheme, scheme.ambient_dim, t):
        dense = [zero] * len(basis.exponents)
        for c, v in row.items():
            dense[c] = Fraction(v, scale)
        dense_rows.append(dense)
        labels.append((ci, _exponent_vector(alpha, basis.num_vars)))
    matrix = Matrix.from_rows(dense_rows, cols=len(basis.exponents))
    return ConditionsMatrix(matrix, tuple(labels), basis)


def _times(monomial: tuple, j: int) -> tuple:
    """The monomial times X_j, both as (variable, exponent) pairs."""
    for k, (v, e) in enumerate(monomial):
        if v >= j:
            bump = ((j, e + 1),) if v == j else ((j, 1), (v, e))
            return monomial[:k] + bump + monomial[k + 1 :]
    return monomial + ((j, 1),)


def _graded_lex(monomial: tuple) -> tuple:
    """Sort key of one degree's monomials in ``_monomials`` order."""
    return tuple((v, -e) for v, e in monomial)


class _Pass:
    """Buchberger-Moller over the functionals of one scheme, degree by degree;
    see the module docstring.  ``rank(t, drop)`` is H(t) of Z - drop."""

    def __init__(self, scheme: FatPointScheme):
        points = [point._integral[1:] for point, _ in scheme.components]
        k = 0  # the least k at which L = sum_j k^j X_j vanishes at no point
        while not all(values := [sum(v * k**j for j, v in zip(*p)) for p in points]):
            k += 1
        scale = math.lcm(*values)
        self.coords = [
            {j: v * (scale // value) for j, v in zip(*p) if j} for p, value in zip(points, values)
        ]
        self.variables = range(1, scheme.ambient_dim + 1)
        self.size = multiplicity(scheme)
        # a key (-level, component, alpha) sorts by decreasing level m_i - 1 - |alpha|
        one = {(1 - m, i, ()): 1 for i, (_, m) in enumerate(scheme.components)}
        top = min(one)
        self.pivots = {top: one}
        self.levels = [[-top[0]]]  # the pivots' levels, by degree
        self.last = {(): one}  # the last degree's standard monomials and their vectors

    def rank(self, t: int, drop: int = 0) -> int:
        while len(self.levels) <= t and len(self.pivots) < self.size:
            self._walk()
        return sum(level >= drop for levels in self.levels[: t + 1] for level in levels)

    def _walk(self) -> None:
        found, parents = {}, {}
        for gamma, vector in self.last.items():
            for j in self.variables:
                beta = _times(gamma, j)
                found[beta] = found.get(beta, 0) + 1
                parents.setdefault(beta, (vector, j))
        # a candidate is found once per variable it has, from each divisor
        candidates = sorted((b for b, count in found.items() if count == len(b)), key=_graded_lex)
        pivots, levels, last, known = self.pivots, [], {}, len(self.pivots)
        try:
            for beta in candidates:
                row = self._times_variable(*parents[beta])
                while row and (key := min(row)) in pivots:
                    row = _combine(row, pivots[key], key)
                if row:
                    pivots[key] = last[beta] = _primitive(row)
                    levels.append(-key[0])
        except BaseException:  # an interrupted degree leaves no trace in the memo
            for key in list(pivots)[known:]:
                del pivots[key]
            raise
        self.last = last
        self.levels.append(levels)

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


_source_pass = lru_cache(maxsize=2)(_Pass)


def _old_columns(source_vars: int, image_vars: int, t: int) -> list[int]:
    """The image column of each degree-t source column, in source order;
    a monomial in X_0..X_n is also one in X_0..X_m, and the list increases
    because both orders are the same graded-lex order."""
    index = _column_index(image_vars, t)
    return [index[beta] for beta in _monomials(source_vars, t)]


@lru_cache(maxsize=None)
def _rank_at_degree(scheme: FatPointScheme, dim: int, t: int) -> int:
    """H(t) of the scheme's points in P^dim.

    The scheme's own value, dim == n, is read from its pass; the pass memo
    ``_source_pass`` keeps two schemes' passes, each extended on demand, so
    the truncations read through ``hilbert_function(..., drop=k)`` share it.
    For an image, dim > n, the rows split by two facts: (a) each lifted
    source row is equal to the image row of the same label, and (b) every
    other image row has no entry in an old-variable column.  So the matrix
    is block diagonal up to a column permutation, and its rank is the
    source's H(t), from this memo, plus the rank of the other rows.  Both
    facts hold by how the rows are built: a failure of either is a bug in
    the row builder and raises InternalBoundViolation.
    """
    n = scheme.ambient_dim
    if dim == n:
        return _source_pass(scheme).rank(t)
    old = _old_columns(n + 1, dim + 1, t)
    source_rows = _labelled_rows(scheme, n, t)
    lifted = {label: {old[c]: v for c, v in row.items()} for label, _, row in source_rows}
    matched, rest = 0, []
    for label, _, row in _labelled_rows(scheme, dim, t):
        if lifted.get(label) == row:
            matched += 1
        else:
            rest.append(row)
    if matched < len(lifted) or not all(map(set(old).isdisjoint, rest)):
        raise InternalBoundViolation(f"the degree-{t} image rows in P^{dim} do not split")
    return _rank_at_degree(scheme, n, t) + _rank_of_int_rows(rest, binomial(t + dim, dim))


def hilbert_function(
    scheme: TruncatedScheme, t: int, target_dim: int | None = None, drop: int = 0
) -> int:
    """H(t): independent conditions the scheme, or its image
    ``embed(scheme, target_dim)``, imposes on degree-t forms.

    With ``drop``, the value is that of ``truncate(scheme, drop)``.  In the
    scheme's own dimension a positive drop is read from the scheme's pass,
    with no truncated scheme built."""
    dim = _image_dim(scheme, target_dim)
    _cap_check(dim, t)
    if drop and (drop < 0 or dim > scheme.ambient_dim):
        scheme, drop = truncate(scheme, drop), 0
    if isinstance(scheme, UnitIdeal):
        return 0
    if drop:
        return _source_pass(scheme).rank(t, drop)
    return _rank_at_degree(scheme, dim, t)


def ideal_dim(
    scheme: TruncatedScheme, t: int, target_dim: int | None = None, drop: int = 0
) -> int:
    """Dimension of the degree-t part of the defining ideal of the scheme,
    or of its image ``embed(scheme, target_dim)``; ``drop`` as for
    ``hilbert_function``."""
    dim = _image_dim(scheme, target_dim)
    return binomial(t + dim, dim) - hilbert_function(scheme, t, target_dim, drop)


def restriction_ranks(scheme: FatPointScheme, target_dim: int, t: int) -> tuple[int, int]:
    """Degree-t ranks ``(stacked, restricted)`` for restricting the image
    ``embed(scheme, target_dim)`` to the old variables.

    ``stacked`` is the rank of the image's conditions rows with the
    source's rows appended, lifted onto the old-variable columns; it equals
    the image's H(t) exactly when substituting zeros for the new variables
    maps the image ideal into the source ideal.  ``restricted`` is the rank
    of the image's rows restricted to the old-variable columns.  Both are
    read from the rank memo, warmed here if cold: as the image's rows
    split into the lifted source rows and rows that meet no old-variable
    column, ``stacked`` is the image's H(t) and ``restricted`` the source's.
    """
    _cap_check(_image_dim(scheme, target_dim), t)
    return _rank_at_degree(scheme, target_dim, t), _rank_at_degree(scheme, scheme.ambient_dim, t)


def regularity_index(scheme: FatPointScheme, target_dim: int | None = None) -> int:
    """Least t with H(t) equal to the multiplicity, by ascending scan, for
    the scheme or its image ``embed(scheme, target_dim)``.

    Since H(t) <= C(t+n, n), the scan starts at the least t where C(t+n, n)
    reaches the multiplicity or exceeds the column cap; such a first degree
    over the cap is refused before any elimination.  The scan is capped at
    sum(m_i) - 1, the classical worst case attained by collinear points;
    exceeding it means the Hilbert computation itself is broken, so that
    raises InternalBoundViolation rather than looping.
    """
    if isinstance(scheme, UnitIdeal):
        raise ValueError("the regularity index needs a nonempty scheme")
    dim = _image_dim(scheme, target_dim)
    target = multiplicity(scheme, dim)
    low = 0
    while binomial(low + dim, dim) < min(target, COLUMN_CAP + 1):
        low += 1
    bound = scheme.total_multiplicity() - 1
    for t in range(low, bound + 1):
        if hilbert_function(scheme, t, dim) == target:
            return t
    raise InternalBoundViolation(
        f"H(t) did not reach {target} for any t <= {bound}"
    )


def hilbert_table(scheme: FatPointScheme) -> HilbertTable:
    """Hilbert values up to the regularity index, with built-in self-tests.

    Checks that the values start at 1, increase strictly, end at the
    multiplicity and stay there one degree further; a violation indicates
    a bug and raises InternalBoundViolation.
    """
    reg = regularity_index(scheme)
    values = tuple(hilbert_function(scheme, t) for t in range(reg + 1))
    e = multiplicity(scheme)
    ok = (
        values[0] == 1
        and all(a < b for a, b in zip(values, values[1:]))
        and values[-1] == e
        and hilbert_function(scheme, reg + 1) == e
    )
    if not ok:
        raise InternalBoundViolation(f"malformed Hilbert table {values} for e = {e}")
    return HilbertTable(values, reg, e)
