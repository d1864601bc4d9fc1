"""Hilbert functions of fat point schemes via vanishing-conditions matrices.

For a scheme Z = m1*P1 + ... + ms*Ps in P^n and a degree t, the conditions
matrix has one column per degree-t monomial in n+1 variables and one row
per pair (point, derivative multi-index alpha of order g_i = min(m_i - 1, t)).
A degree-t form f vanishes to order m_i at P_i exactly when its divided-power
derivatives D^alpha f of every order below m_i vanish there, and only
the top order is needed: derivatives of order above t vanish on every
degree-t form, and by Euler's formula, for |alpha| < t,

    (t - |alpha|) * D^alpha f(P) = sum_j P_j * (alpha_j + 1) * D^(alpha + e_j) f(P),

so in characteristic zero the rows of order g_i span those of every lower
order.  A point's block has C(g_i + n, n) rows, never more than the
columns.  The entry in row (i, alpha) and column beta is the divided-power
derivative value

    C(beta, alpha) * P_i^(beta - alpha),   C(beta, alpha) = prod_j C(beta_j, alpha_j),

which is zero whenever some beta_j < alpha_j.  Divided powers differ from
raw derivatives by the per-row factor alpha!, so the nullspace is exactly
the degree-t part of the defining ideal, while the integers involved stay
smaller.  One flat loop builds every row as a sparse integer row from the
point's integer representative, the point times lead_i, the common
denominator of its coordinates.  That scales row (i, alpha) by
lead_i^(t - g_i), which changes neither rank nor kernel;
``conditions_matrix`` divides the factor out for its Fraction entries.

Inside this module a monomial is the tuple of (variable, exponent) pairs
of its nonzero exponents, X_0^2 X_3 as ((0, 2), (3, 1)), so its size is
bounded by its degree as well as by the number of variables; exponent
vectors appear only in ``monomial_basis`` and the ``conditions_matrix``
labels.  Writing beta = alpha + delta, the entry is C(beta, delta) *
c^delta for the integer representative c, and delta runs over the
monomials of degree t - |alpha| in the point's nonzero coordinates.  The
columns and the coefficients C(beta, delta) depend only on the number of
variables, that support, |alpha| and t, so they come from a small cache of
point-free tables (``_row_table``, bounded like an LRU cache); per point
only the one list of powers c^delta of degree t - g_i is computed, and
each row is the coefficients times the powers.  The point's lead and
integer representative are computed once per point.  Consequently

    H(t)          = rank(conditions matrix),
    dim (I_Z)_t   = C(t+n, n) - H(t),

and the regularity index is the first t where H(t) reaches the
multiplicity of the scheme.  The points of embed(Z, m) are Z's padded with
zeros, so given ``target_dim`` m the functions below answer for embed(Z, m)
from Z's points in m + 1 variables: no point is padded.

The image's rows are of two kinds: Z's rows of the same degree, lifted
onto the old-variable columns, and rows with entries only in new-variable
columns.  So the image's matrix is block diagonal up to a column
permutation, and its rank is Z's rank plus the rank of the other rows.
Each image row is compared entry by entry with the lifted source row of
the same (component, alpha) label; if some source row has no equal image
row, or some other image row meets an old-variable column, the row
builder contradicts itself and InternalBoundViolation is raised.  The two
ranks of ``restriction_ranks`` are the image's and Z's memo values.

Monomials of a fixed degree are listed in graded-lexicographic order with
X_0 > X_1 > ... > X_n, i.e. exponent vectors in descending lexicographic
order, so matrices, nullspace bases and JSON dumps are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DegreeOutOfRange, InternalBoundViolation, ResourceLimit, _brief
from .exactlinalg import Matrix, binomial, _rank_of_int_rows
from .scheme import FatPointScheme, TruncatedScheme, UnitIdeal, _image_dim, multiplicity

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


def _old_columns(source_vars: int, image_vars: int, t: int) -> list[int]:
    """The image column of each degree-t source column, in source order;
    a monomial in X_0..X_n is also one in X_0..X_m, and the list increases
    because both orders are the same graded-lex order."""
    index = _column_index(image_vars, t)
    return [index[beta] for beta in _monomials(source_vars, t)]


@lru_cache(maxsize=None)
def _rank_at_degree(scheme: FatPointScheme, dim: int, t: int) -> int:
    """Rank of the degree-t conditions rows of the scheme's points in P^dim.

    The scheme's own rank, dim == n, is eliminated directly.  For an image,
    dim > n, the rows split by two facts: (a) each lifted source row is
    equal to the image row of the same label, and (b) every other image row
    has no entry in an old-variable column.  So the matrix is block
    diagonal up to a column permutation, and its rank is the source's, from
    this memo, plus the rank of the other rows.  Both facts hold by how the
    rows are built: a failure of either is a bug in the row builder and
    raises InternalBoundViolation.
    """
    n = scheme.ambient_dim
    if dim == n:
        rows = (row for _, _, row in _labelled_rows(scheme, n, t))
        return _rank_of_int_rows(rows, binomial(t + n, n))
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


def hilbert_function(scheme: TruncatedScheme, t: int, target_dim: int | None = None) -> int:
    """H(t): independent conditions the scheme, or its image
    ``embed(scheme, target_dim)``, imposes on degree-t forms."""
    dim = _image_dim(scheme, target_dim)
    _cap_check(dim, t)
    if isinstance(scheme, UnitIdeal):
        return 0
    return _rank_at_degree(scheme, dim, t)


def ideal_dim(scheme: TruncatedScheme, t: int, target_dim: int | None = None) -> int:
    """Dimension of the degree-t part of the defining ideal of the scheme,
    or of its image ``embed(scheme, target_dim)``."""
    dim = _image_dim(scheme, target_dim)
    return binomial(t + dim, dim) - hilbert_function(scheme, t, target_dim)


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
