"""Independent brute-force oracles the tests cross-check against.

Everything here is deliberately written from scratch: textbook Gaussian
elimination over Fractions for rank, Gauss-Jordan reduction over
Fractions for kernels, a direct double loop for the vanishing-conditions
matrix, and closed-form counts where they exist.  None of it shares code
with the package's sparse integer elimination.
"""

import itertools
import math
from fractions import Fraction


def naive_rank(rows) -> int:
    """Rank by plain forward elimination with Fraction arithmetic."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / pivot
            if factor == 0:
                continue
            for j in range(col, ncols):
                m[i][j] -= factor * m[rank][j]
        rank += 1
        if rank == len(m):
            break
    return rank


def naive_nullspace(rows, ncols: int):
    """Kernel basis read off the reduced row echelon form (Gauss-Jordan).

    Each pivot row is scaled to a leading 1 and then cleared from every
    other row, above and below.  One vector per free column, in column
    order: 1 at its free column, 0 at the others, and minus the RREF
    entries of that column at the pivot columns.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][col]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            factor = m[i][col]
            if i != r and factor != 0:
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -m[i][free]
        basis.append(tuple(vec))
    return basis


def monomials(num_vars: int, degree: int):
    """All exponent vectors of the given total degree (any fixed order)."""
    out = []
    for combo in itertools.combinations_with_replacement(range(num_vars), degree):
        exps = [0] * num_vars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def naive_conditions_rows(scheme, t: int, top_only: bool = False):
    """Divided-power conditions matrix built entry by entry, with the rows
    of every order below each multiplicity, or with ``top_only`` those of
    order min(m - 1, t) alone."""
    num_vars = scheme.ambient_dim + 1
    cols = monomials(num_vars, t)
    rows = []
    for point, mult in scheme.components:
        coords = point.coords
        for order in [min(mult - 1, t)] if top_only else range(mult):
            for alpha in monomials(num_vars, order):
                row = []
                for beta in cols:
                    entry = Fraction(1)
                    for bj, aj, cj in zip(beta, alpha, coords):
                        if bj < aj:
                            entry = Fraction(0)
                            break
                        entry *= math.comb(bj, aj) * cj ** (bj - aj)
                    row.append(entry)
                rows.append(row)
    return rows


def naive_hilbert(scheme, t: int) -> int:
    return naive_rank(naive_conditions_rows(scheme, t))


def naive_multiplicity(n: int, mults) -> int:
    return sum(math.comb(m + n - 1, n) for m in mults)


def single_point_hilbert(n: int, m: int, t: int) -> int:
    """Closed form for one fat point: C(min(t, m-1) + n, n)."""
    return math.comb(min(t, m - 1) + n, n)


def line_points_hilbert(mults, t: int) -> int:
    """Closed form for distinct fat points of P^1: min(t + 1, sum m_i).

    The ideal is principal, generated by the product of the points' linear
    forms raised to their multiplicities.
    """
    return min(t + 1, sum(mults))


def general_position_hilbert(n: int, mults, t: int) -> int:
    """Closed form for s <= n + 1 fat points of P^n in linearly general
    position: C(t+n, n) - #{|beta| = t : beta_i <= t - m_i for all i < s}.

    A change of coordinates moves the points to the first s coordinate
    points, whose fat-point ideal is monomial: X^beta vanishes to order m_i
    at the i-th of them exactly when the other exponents sum to at least
    m_i, i.e. beta_i <= t - m_i.
    """
    vanishing = sum(
        1
        for beta in monomials(n + 1, t)
        if all(beta[i] <= t - m for i, m in enumerate(mults))
    )
    return math.comb(t + n, n) - vanishing
