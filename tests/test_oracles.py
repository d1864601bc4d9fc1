"""The oracles of ``oracles.py`` checked against each other and against
counts that need no elimination, so that a test comparing the package with
them rests on more than their own word."""

import math
import random
from fractions import Fraction

from fatpoints.scheme import make_scheme

from oracles import (
    general_position_hilbert,
    line_points_hilbert,
    monomials,
    naive_conditions_rows,
    naive_hilbert,
    naive_multiplicity,
    naive_rank,
    single_point_hilbert,
    sparse_rank,
)


def _sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _random_rational_rows(rng):
    """Up to 7 rows of width up to 8, some of them combinations of others,
    with integer and fractional entries and whole zero rows and columns."""

    def entry():
        roll = rng.random()
        if roll < 0.4:
            return 0
        if roll < 0.75:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    cols = rng.randint(1, 8)
    rows = [[entry() for _ in range(cols)] for _ in range(rng.randint(0, 7))]
    if len(rows) >= 2 and rng.random() < 0.5:
        a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    if rows and rng.random() < 0.3:
        rows[rng.randrange(len(rows))] = [0] * cols
    if rng.random() < 0.3:
        zero_col = rng.randrange(cols)
        for row in rows:
            row[zero_col] = 0
    return rows


def test_sparse_rank_matches_naive_rank_on_random_matrices():
    rng = random.Random(12)
    for _ in range(300):
        rows = _random_rational_rows(rng)
        assert sparse_rank(_sparse(rows)) == naive_rank(rows), rows


def test_sparse_rank_does_not_depend_on_row_or_key_order():
    rng = random.Random(13)
    for _ in range(100):
        rows = _sparse(_random_rational_rows(rng))
        expected = sparse_rank(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # negated keys reverse the order in which the columns are eliminated
        flipped = [{-key: v for key, v in row.items()} for row in rows]
        assert sparse_rank(shuffled) == sparse_rank(flipped) == expected, rows


def test_monomials_are_every_exponent_vector_once():
    for num_vars in range(1, 5):
        for degree in range(6):
            vectors = monomials(num_vars, degree)
            assert len(set(vectors)) == len(vectors) == math.comb(degree + num_vars - 1, degree)
            assert all(len(v) == num_vars and sum(v) == degree for v in vectors)
            assert all(min(v) >= 0 for v in vectors)


def test_closed_forms_agree_where_they_overlap():
    # one point is in general position, and so are two points of P^1
    for n in range(1, 4):
        for m in range(1, 5):
            for t in range(7):
                assert single_point_hilbert(n, m, t) == general_position_hilbert(n, [m], t)
    for mults in ([1, 1], [2, 1], [3, 2], [4, 4]):
        for t in range(10):
            assert line_points_hilbert(mults, t) == general_position_hilbert(1, mults, t)


def test_closed_forms_match_the_dense_oracle_at_coordinate_points():
    # the first s coordinate points of P^n are in linearly general position
    for n in (1, 2, 3):
        for mults in ([2], [2, 1], [3, 2, 1][: n + 1], [2, 2, 2, 1][: n + 1]):
            points = [
                (tuple(int(i == k) for i in range(n + 1)), m) for k, m in enumerate(mults)
            ]
            z = make_scheme(n, points)
            for t in range(sum(mults) + 1):
                if math.comb(t + n, n) > 35:
                    break
                assert naive_hilbert(z, t) == general_position_hilbert(n, mults, t), (z, t)


def test_dense_oracle_rows_count_the_multiplicity():
    # in a degree t >= m_i - 1 a point has C(k + n, n) rows of each order
    # k < m_i; those of the top order m_i - 1 number C(m_i - 1 + n, n), its
    # multiplicity, and all of them C(m_i + n, n + 1)
    z = make_scheme(2, [((1, 2, 3), 3), ((0, 1, 1), 2), ((1, 0, -1), 1)])
    for t in range(2, 5):
        every = naive_conditions_rows(z, t)
        top = naive_conditions_rows(z, t, top_only=True)
        assert len(top) == naive_multiplicity(2, z.multiplicities) == 6 + 3 + 1
        assert len(every) == sum(math.comb(m + 2, 3) for m in z.multiplicities) == 10 + 4 + 1
        assert all(len(row) == math.comb(t + 2, 2) for row in every + top)
