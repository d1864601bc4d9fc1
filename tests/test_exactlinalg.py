import math
import random
from fractions import Fraction

import pytest

import fatpoints.exactlinalg as exactlinalg_mod
from fatpoints.exactlinalg import (
    Matrix,
    _echelon,
    _insert,
    _sparse_int_rows,
    binomial,
    nullspace_basis,
    rank,
)
from fatpoints.hilbert import _labelled_rows, conditions_matrix
from fatpoints.scheme import embed, gen_random, make_scheme

from oracles import naive_nullspace, naive_rank


def test_binomial_small_values():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(5, 0) == 1
    assert binomial(0, 0) == 1


def test_binomial_negative_lower_index_is_zero():
    assert binomial(4, -1) == 0
    assert binomial(-2, 0) == 0


def test_binomial_double_point_multiplicity_in_plane():
    # a double point in the plane has multiplicity C(m+n-1, n) = 3
    m, n = 2, 2
    assert binomial(m + n - 1, n) == 3


def test_rank_identity():
    ident = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(ident) == 3


def test_rank_zero_matrix():
    assert rank(Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]])) == 0


def test_rank_dependent_rows():
    assert rank(Matrix.from_rows([[1, 2], [2, 4], [1, 0]])) == 2


def test_rank_empty_shapes():
    assert rank(Matrix(0, 3, ())) == 0
    assert rank(Matrix(2, 0, ())) == 0
    assert rank(Matrix(0, 0, ())) == 0


def test_rank_rational_entries():
    m = Matrix.from_rows(
        [
            [Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3, 2), Fraction(1, 1)],
            [Fraction(1, 4), Fraction(1, 6)],
        ]
    )
    assert rank(m) == naive_rank(m.to_rows())


def test_nullspace_of_identity_is_empty():
    assert nullspace_basis(Matrix.from_rows([[1, 0], [0, 1]])) == []


def test_nullspace_single_row():
    assert nullspace_basis(Matrix.from_rows([[1, 0]])) == [(Fraction(0), Fraction(1))]


def test_nullspace_all_ones_row():
    m = Matrix.from_rows([[1, 1, 1]])
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0  # annihilated by the single row


def test_nullspace_is_in_reduced_form():
    rng = random.Random(9)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = Matrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        basis = nullspace_basis(m)
        # every vector owns a coordinate equal to 1 that is 0 in all others
        owned = []
        for k, vec in enumerate(basis):
            candidates = [
                j
                for j, x in enumerate(vec)
                if x == 1 and all(other[j] == 0 for i, other in enumerate(basis) if i != k)
            ]
            assert candidates
            owned.append(candidates[0])
        assert len(set(owned)) == len(basis)


def _random_matrix(rng, max_dim=8, bound=9):
    rows = rng.randint(0, max_dim)
    cols = rng.randint(1, max_dim)
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_rank_agrees_with_naive_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        m = _random_matrix(rng)
        assert rank(m) == naive_rank(m.to_rows())


def test_rank_of_transpose_matches():
    rng = random.Random(5)
    for _ in range(60):
        m = _random_matrix(rng)
        assert rank(m) == rank(m.transpose())


def test_rank_plus_nullity_is_cols():
    rng = random.Random(6)
    for _ in range(60):
        m = _random_matrix(rng)
        assert rank(m) + len(nullspace_basis(m)) == m.cols


def test_nullspace_vectors_are_annihilated():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng)
        for vec in nullspace_basis(m):
            for i in range(m.rows):
                assert sum(m.at(i, j) * vec[j] for j in range(m.cols)) == 0


def test_rank_invariant_under_row_scaling():
    rng = random.Random(8)
    for _ in range(30):
        m = _random_matrix(rng, max_dim=5)
        if m.rows == 0:
            continue
        scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = Matrix.from_rows([[scale * x for x in row] for row in m.to_rows()])
        assert rank(m) == rank(scaled)


def test_repeated_calls_are_deterministic():
    m = Matrix.from_rows([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    assert nullspace_basis(m) == nullspace_basis(m)
    assert rank(m) == rank(m)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5]])


def test_matrix_accessors():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.at(1, 0) == 3
    assert m.row(0) == (Fraction(1), Fraction(2))
    assert m.transpose().to_rows() == [[1, 3], [2, 4]]


def _triple_point_schemes():
    coordinate = make_scheme(
        2, [((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 3), ((1, 2, -1), 3)]
    )
    return [coordinate, gen_random(2, 4, [3, 3, 3, 2], config="generic", seed=4)]


def _int_rows(scheme, t):
    n = scheme.ambient_dim
    return [row for _, _, row in _labelled_rows(scheme, n, t)], binomial(t + n, n)


def test_echelon_rows_are_primitive():
    # every row update divides by the gcd of the entries, so no echelon row
    # of a scheme or of its image keeps a common factor
    for z in _triple_point_schemes():
        for scheme in (z, embed(z, 4)):
            for t in range(1, 7):
                echelon, pivots = _echelon(*_int_rows(scheme, t))
                assert len(echelon) == len(pivots) > 0
                for row in echelon:
                    assert math.gcd(*row.values()) == 1, (scheme.ambient_dim, t, row)


def test_echelon_pivots_increase_and_lead_their_rows():
    rng = random.Random(31)
    inputs = [(_sparse_int_rows(m), m.cols) for m in (_random_matrix(rng) for _ in range(200))]
    for z in _triple_point_schemes():
        for scheme in (z, embed(z, 3)):
            inputs += [_int_rows(scheme, t) for t in range(1, 6)]
    for rows, ncols in inputs:
        echelon, pivots = _echelon(rows, ncols)
        assert all(a < b for a, b in zip(pivots, pivots[1:])), pivots
        assert [min(row) for row in echelon] == pivots


def test_echelon_reads_no_row_past_a_full_rank(monkeypatch):
    calls = []
    combine = exactlinalg_mod._combine

    def counted(row, prow, col):
        calls.append(col)
        return combine(row, prow, col)

    monkeypatch.setattr(exactlinalg_mod, "_combine", counted)
    # lower triangular rows: each one is reduced by every row above it
    full = [{j: i - j + 1 for j in range(i + 1)} for i in range(5)]
    extra = [{j: 1 for j in range(5)}, {4: 2}, {0: 3, 2: 1}]
    assert len(_echelon(full, 5)[1]) == 5
    needed = len(calls)
    assert needed > 0
    calls.clear()
    assert _echelon(full + extra, 5)[1] == [0, 1, 2, 3, 4]
    assert len(calls) == needed


def test_insert_stores_a_new_row_primitive_at_its_least_key():
    pivots = {1: {1: 1, 3: 2}, 2: {2: 3, 3: -1}}
    before = {key: dict(row) for key, row in pivots.items()}
    # in the span: 2 * pivots[1] - 4 * pivots[2]
    assert _insert(pivots, {1: 2, 2: -12, 3: 8}) is None
    assert pivots == before
    # reduced by pivots[1] to {4: 6}, a new row, stored divided by its gcd
    key = _insert(pivots, {1: 4, 3: 8, 4: 6})
    assert key == 4 and pivots[4] == {4: 1}
    # no pivot row at its least key: stored at once, divided by its gcd
    key = _insert(pivots, {0: 6, 2: 9})
    assert key == 0 and pivots[0] == {0: 2, 2: 3}
    assert set(pivots) == {0, 1, 2, 4}
    # tuple keys, as the Buchberger-Moller pass uses them
    low, high = (-1, 0, ()), (0, 1, ((1, 1),))
    pivots = {low: {low: 1, high: 2}}
    assert _insert(pivots, {low: 3, high: 6}) is None
    assert _insert(pivots, {low: 1, high: 5}) == high
    assert pivots[high] == {high: 1}


def test_echelon_edge_shapes_match_the_oracles():
    rng = random.Random(32)
    matrices = [
        Matrix(0, 4, ()),
        Matrix(3, 0, ()),
        Matrix.from_rows([[0, 0, 0]] * 4),
        Matrix.from_rows([[0, 0], [1, 2], [0, 0], [2, 4], [3, 1]]),
    ]
    for _ in range(100):
        cols = rng.randint(1, 4)
        data = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(cols)] for _ in range(cols + 4)]
        data[rng.randrange(len(data))] = [0] * cols
        matrices.append(Matrix.from_rows(data))
    for m in matrices:
        rows = m.to_rows()
        assert rank(m) == naive_rank(rows)
        assert nullspace_basis(m) == naive_nullspace(rows, m.cols)


def _random_rational_matrix(rng):
    rows = rng.randint(0, 7)
    cols = rng.randint(1, 8)

    def entry():
        roll = rng.random()
        if roll < 0.4:
            return 0
        if roll < 0.75:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        data[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        zero_col = rng.randrange(cols)
        for row in data:
            row[zero_col] = 0
    return Matrix.from_rows(data, cols=cols)


def test_nullspace_matches_gauss_jordan_oracle():
    rng = random.Random(12)
    matrices = [_random_rational_matrix(rng) for _ in range(300)]
    matrices += [
        Matrix.from_rows([[0, 0, 0], [1, 2, 3], [0, 0, 0]]),
        Matrix.from_rows([[0, 1, 0, 2], [0, 3, 0, 4]]),
        Matrix(0, 3, ()),
    ]
    schemes = _triple_point_schemes() + [
        gen_random(2, 3, [2, 2, 1], config="rnc", seed=3),
        make_scheme(1, [((1, Fraction(1, 2)), 2), ((Fraction(2, 3), 1), 1)]),
    ]
    for z in schemes:
        for scheme in (z, embed(z, z.ambient_dim + 1)):
            matrices += [conditions_matrix(scheme, t).matrix for t in range(4)]
    for m in matrices:
        assert nullspace_basis(m) == naive_nullspace(m.to_rows(), m.cols)
