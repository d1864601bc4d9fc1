import math
import random
from fractions import Fraction

import fatpoints.exactlinalg as exactlinalg_mod
import fatpoints.hilbert as hilbert_mod
from fatpoints.exactlinalg import _combine, _insert, _primitive, binomial
from fatpoints.scheme import gen_random, make_scheme

from oracles import monomials, naive_rank


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


def _inserted(rows):
    """The pivot rows of dense integer rows sent through ``_insert`` in
    order, keyed by column, and the number of rows that became one."""
    pivots = {}
    stored = sum(
        _insert(pivots, {j: v for j, v in enumerate(row) if v}) is not None for row in rows
    )
    return pivots, stored


def _random_rows(rng):
    rows, cols = rng.randint(0, 8), rng.randint(1, 8)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def _pass_pivots():
    """The pivot rows of finished passes: triple points of P^2 in their own
    space and in P^4."""
    coordinate = make_scheme(
        2, [((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 3), ((1, 2, -1), 3)]
    )
    for z in (coordinate, gen_random(2, 4, [3, 3, 3, 2], config="generic", seed=4)):
        for dim in (2, 4):
            walk = hilbert_mod._Pass(z, dim)
            walk.reg()
            yield walk.pivots


def test_pivot_rows_are_primitive_and_keyed_by_their_least_key():
    # every row update divides by the gcd of the entries, so no pivot row
    # of a random matrix or of a pass keeps a common factor
    rng = random.Random(31)
    tables = [_inserted(_random_rows(rng))[0] for _ in range(200)] + list(_pass_pivots())
    for pivots in tables:
        for key, row in pivots.items():
            assert min(row) == key, (key, row)
            assert math.gcd(*row.values()) == 1, (key, row)


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


def test_insert_counts_the_rank_on_edge_shapes():
    rng = random.Random(32)
    matrices = [
        [],
        [[]] * 3,
        [[0, 0, 0]] * 4,
        [[0, 0], [1, 2], [0, 0], [2, 4], [3, 1]],
    ]
    for _ in range(100):
        cols = rng.randint(1, 4)
        data = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(cols)] for _ in range(cols + 4)]
        data[rng.randrange(len(data))] = [0] * cols
        matrices.append(data)
    for rows in matrices:
        pivots, stored = _inserted(rows)
        assert len(pivots) == stored == naive_rank(rows), rows


def _rank(rows):
    return len(_inserted(rows)[0])


def test_rank_identity():
    pivots, stored = _inserted([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert stored == 3
    assert pivots == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


def test_rank_zero_matrix():
    pivots = {}
    assert _insert(pivots, {}) is None
    assert _rank([[0, 0, 0, 0], [0, 0, 0, 0]]) == 0
    assert pivots == {}


def test_rank_dependent_rows():
    pivots = {}
    assert _insert(pivots, {0: 1, 1: 2}) == 0
    assert _insert(pivots, {0: 2, 1: 4}) is None
    # {0: 1} - {0: 1, 1: 2} = {1: -2}, stored divided by its gcd
    assert _insert(pivots, {0: 1}) == 1
    assert pivots == {0: {0: 1, 1: 2}, 1: {1: -1}}


def test_rank_rational_entries():
    # a row of Fractions has the rank of its integer multiple by the lcm of
    # the denominators, which is how the pass takes fractional points
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
        [Fraction(1, 4), Fraction(1, 6)],
    ]
    cleared = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in rows]
    assert cleared == [[3, 2], [3, 2], [3, 2]]
    assert _rank(cleared) == naive_rank(rows) == 1


def test_rank_of_dependent_random_rows_matches_naive_oracle():
    # rows drawn as integer combinations of a few base rows, so that most
    # of them reduce to zero through several pivot rows
    rng = random.Random(2024)
    for _ in range(150):
        cols, base = rng.randint(1, 9), rng.randint(0, 5)
        basis = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(base)]
        weights = [[rng.randint(-3, 3) for _ in basis] for _ in range(rng.randint(0, 9))]
        rows = [[sum(w * b[j] for w, b in zip(ws, basis)) for j in range(cols)] for ws in weights]
        assert _rank(rows) == naive_rank(rows) <= min(base, len(rows)), rows


def test_rank_of_transpose_matches():
    rng = random.Random(5)
    for _ in range(60):
        rows = _random_rows(rng)
        if rows:
            transpose = [list(col) for col in zip(*rows)]
            assert _rank(rows) == _rank(transpose), rows


def test_rank_invariant_under_row_scaling():
    # a pivot row is primitive, so scaling the input rows by nonzero
    # integers changes every pivot row by a sign at most
    rng = random.Random(8)
    for _ in range(60):
        rows = _random_rows(rng)
        scales = [rng.choice((-3, -1, 2, 5)) for _ in rows]
        scaled = [[c * x for x in row] for c, row in zip(scales, rows)]
        pivots, scaled_pivots = _inserted(rows)[0], _inserted(scaled)[0]
        assert list(pivots) == list(scaled_pivots), rows
        for key, row in pivots.items():
            negated = {c: -v for c, v in row.items()}
            assert scaled_pivots[key] in (row, negated), (rows, key)


def test_rank_invariant_under_key_order():
    # any ordered keys work: reversing or permuting the columns changes
    # the pivot keys but not their number
    rng = random.Random(9)
    for _ in range(60):
        rows = _random_rows(rng)
        cols = len(rows[0]) if rows else 0
        order = list(range(cols))
        rng.shuffle(order)
        permuted = [[row[k] for k in order] for row in rows]
        reversed_rows = [row[::-1] for row in rows]
        assert _rank(rows) == _rank(permuted) == _rank(reversed_rows), rows


def test_repeated_calls_are_deterministic():
    rows = [{0: 2, 1: 4, 2: 1}, {0: 1, 1: 2}, {2: 3}, {0: 6, 1: -2, 2: 9}]
    copies = [dict(row) for row in rows]
    first, second = {}, {}
    for row in rows:
        _insert(first, row)
    for row in rows:
        _insert(second, row)
    assert list(first.items()) == list(second.items())
    # the rows handed in are left as they were
    assert rows == copies


def test_insert_combines_each_pivot_row_at_most_once(monkeypatch):
    # every row update clears the least key, so the keys it is taken at
    # increase strictly and no pivot row is used twice for one row
    calls = []
    combine = exactlinalg_mod._combine

    def counted(row, prow, key):
        calls.append(key)
        return combine(row, prow, key)

    monkeypatch.setattr(exactlinalg_mod, "_combine", counted)
    rng = random.Random(33)
    used = 0
    for _ in range(100):
        pivots = {}
        for row in _random_rows(rng):
            calls.clear()
            known = set(pivots)
            _insert(pivots, {j: v for j, v in enumerate(row) if v})
            assert calls == sorted(set(calls)), calls
            assert set(calls) <= known, (calls, known)
            used += len(calls)
    assert used > 0


def test_every_inserted_row_lies_in_the_span_of_the_pivots():
    rng = random.Random(34)
    for _ in range(100):
        rows = _random_rows(rng)
        pivots = _inserted(rows)[0]
        before = {key: dict(row) for key, row in pivots.items()}
        for row in rows:
            assert _insert(pivots, {j: v for j, v in enumerate(row) if v}) is None, rows
        assert pivots == before


def test_combine_clears_the_key_and_divides_by_the_gcd():
    # 3 * {0: 2, 1: 4, 2: 6} - 2 * {0: 3, 1: 3} = {1: 6, 2: 18} = 6 * {1: 1, 2: 3}
    assert _combine({0: 2, 1: 4, 2: 6}, {0: 3, 1: 3}, 0) == {1: 1, 2: 3}
    # a sign is kept: only the gcd, which is positive, divides
    assert _primitive({0: -4, 3: 6}) == {0: -2, 3: 3}
    assert _primitive({5: -7}) == {5: -1}
    assert _combine({0: 1, 1: 1}, {0: 1, 1: 1}, 0) == {}


def test_binomial_counts_the_monomial_columns():
    # C(t + n, n) is the number of degree-t forms' monomials in n + 1 variables
    for n in range(5):
        for t in range(6):
            assert binomial(t + n, n) == len(monomials(n + 1, t))
