import collections
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import fatpoints.exactlinalg as exactlinalg_mod
import fatpoints.hilbert as hilbert_mod
from fatpoints.errors import (
    DegreeOutOfRange,
    InternalBoundViolation,
    ResourceLimit,
    TargetTooSmall,
)
from fatpoints.hilbert import (
    conditions_matrix,
    hilbert_function,
    hilbert_pass,
    hilbert_table,
    ideal_dim,
    monomial_basis,
    regularity_index,
)
from fatpoints.exactlinalg import Matrix, _rank_of_int_rows, binomial, rank
from fatpoints.verify import check_restriction_range
from fatpoints.scheme import (
    UnitIdeal,
    embed,
    gen_random,
    make_scheme,
    multiplicity,
    scheme_from_json,
    scheme_to_json,
    truncate,
)

from oracles import (
    monomials,
    naive_conditions_rows,
    naive_hilbert,
    naive_rank,
    single_point_hilbert,
)


def _int_rows(scheme, dim, t):
    """The degree-t conditions rows of the scheme's points in P^dim, and
    their width."""
    rows = [row for _, _, row in hilbert_mod._labelled_rows(scheme, dim, t)]
    return rows, binomial(t + dim, dim)


def _single(n, m, coords=None):
    if coords is None:
        coords = tuple([1] + [0] * n)
    return make_scheme(n, [(coords, m)])


def test_monomial_basis_size_and_order():
    basis = monomial_basis(2, 2)
    assert basis.exponents == ((2, 0), (1, 1), (0, 2))
    basis = monomial_basis(3, 2)
    assert len(basis.exponents) == binomial(2 + 2, 2)
    assert basis.exponents[0] == (2, 0, 0)
    assert basis.exponents[-1] == (0, 0, 2)
    # descending lexicographic within the fixed degree
    assert list(basis.exponents) == sorted(basis.exponents, reverse=True)
    for k, d in ((1, 0), (1, 5), (2, 0), (2, 7), (4, 0), (4, 3), (5, 4), (7, 2), (3, 9), (6, 5)):
        assert list(monomial_basis(k, d).exponents) == sorted(monomials(k, d), reverse=True)
    with pytest.raises(ValueError, match="^need at least one variable"):
        monomial_basis(0, 1)


def test_conditions_matrix_simple_point_line():
    z = _single(1, 1)
    cm = conditions_matrix(z, 1)
    assert cm.matrix.to_rows() == [[1, 0]]
    assert cm.row_index == ((0, (0, 0)),)


def test_conditions_matrix_double_point_line():
    z = _single(1, 2)
    cm = conditions_matrix(z, 1)
    # only the first derivatives: by Euler's formula they span the value row
    assert cm.matrix.to_rows() == [[1, 0], [0, 1]]
    assert [alpha for _, alpha in cm.row_index] == [(1, 0), (0, 1)]
    assert rank(cm.matrix) == 2


def test_conditions_matrix_point_all_ones():
    z = make_scheme(2, [((1, 1, 1), 1)])
    cm = conditions_matrix(z, 1)
    assert cm.matrix.to_rows() == [[1, 1, 1]]


def test_conditions_matrix_shape():
    z = make_scheme(2, [((1, 2, 3), 3), ((0, 1, 1), 2)])
    cm = conditions_matrix(z, 4)
    assert cm.matrix.cols == binomial(4 + 2, 2)
    # one row per derivative multi-index of order min(m - 1, t)
    assert cm.matrix.rows == len(cm.row_index) == binomial(2 + 2, 2) + binomial(1 + 2, 2) == 9
    assert [sum(alpha) for _, alpha in cm.row_index] == [2] * 6 + [1] * 3
    # orders above the degree give all-zero rows, which are left out
    cm = conditions_matrix(_single(3, 60), 1)
    assert cm.matrix.rows == len(cm.row_index) == 4
    assert rank(cm.matrix) == 4


def _assert_matches_oracle(z, degrees):
    """``conditions_matrix`` of z equals the entry-by-entry oracle's rows of
    order min(m - 1, t), row by labelled row, in every given degree."""
    nvars = z.ambient_dim + 1
    for t in degrees:
        # the oracle lists rows by component, then monomials()
        labels = [
            (ci, alpha)
            for ci, m in enumerate(z.multiplicities)
            for alpha in monomials(nvars, min(m - 1, t))
        ]
        oracle_rows = naive_conditions_rows(z, t, top_only=True)
        assert len(oracle_rows) == len(labels)
        expected = {
            label: dict(zip(monomials(nvars, t), row)) for label, row in zip(labels, oracle_rows)
        }
        cm = conditions_matrix(z, t)
        got = {
            label: dict(zip(cm.basis.exponents, cm.matrix.row(k)))
            for k, label in enumerate(cm.row_index)
        }
        assert len(got) == cm.matrix.rows
        assert got == expected


def test_conditions_matrix_entries_match_oracle_on_fractional_points():
    schemes = [
        make_scheme(1, [((Fraction(2, 3), Fraction(-5, 7)), 3), ((0, 1), 2)]),
        make_scheme(2, [((Fraction(3, 4), 0, Fraction(-1, 6)), 3), ((1, Fraction(2, 5), 3), 2)]),
        make_scheme(3, [((0, Fraction(1, 3), Fraction(-7, 2), 0), 2), ((5, 0, 0, Fraction(1, 9)), 1)]),
    ]
    for z in schemes:
        _assert_matches_oracle(z, range(5))


def _support_pattern_schemes():
    """For P^2 and P^3, one point per support pattern (every nonempty set of
    nonzero coordinates, so (0:0:1) and (1:1:0) among them), with
    fractional coordinates and multiplicities 1 to top in turn; top is 3
    in P^3 only to keep the oracle's dense rows small."""
    rng = random.Random(7)
    schemes = []
    for n, top in ((2, 4), (3, 3)):
        components = []
        for pattern in range(1, 2 ** (n + 1)):
            coords = tuple(
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                if pattern >> j & 1
                else 0
                for j in range(n + 1)
            )
            components.append((coords, pattern % top + 1))
        schemes.append(make_scheme(n, components))
    return schemes


def test_row_tables_match_oracle_on_every_support_pattern():
    supports = set()
    for z in _support_pattern_schemes():
        supports |= {tuple(bool(c) for c in p.coords) for p in z.points}
        _assert_matches_oracle(z, range(6))
        _assert_matches_oracle(embed(z, z.ambient_dim + 1), range(5))
    assert (False, False, True) in supports and (True, True, False) in supports
    assert len(supports) == 7 + 15


def test_the_hilbert_layer_keeps_one_cache():
    cached = [value for value in vars(hilbert_mod).values() if hasattr(value, "cache_info")]
    assert cached and all(value is hilbert_mod._pass for value in cached)
    assert hilbert_mod._pass.cache_info().maxsize == 2
    assert hilbert_mod._rank_at_degree is hilbert_mod._pass


def test_conditions_matrix_nullspace_is_ideal():
    # nullspace dimension must equal the ideal dimension at every degree
    z = make_scheme(2, [((1, 0, 0), 2), ((1, 1, 1), 1)])
    from fatpoints.exactlinalg import nullspace_basis

    for t in range(4):
        cm = conditions_matrix(z, t)
        assert len(nullspace_basis(cm.matrix)) == ideal_dim(z, t)


def test_ideal_dim_examples():
    assert ideal_dim(_single(1, 2), 1) == 0
    assert ideal_dim(_single(1, 1), 1) == 1
    assert ideal_dim(UnitIdeal(2), 2) == 6


def test_hilbert_function_examples():
    z = _single(2, 2)
    assert hilbert_function(z, 0) == 1
    assert hilbert_function(z, 1) == 3
    two = make_scheme(1, [((1, 0), 1), ((0, 1), 1)])
    assert hilbert_function(two, 1) == 2
    assert hilbert_function(UnitIdeal(3), 5) == 0


def test_hilbert_first_value_is_one():
    for z in (
        _single(3, 2),
        make_scheme(2, [((1, 4, -2), 3), ((1, 0, 0), 1)]),
    ):
        assert hilbert_function(z, 0) == 1


def test_hilbert_rejects_negative_degree():
    with pytest.raises(DegreeOutOfRange):
        hilbert_function(_single(1, 1), -1)


def test_hilbert_matches_naive_oracle():
    schemes = [
        make_scheme(1, [((1, Fraction(1, 2)), 3), ((0, 1), 1)]),
        make_scheme(2, [((1, 2, 3), 2), ((0, 1, 1), 2), ((1, 0, 0), 1)]),
        make_scheme(3, [((1, 1, 0, 2), 2), ((0, 0, 1, Fraction(3, 4)), 1)]),
    ]
    for z in schemes:
        for t in range(5):
            assert hilbert_function(z, t) == naive_hilbert(z, t)


def test_single_fat_point_closed_form():
    rng = random.Random(12)
    for n in (1, 2, 3):
        for mult in (1, 2, 3, 4):
            coords = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n + 1))
            if all(c == 0 for c in coords):
                coords = tuple([1] + [0] * n)
            z = _single(n, mult, coords)
            for t in range(mult + 2):
                assert hilbert_function(z, t) == single_point_hilbert(n, mult, t)
                # the image of one fat point is one fat point of P^m
                for m in range(n + 1, n + 4):
                    image = single_point_hilbert(m, mult, t)
                    assert hilbert_function(z, t, m) == image
                    source = single_point_hilbert(n, mult, t)
                    got = (hilbert_function(z, t, m), hilbert_pass(z, m).old_rank(t))
                    assert got == (image, source)
    # a 60-fold point: only the rows of order t are built
    z = _single(3, 60)
    assert len(_int_rows(z, 3, 1)[0]) == 4
    for t in range(3):
        assert hilbert_function(z, t) == binomial(t + 3, 3)


def test_hilbert_invariant_under_coordinate_change():
    rng = random.Random(99)

    def random_invertible(k):
        while True:
            mat = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            if rank(Matrix.from_rows(mat)) == k:
                return mat

    for n in (1, 2):
        z = gen_random(n, 3, [2, 1, 1], config="generic", seed=17)
        mat = random_invertible(n + 1)
        moved = make_scheme(
            n,
            [
                (
                    tuple(
                        sum(mat[i][j] * p.coords[j] for j in range(n + 1))
                        for i in range(n + 1)
                    ),
                    m,
                )
                for p, m in z.components
            ],
        )
        for t in range(regularity_index(z) + 2):
            assert hilbert_function(z, t) == hilbert_function(moved, t)
        assert regularity_index(z) == regularity_index(moved)


def test_regularity_single_fat_point():
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            assert regularity_index(_single(n, m)) == m - 1


def test_regularity_two_simple_points():
    for n in (1, 2, 3):
        coords_a = tuple([1] + [0] * n)
        coords_b = tuple([0] * n + [1])
        z = make_scheme(n, [(coords_a, 1), (coords_b, 1)])
        assert regularity_index(z) == 1


def test_regularity_three_collinear_simple_points():
    z = make_scheme(2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 1, 0), 1)])
    assert hilbert_function(z, 1) == 2
    assert hilbert_function(z, 2) == 3
    assert regularity_index(z) == 2


def test_regularity_lower_bound_two_largest_multiplicities():
    rng = random.Random(31)
    for seed in range(10):
        mults = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        z = gen_random(2, len(mults), mults, config="generic", seed=seed)
        top = sorted(mults, reverse=True)
        assert regularity_index(z) >= top[0] + top[1] - 1


def test_hilbert_table_examples():
    assert hilbert_table(_single(1, 2)).values == (1, 2)
    assert hilbert_table(_single(1, 2)).reg == 1
    table = hilbert_table(_single(1, 3))
    assert table.values == (1, 2, 3)
    assert table.reg == 2
    assert hilbert_table(_single(3, 1)).values == (1,)


def test_hilbert_table_shape_on_random_schemes():
    for seed in range(6):
        z = gen_random(2, 3, [2, 2, 1], config="generic", seed=seed)
        table = hilbert_table(z)
        e = multiplicity(z)
        assert table.values[0] == 1
        assert all(a < b for a, b in zip(table.values, table.values[1:]))
        assert table.values[-1] == table.multiplicity == e
        for t in (table.reg, table.reg + 1, table.reg + 2):
            assert hilbert_function(z, t) == e
        assert all(hilbert_function(z, t) <= binomial(t + 2, 2) for t in range(table.reg + 1))
        assert all(v <= e for v in table.values)


def test_rank_row_incremental_consistency():
    # rank of the first k rows is nondecreasing and ends at the full rank
    z = make_scheme(2, [((1, 2, -1), 2), ((0, 1, 3), 2)])
    cm = conditions_matrix(z, 3)
    rows = cm.matrix.to_rows()
    previous = 0
    for k in range(1, len(rows) + 1):
        partial = rank(Matrix.from_rows(rows[:k]))
        assert partial in (previous, previous + 1)
        previous = partial
    assert previous == rank(cm.matrix) == hilbert_function(z, 3)


def test_column_cap_enforced(monkeypatch):
    z = _single(2, 1)
    monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", 5)
    with pytest.raises(ResourceLimit):
        hilbert_function(z, 3)  # needs C(5,2) = 10 columns
    with pytest.raises(ResourceLimit):
        conditions_matrix(z, 3)
    # the pass's own reads are capped too, the old-variable count included
    for m in (2, 4):
        walk = hilbert_pass(z, m)
        with pytest.raises(ResourceLimit):
            walk.old_rank(3)
        with pytest.raises(ResourceLimit):
            walk.h(3)
    assert hilbert_function(z, 1) == 1  # small degrees still fine


def test_regularity_refused_before_any_elimination(monkeypatch):
    # H(t) <= C(t+1, 1) = t + 1 < 1000 below t = 999, so the scan starts at
    # t = 50, the first degree over the cap; the pass refuses it unwalked
    monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", 50)

    def no_elimination(*args):
        pytest.fail("a candidate was eliminated before the refusal")

    monkeypatch.setattr(hilbert_mod, "_insert", no_elimination)
    message = r"^degree 50 in P\^1 needs 51 monomial columns \(cap 50\)$"
    with pytest.raises(ResourceLimit, match=message):
        regularity_index(_single(1, 1000))


def test_unit_ideal_regularity_rejected():
    with pytest.raises(ValueError):
        regularity_index(UnitIdeal(2))


def test_safety_cap_flags_broken_hilbert_values(monkeypatch):
    # a Hilbert function that never reaches the multiplicity must trip the
    # scan bound instead of looping; a cold memo, so no stored value hides it
    monkeypatch.setattr(hilbert_mod._Pass, "h", lambda self, t, drop=0: 0)
    hilbert_mod._pass.cache_clear()
    with pytest.raises(InternalBoundViolation):
        regularity_index(_single(2, 2))


def test_hilbert_table_flags_a_malformed_table(monkeypatch):
    # every value read as e: the scan stops at its start, t = 1, and the
    # table (3, 3) does not start at 1; the memo is cleared on both sides, so
    # no pass keeps that regularity index
    monkeypatch.setattr(hilbert_mod._Pass, "h", lambda self, t, drop=0: self.size)
    hilbert_mod._pass.cache_clear()
    message = r"^malformed Hilbert table \(3, 3\) for e = 3$"
    try:
        with pytest.raises(InternalBoundViolation, match=message):
            hilbert_table(_single(2, 2))
    finally:
        hilbert_mod._pass.cache_clear()


def _plain_restriction_rows(scheme, target_dim, t):
    """The stacked and restricted rows of the restriction records, built from
    the current row builder with columns matched by exponent vector."""
    n = scheme.ambient_dim
    image = embed(scheme, target_dim)
    image_rows, ncols = _int_rows(image, target_dim, t)
    source_rows, source_cols = _int_rows(scheme, n, t)
    column = {beta: k for k, beta in enumerate(monomial_basis(target_dim + 1, t).exponents)}
    pad = (0,) * (target_dim - n)
    old = [column[beta + pad] for beta in monomial_basis(n + 1, t).exponents]
    stacked = image_rows + [{old[c]: v for c, v in row.items()} for row in source_rows]
    restricted = [{old.index(c): v for c, v in row.items() if c in old} for row in image_rows]
    return (stacked, ncols), (restricted, source_cols)


def _recorded_eliminations(mp):
    """The rows of every row elimination, in call order."""
    calls = []
    real_echelon = exactlinalg_mod._echelon

    def recorded(rows, ncols):
        rows = list(rows)
        calls.append(rows)
        return real_echelon(rows, ncols)

    mp.setattr(exactlinalg_mod, "_echelon", recorded)
    return calls


def _counting_row_builds(mp):
    calls = []
    real_rows = hilbert_mod._labelled_rows

    def counted(scheme, dim, t):
        calls.append((dim, t))
        return real_rows(scheme, dim, t)

    mp.setattr(hilbert_mod, "_labelled_rows", counted)
    return calls


def _restriction_cases():
    shapes = [(1, [2, 1, 1]), (2, [2, 2, 1]), (3, [2, 1, 1])]
    for config in ("generic", "collinear", "rnc"):
        for seed, (n, mults) in enumerate(shapes):
            scheme = gen_random(n, len(mults), mults, config=config, seed=seed)
            for target_dim in (n + 1, n + 2, n + 3):
                for t in range(regularity_index(scheme) + 2):
                    yield scheme, target_dim, t


def test_restriction_certified_from_warm_memo(monkeypatch):
    for scheme, target_dim, t in _restriction_cases():
        plain = _plain_restriction_rows(scheme, target_dim, t)
        # both ranks are read from the image's pass, which has walked to t
        hilbert_function(scheme, t, target_dim)
        with monkeypatch.context() as mp:
            calls = _recorded_eliminations(mp)
            builds = _counting_row_builds(mp)
            got = (
                hilbert_function(scheme, t, target_dim),
                hilbert_pass(scheme, target_dim).old_rank(t),
            )
        assert (calls, builds) == ([], [])
        assert list(got) == [_rank_of_int_rows(rows, ncols) for rows, ncols in plain]


def _memo_counts():
    info = hilbert_mod._rank_at_degree.cache_info()
    return info.hits, info.misses


def test_equal_points_from_different_inputs_share_memo_entries():
    a = make_scheme(1, [((2, 4), 2), ((3, 0), 1)])
    b = make_scheme(1, [((1, 2), 2), ((1, 0), 1)])
    assert a.points[0] == b.points[0] and hash(a.points[0]) == hash(b.points[0])
    assert a == b and hash(a) == hash(b)
    values = [hilbert_function(a, t) for t in range(4)]
    hits, misses = _memo_counts()
    assert [hilbert_function(b, t) for t in range(4)] == values
    assert _memo_counts() == (hits + 4, misses)


def test_round_tripped_and_truncated_schemes_hit_the_memo():
    # each equal scheme is asked for right after its original, whose pass
    # is then still in the memo of two
    z = gen_random(2, 3, [3, 2, 1], config="generic", seed=4)
    image = embed(z, 4)
    degrees = range(regularity_index(z) + 2)
    copy = scheme_from_json(scheme_to_json(z))
    image_copy = scheme_from_json(scheme_to_json(image))
    pairs = [
        (z, copy),
        (truncate(z, 1), truncate(copy, 1)),
        (truncate(z, 2), truncate(copy, 2)),
        (image, embed(copy, 4)),
        (truncate(image, 1), truncate(image_copy, 1)),
    ]
    for original, equal in pairs:
        values = [hilbert_function(original, t) for t in degrees]
        hits, misses = _memo_counts()
        assert [hilbert_function(equal, t) for t in degrees] == values, equal
        assert _memo_counts() == (hits + len(values), misses), equal


def test_own_dimension_as_target_hits_the_plain_memo_entry():
    z = gen_random(2, 3, [2, 1, 1], config="generic", seed=11)
    values = [hilbert_function(z, t) for t in range(4)]
    hits, misses = _memo_counts()
    assert [hilbert_function(z, t, 2) for t in range(4)] == values
    assert _memo_counts() == (hits + 4, misses)


def test_target_dim_answers_for_the_embedded_scheme():
    shapes = [(1, [2, 1, 1]), (2, [2, 2, 1]), (3, [2, 1, 1])]
    for config in ("generic", "collinear", "rnc"):
        for seed, (n, mults) in enumerate(shapes):
            z = gen_random(n, len(mults), mults, config=config, seed=seed + 20)
            for m in range(n, n + 4):
                image = embed(z, m)
                reg = regularity_index(image)
                assert regularity_index(z, m) == reg
                assert multiplicity(z, m) == multiplicity(image)
                for t in range(reg + 2):
                    assert hilbert_function(z, t, m) == hilbert_function(image, t)
                    assert ideal_dim(z, t, m) == ideal_dim(image, t)


def test_target_below_the_scheme_is_refused_like_embed():
    z = _single(2, 2)
    with pytest.raises(TargetTooSmall) as expected:
        embed(z, 1)
    calls = [
        lambda: hilbert_function(z, 1, 1),
        lambda: ideal_dim(z, 1, 1),
        lambda: regularity_index(z, 1),
        lambda: multiplicity(z, 1),
    ]
    for call in calls:
        with pytest.raises(TargetTooSmall) as got:
            call()
        assert str(got.value) == str(expected.value)


# every Hilbert-layer entry that takes a target, called with one on a scheme
# of P^1: True once answered for target 1, and 3.0 failed deep in the pass
_TARGET_TAKERS = {
    "hilbert_function": lambda z, m: hilbert_function(z, 2, m),
    "ideal_dim": lambda z, m: ideal_dim(z, 2, m),
    "regularity_index": regularity_index,
    "multiplicity": multiplicity,
    "embed": embed,
    "hilbert_pass": hilbert_pass,
}


@pytest.mark.parametrize("target_dim", [True, 3.0, "3"])
@pytest.mark.parametrize("name", sorted(_TARGET_TAKERS))
def test_a_target_that_is_not_an_int_is_refused(name, target_dim):
    message = f"^target dimension must be an int, got {type(target_dim).__name__}$"
    with pytest.raises(TypeError, match=message):
        _TARGET_TAKERS[name](_single(1, 2), target_dim)


_DROP_TAKERS = {
    "hilbert_function": lambda z, drop: hilbert_function(z, 2, drop=drop),
    "ideal_dim": lambda z, drop: ideal_dim(z, 2, drop=drop),
    "truncate": truncate,
}


@pytest.mark.parametrize("drop", [True, 1.5, None, "1"])
@pytest.mark.parametrize("function", sorted(_DROP_TAKERS))
def test_a_drop_that_is_not_an_int_is_refused(function, drop):
    with pytest.raises(TypeError, match=f"^drop must be an int, got {type(drop).__name__}$"):
        _DROP_TAKERS[function](_single(1, 3), drop)


def test_embedded_rows_take_memory_by_columns_not_variables():
    # degree 1 in P^4999 has 5,000 columns; a monomial of degree 1 is one
    # index, where an exponent vector would have 5,000 entries
    z = _single(2, 2, (1, 2, 3))
    tracemalloc.start()
    try:
        assert hilbert_function(embed(z, 4999), 1) == 5000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def _euler_cases():
    """Corpus-range schemes in the dimensions n..n+3 and their truncations,
    then the support-pattern schemes in their own dimensions."""
    shapes = [
        ("generic", 1, [3, 2, 1]),
        ("generic", 2, [3, 2, 1]),
        ("generic", 3, [3, 1]),
        ("collinear", 2, [3, 2, 1]),
        ("rnc", 3, [3, 2]),
    ]
    for seed, (config, n, mults) in enumerate(shapes):
        z = gen_random(n, len(mults), mults, config=config, seed=seed + 60)
        for w in (z, truncate(z, 1)):
            for m in range(n, n + 4):
                yield w, m
    for z in _support_pattern_schemes():
        yield z, z.ambient_dim


def test_top_order_rows_span_every_order():
    # by Euler's formula the rows of order min(m_i - 1, t) span those of
    # every lower order: the oracle's rank over all orders below m_i equals
    # its rank over the top order alone, and both equal H(t)
    for w, m in _euler_cases():
        image = embed(w, m)
        for t in range(regularity_index(w, m) + 2):
            if binomial(t + m, m) > 56:  # keeps the dense oracle quick
                break
            every = naive_rank(naive_conditions_rows(image, t))
            top = naive_rank(naive_conditions_rows(image, t, top_only=True))
            assert every == top == hilbert_function(w, t, m), (w, m, t)


def test_no_point_has_more_rows_than_columns():
    cases = [(w, m, t) for w, m in _euler_cases() for t in range(6)]
    huge = make_scheme(40, [(tuple(range(1, 42)), 10**100)])
    cases += [(huge, 40, t) for t in range(4)]
    for w, m, t in cases:
        rows = collections.Counter(ci for (ci, _), _, _ in hilbert_mod._labelled_rows(w, m, t))
        assert max(rows.values()) <= binomial(t + m, m), (w, m, t)


def test_a_huge_multiplicity_in_a_large_space_is_quick():
    # a 10^100-fold point of P^40 has C(43, 40) = 12,341 columns in degree 3
    # and, with the top order alone, as many rows
    z = make_scheme(40, [((1, Fraction(-3, 2)) + tuple(range(2, 41)), 10**100)])
    started = time.perf_counter()
    assert hilbert_function(z, 3) == binomial(43, 40)
    assert time.perf_counter() - started < 5.0


def _pass_cases(step):
    """Every ``step``-th acceptance-corpus scheme with its regularity index."""
    from test_acceptance import build_corpus

    for entry in build_corpus()[::step]:
        yield entry.scheme, regularity_index(entry.scheme)


def test_pass_matches_row_eliminations_and_the_oracle_on_the_corpus():
    for z, reg in _pass_cases(10):
        walk = hilbert_mod._Pass(z, z.ambient_dim)
        for t in range(reg + 2):
            cm = conditions_matrix(z, t)
            assert walk.h(t) == rank(cm.matrix), (z, t)
            if cm.matrix.cols <= 20:
                assert walk.h(t) == naive_hilbert(z, t), (z, t)


def test_image_values_match_row_eliminations_and_the_oracle_on_the_corpus():
    for z, _ in _pass_cases(10):
        n = z.ambient_dim
        for m in range(n + 1, n + 4):
            image = embed(z, m)
            for t in range(regularity_index(z, m) + 2):
                rows, ncols = _int_rows(z, m, t)
                assert hilbert_function(z, t, m) == _rank_of_int_rows(rows, ncols), (z, m, t)
                if ncols <= 20:
                    assert hilbert_function(z, t, m) == naive_hilbert(image, t), (z, m, t)


def test_pass_prefix_counts_are_the_truncations():
    # after degree t, the pivots of level >= k count H(t) of Z - k, in the
    # scheme's own space and in its image in P^(n+1)
    for z, reg in _pass_cases(5):
        n = z.ambient_dim
        for dim in (n, n + 1):
            walk = hilbert_mod._Pass(z, dim)
            for k in range(1, max(z.multiplicities) + 1):
                w = truncate(z, k)
                for t in range(reg + 2):
                    rows = 0 if isinstance(w, UnitIdeal) else _rank_of_int_rows(*_int_rows(w, dim, t))
                    assert walk.h(t, k) == rows, (z, dim, k, t)
                    assert hilbert_function(z, t, dim, drop=k) == hilbert_function(w, t, dim) == rows
                    assert ideal_dim(z, t, dim, drop=k) == ideal_dim(w, t, dim)


@pytest.mark.parametrize("offset", [1, 2, 3])
def test_image_pass_is_the_pass_of_the_padded_scheme(offset):
    # a padded point keeps its source point's nonzero coordinates, so the
    # image's pass takes the same chart as the pass of embed(Z, m) and walks
    # to the same table of every truncation
    for z, reg in _pass_cases(10):
        m = z.ambient_dim + offset
        walk, padded = hilbert_mod._Pass(z, m), hilbert_mod._Pass(embed(z, m), m)
        assert walk.coords == padded.coords and walk.size == padded.size, (z, m)
        for k in range(max(z.multiplicities)):
            for t in range(reg + 2):
                assert walk.h(t, k) == padded.h(t, k), (z, m, k, t)


@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_old_variable_counts_are_the_source_values(offset):
    # the standard monomials in X_1..X_n of the pass in P^(n + offset) count
    # the source's H(t); in the source's own space they are all of them
    for z, reg in _pass_cases(10):
        walk = hilbert_mod._Pass(z, z.ambient_dim + offset)
        for t in range(reg + 2):
            old = walk.old_rank(t)
            assert old == hilbert_function(z, t) <= walk.h(t), (z, offset, t)
            if offset == 0:
                assert old == walk.h(t), (z, t)


def _graded_lex_index(monomial, num_vars):
    return hilbert_mod._monomials(num_vars, sum(e for _, e in monomial))[monomial]


def _candidate_split(walk, degree):
    """The next-degree monomials in X_1..X_dim whose divisors are all
    standard, split into those the walk should offer, in graded-lex order,
    and the products gamma * X_j it should skip, as (vector of gamma, j):
    j a new variable, j > n, and gamma's vector on level-0 keys alone."""
    offered, skipped = [], []
    for beta in hilbert_mod._monomials(walk.dim + 1, degree + 1):
        if beta[0][0] == 0:
            continue
        if not all(hilbert_mod._divide(beta, k) in walk.last for k in range(len(beta))):
            continue
        j, gamma = beta[-1][0], hilbert_mod._divide(beta, len(beta) - 1)
        vector = walk.pivots[walk.last[gamma]]
        if j > walk.old and all(key[0] == 0 for key in vector):
            skipped.append((vector, j))
        else:
            offered.append(beta)
    return offered, skipped


@pytest.mark.parametrize("offset", [0, 2])
def test_each_candidate_is_found_once_in_graded_lex_order(offset):
    # every monomial of the next degree whose divisors are all standard is a
    # candidate, once, but for the skipped products with a new variable; the
    # candidates come in graded-lex order, as do the standard monomials the
    # walk keeps
    for z, reg in _pass_cases(20):
        dim = z.ambient_dim + offset
        walk = hilbert_mod._Pass(z, dim)
        for degree in range(reg):  # the pivots number e from degree reg on
            candidates = [beta for beta, _, _ in walk._candidates()]
            assert candidates == _candidate_split(walk, degree)[0], (z, dim, degree)
            walk._walk()
            kept = list(walk.last)
            assert kept == sorted(kept, key=lambda beta: _graded_lex_index(beta, dim + 1))
            assert set(kept) <= set(candidates), (z, dim, degree)
            assert len(kept) == walk.totals[-1] - walk.totals[-2], (z, dim, degree)
        assert len(walk.pivots) == walk.size, (z, dim)


def test_skipped_candidates_have_zero_products():
    # a product the image's walk skips would have reduced to zero: its
    # vector, gamma's times a variable that is zero at every padded point, is
    # empty before any reduction
    skipped = 0
    for z, reg in _pass_cases(20):
        walk = hilbert_mod._Pass(z, z.ambient_dim + 2)
        for degree in range(reg):
            for vector, j in _candidate_split(walk, degree)[1]:
                assert walk._times_variable(vector, j) == {}, (z, degree, j)
                skipped += 1
            walk._walk()
    assert skipped > 0


def test_a_second_chart_gives_the_same_table():
    # reversed coordinates put some points off X_0 = 1, so the pass walks in
    # another chart; the Hilbert function of every truncation is unchanged
    moved = 0
    for z, reg in _pass_cases(5):
        raw = [(tuple(reversed(p.coords)), m) for p, m in z.components]
        w = make_scheme(z.ambient_dim, raw)
        moved += any(p.coords[-1] == 0 for p in z.points)
        walks = hilbert_mod._Pass(z, z.ambient_dim), hilbert_mod._Pass(w, w.ambient_dim)
        for k in range(max(z.multiplicities)):
            for t in range(reg + 2):
                assert walks[0].h(t, k) == walks[1].h(t, k), (z, k, t)
    assert moved > 0


def test_source_values_build_and_eliminate_no_rows(monkeypatch):
    for z, reg in _pass_cases(10):
        hilbert_mod._pass.cache_clear()
        with monkeypatch.context() as mp:
            calls = _recorded_eliminations(mp)
            builds = _counting_row_builds(mp)
            for k in range(max(z.multiplicities) + 1):
                for t in range(reg + 2):
                    hilbert_function(z, t, drop=k)
        assert (calls, builds) == ([], [])


def test_image_values_build_and_eliminate_no_rows(monkeypatch):
    # H(t), the truncations and the old-variable count of every image
    for z, reg in _pass_cases(10):
        n = z.ambient_dim
        for m in range(n + 1, n + 4):
            hilbert_mod._pass.cache_clear()
            with monkeypatch.context() as mp:
                calls = _recorded_eliminations(mp)
                builds = _counting_row_builds(mp)
                for t in range(regularity_index(z, m) + 2):
                    for k in range(max(z.multiplicities) + 1):
                        hilbert_function(z, t, m, drop=k)
                    hilbert_pass(z, m).old_rank(t)
            assert (calls, builds) == ([], []), (z, m)


def test_negative_drop_and_image_drop_follow_truncate():
    z = make_scheme(2, [((1, 2, -1), 2), ((0, 1, 3), 1)])
    for t in range(5):
        assert hilbert_function(z, t, drop=-1) == hilbert_function(truncate(z, -1), t)
        assert hilbert_function(z, t, 4, drop=1) == hilbert_function(truncate(z, 1), t, 4)
        assert hilbert_function(z, t, 4, drop=2) == 0


@pytest.mark.parametrize("dim", [2, 4])
def test_an_interrupted_walk_leaves_the_pass_as_it_was(monkeypatch, dim):
    z = gen_random(2, 4, [3, 2, 2, 1], config="generic", seed=3)
    walk = hilbert_mod._Pass(z, dim)
    expected = [walk.h(t, k) for k in range(3) for t in range(7)]
    expected_old = [walk.old_rank(t) for t in range(7)]
    for stop in (1, 5, 20):
        hilbert_mod._pass.cache_clear()
        hilbert_function(z, 1, dim)
        calls, combine = [], exactlinalg_mod._combine

        def interrupted(row, prow, col):
            calls.append(col)
            if len(calls) == stop:
                raise KeyboardInterrupt
            return combine(row, prow, col)

        with monkeypatch.context() as mp:
            mp.setattr(exactlinalg_mod, "_combine", interrupted)
            with pytest.raises(KeyboardInterrupt):
                hilbert_function(z, 6, dim)
        assert [hilbert_function(z, t, dim, drop=k) for k in range(3) for t in range(7)] == expected
        assert [hilbert_pass(z, dim).old_rank(t) for t in range(7)] == expected_old


def test_pass_memo_stays_bounded():
    for z, reg in _pass_cases(20):
        for t in range(reg + 2):
            hilbert_function(z, t)
            hilbert_function(z, t, drop=1)
            hilbert_function(z, t, z.ambient_dim + 2)
    info = hilbert_mod._pass.cache_info()
    assert info.maxsize == 2 and info.currsize <= 2


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_miscounted_image_walk_fails_the_dimension_record(monkeypatch, shift):
    # the image walk counts one standard monomial in the old variables too
    # few, or too many, in degree 2; the dimension records from degree 2 on
    # fail, and the membership records and the run are unaffected
    z = gen_random(2, 3, [2, 2, 1], config="generic", seed=5)
    real_walk = hilbert_mod._Pass._walk

    def miscounted(self):
        real_walk(self)
        if self.dim > self.old and len(self.old_totals) == 3:
            self.old_totals[-1] += shift

    hilbert_mod._pass.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(hilbert_mod._Pass, "_walk", miscounted)
            report = check_restriction_range(z, 4)
    finally:
        hilbert_mod._pass.cache_clear()
    reg = regularity_index(z)
    assert len(report.records) == 2 * (reg + 2)
    failed = [(r.t, r.note) for r in report.records if not r.passed]
    note = "intersection dimension equals source ideal dimension"
    assert failed == [(t, note) for t in range(2, reg + 2)]
    assert not report.passed
    assert check_restriction_range(z, 4).passed
