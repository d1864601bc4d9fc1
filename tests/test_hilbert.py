import collections
import functools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

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
    hilbert_table,
    ideal_dim,
    monomial_basis,
    regularity_index,
)
from fatpoints.exactlinalg import Matrix, _rank_of_int_rows, binomial, rank
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
    for k, d in ((1, 0), (1, 5), (2, 0), (2, 7), (4, 0), (4, 3), (5, 4), (7, 2)):
        assert list(monomial_basis(k, d).exponents) == sorted(monomials(k, d), reverse=True)


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


def _rows_and_ranks(schemes, degrees):
    out = []
    for z in schemes:
        for t in degrees:
            rows, ncols = _int_rows(z, z.ambient_dim, t)
            out.append((rows, _rank_of_int_rows(rows, ncols)))
    return out


def test_rows_do_not_depend_on_the_table_cache(monkeypatch):
    schemes = _support_pattern_schemes()
    schemes += [embed(z, z.ambient_dim + 2) for z in schemes]
    degrees = range(5)
    expected = _rows_and_ranks(schemes, degrees)
    # cleared before every build
    cleared = []
    for z in schemes:
        for t in degrees:
            hilbert_mod._row_table.cache_clear()
            cleared += _rows_and_ranks([z], [t])
    assert cleared == expected
    # holding a single table
    single = functools.lru_cache(maxsize=1)(hilbert_mod._row_table.__wrapped__)
    monkeypatch.setattr(hilbert_mod, "_row_table", single)
    assert _rows_and_ranks(schemes, degrees) == expected
    assert single.cache_info().currsize == 1
    assert single.cache_info().misses > 1


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
                    assert hilbert_mod.restriction_ranks(z, m, t) == (image, source)
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
    assert hilbert_function(z, 1) == 1  # small degrees still fine


def test_regularity_refused_before_any_elimination(monkeypatch):
    # H(t) <= C(t+1, 1) = t + 1 < 1000 below t = 999, which needs 1000 columns
    monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", 50)
    misses = hilbert_mod._rank_at_degree.cache_info().misses
    with pytest.raises(ResourceLimit):
        regularity_index(_single(1, 1000))
    assert hilbert_mod._rank_at_degree.cache_info().misses == misses


def test_unit_ideal_regularity_rejected():
    with pytest.raises(ValueError):
        regularity_index(UnitIdeal(2))


def test_safety_cap_flags_broken_hilbert_values(monkeypatch):
    # a Hilbert function that never reaches the multiplicity must trip the
    # scan bound instead of looping
    monkeypatch.setattr(hilbert_mod, "_rank_at_degree", lambda scheme, dim, t: 0)
    with pytest.raises(InternalBoundViolation):
        regularity_index(_single(2, 2))


def _plain_restriction_rows(scheme, target_dim, t):
    """The stacked and restricted rows of ``restriction_ranks``, built from
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


def _counting_eliminations(mp):
    calls = []

    def counted(rows, ncols):
        rows = list(rows)  # the source's rows come as a generator
        calls.append(len(rows))
        return _rank_of_int_rows(rows, ncols)

    mp.setattr(hilbert_mod, "_rank_of_int_rows", counted)
    return calls


def _change_first_entry(rows):
    # the first image row is the lift of the first source row: breaks (a) and (b)
    row = rows[0][2]
    row[min(row)] += 1


def _drop_first_row(rows):
    # no image row is left for the first lifted source row: breaks (a) only
    del rows[0]


def _append_old_column_row(rows):
    # a new image row whose restriction is no source row: breaks (b) only
    rows.append(((-1, ()), 1, {0: 1, 1: 10**9}))


def _append_first_row_again(rows):
    # a copy of the first image row, the lift of the first source row,
    # under a label of no source row: it meets old-variable columns, so it
    # breaks (b) only
    rows.append(((-1, ()), 1, dict(rows[0][2])))


def _add_to_least_entry(row):
    # the row meets old-variable columns only: breaks (a) and (b)
    row[min(row)] += 1
    return row


def _clear_row(row):
    # breaks (a) only
    return {}


def _at_simple_point_row(change):
    """Change the image row labelled as a simple point's source row."""

    def perturb(rows):
        # component 1 is a simple point in every scheme below
        k = next(k for k, (label, _, _) in enumerate(rows) if label == (1, ()))
        label, scale, row = rows[k]
        rows[k] = (label, scale, change(row))

    perturb.__name__ = change.__name__
    return perturb


def _perturb_image_labelled_rows(perturb, target_dim):
    real_rows = hilbert_mod._labelled_rows

    def rows(scheme, dim, t):
        labelled = list(real_rows(scheme, dim, t))
        if dim == target_dim:
            labelled = [(label, scale, dict(row)) for label, scale, row in labelled]
            perturb(labelled)
        yield from labelled

    return rows


def _perturbed_schemes():
    return [
        (make_scheme(1, [((1, 2), 2), ((1, -1), 1)]), 2),
        (make_scheme(2, [((1, 2, -1), 2), ((0, 1, 3), 1)]), 4),
        (gen_random(2, 3, [2, 1, 1], config="collinear", seed=5), 3),
    ]


_PERTURBATIONS = [
    _change_first_entry,
    _drop_first_row,
    _append_old_column_row,
    _append_first_row_again,
    _at_simple_point_row(_add_to_least_entry),
    _at_simple_point_row(_clear_row),
]


@pytest.mark.parametrize("perturb", _PERTURBATIONS, ids=lambda perturb: perturb.__name__)
def test_image_rows_that_do_not_split_raise(monkeypatch, perturb):
    for scheme, target_dim in _perturbed_schemes():
        image = embed(scheme, target_dim)
        for t in range(regularity_index(scheme) + 2):
            hook = _perturb_image_labelled_rows(perturb, target_dim)
            calls = [
                lambda: hilbert_function(scheme, t, target_dim),
                lambda: hilbert_mod.restriction_ranks(scheme, target_dim, t),
            ]
            for call in calls:
                hilbert_mod._rank_at_degree.cache_clear()
                with monkeypatch.context() as mp:
                    mp.setattr(hilbert_mod, "_labelled_rows", hook)
                    with pytest.raises(InternalBoundViolation):
                        call()
                # nothing was stored, so the true rows give the true rank
                assert hilbert_mod._rank_at_degree.cache_info().currsize == 0
                rows, ncols = _int_rows(image, target_dim, t)
                assert hilbert_function(scheme, t, target_dim) == _rank_of_int_rows(rows, ncols)
                if ncols <= 40:
                    assert hilbert_function(scheme, t, target_dim) == naive_hilbert(image, t)
    hilbert_mod._rank_at_degree.cache_clear()


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
        # both ranks are read from the memo entry of the image's H(t)
        hilbert_function(scheme, t, target_dim)
        with monkeypatch.context() as mp:
            calls = _counting_eliminations(mp)
            builds = _counting_row_builds(mp)
            got = hilbert_mod.restriction_ranks(scheme, target_dim, t)
        assert (calls, builds) == ([], [])
        assert list(got) == [_rank_of_int_rows(rows, ncols) for rows, ncols in plain]


def test_restriction_ranks_warm_a_cleared_memo(monkeypatch):
    for scheme, target_dim, t in _restriction_cases():
        plain = _plain_restriction_rows(scheme, target_dim, t)
        hilbert_mod._rank_at_degree.cache_clear()
        with monkeypatch.context() as mp:
            calls = _counting_eliminations(mp)
            got = hilbert_mod.restriction_ranks(scheme, target_dim, t)
        # the image's rows split; only the rows that are no lifted source
        # row are eliminated, and the source's H(t) comes from its pass
        assert len(calls) == 1
        assert list(got) == [_rank_of_int_rows(rows, ncols) for rows, ncols in plain]
        assert list(got) == [hilbert_function(scheme, t, target_dim), hilbert_function(scheme, t)]


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
    z = gen_random(2, 3, [3, 2, 1], config="generic", seed=4)
    image = embed(z, 4)
    degrees = range(regularity_index(z) + 2)
    family = [z, truncate(z, 1), truncate(z, 2), image, truncate(image, 1)]
    values = [hilbert_function(w, t) for w in family for t in degrees]
    hits, misses = _memo_counts()
    copy = scheme_from_json(scheme_to_json(z))
    image_copy = scheme_from_json(scheme_to_json(image))
    again = [copy, truncate(copy, 1), truncate(copy, 2), embed(copy, 4), truncate(image_copy, 1)]
    assert [hilbert_function(w, t) for w in again for t in degrees] == values
    assert _memo_counts() == (hits + len(values), misses)


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


def _image_miss(scheme, target_dim, t, mp):
    """The image's H(t) as a fresh rank-memo miss, with the row count of
    each elimination recorded."""
    hilbert_mod._rank_at_degree.cache_clear()
    calls = _counting_eliminations(mp)
    return hilbert_function(scheme, t, target_dim), calls


def test_image_ranks_add_the_source_rank_to_the_new_variable_rows(monkeypatch):
    shapes = [(1, [2, 1, 1]), (2, [2, 2, 1]), (3, [2, 1, 1])]
    for config in ("generic", "collinear", "rnc"):
        for seed, (n, mults) in enumerate(shapes):
            z = gen_random(n, len(mults), mults, config=config, seed=seed + 40)
            for m in (n + 1, n + 2, n + 3):
                for t in range(regularity_index(z) + 2):
                    rows, ncols = _int_rows(embed(z, m), m, t)
                    plain = _rank_of_int_rows(rows, ncols)
                    source = _source_row_count(z, t)
                    with monkeypatch.context() as mp:
                        # cold: the image's miss is also the source's, whose
                        # H(t) comes from its pass; only the other rows are
                        # eliminated
                        cold, calls = _image_miss(z, m, t, mp)
                        assert (cold, calls) == (plain, [len(rows) - source])
                        assert _memo_counts() == (0, 2)
                        # warm: the source's H(t) is read from the memo
                        hilbert_mod._rank_at_degree.cache_clear()
                        hilbert_function(z, t)
                        calls.clear()
                        warm = hilbert_function(z, t, m)
                        assert (warm, calls) == (plain, [len(rows) - source])
                        assert _memo_counts() == (1, 2)
                        assert hilbert_mod._rank_at_degree(z, m, t) == plain
    hilbert_mod._rank_at_degree.cache_clear()


def _source_row_count(scheme, t):
    return sum(1 for _ in hilbert_mod._labelled_rows(scheme, scheme.ambient_dim, t))


def test_old_column_map_increases_and_keeps_exponents():
    for n, m, t in ((1, 2, 0), (1, 4, 3), (2, 3, 4), (2, 5, 2), (3, 6, 3)):
        old = hilbert_mod._old_columns(n + 1, m + 1, t)
        assert all(a < b for a, b in zip(old, old[1:]))
        image = monomial_basis(m + 1, t).exponents
        pad = (0,) * (m - n)
        assert [image[c] for c in old] == [beta + pad for beta in monomial_basis(n + 1, t).exponents]


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
        walk = hilbert_mod._Pass(z)
        for t in range(reg + 2):
            cm = conditions_matrix(z, t)
            assert walk.rank(t) == rank(cm.matrix), (z, t)
            if cm.matrix.cols <= 20:
                assert walk.rank(t) == naive_hilbert(z, t), (z, t)


def test_pass_prefix_counts_are_the_truncations():
    # after degree t, the pivots of level >= k count H(t) of Z - k
    for z, reg in _pass_cases(5):
        walk = hilbert_mod._Pass(z)
        n = z.ambient_dim
        for k in range(1, max(z.multiplicities) + 1):
            w = truncate(z, k)
            for t in range(reg + 2):
                expected = 0 if isinstance(w, UnitIdeal) else _rank_of_int_rows(*_int_rows(w, n, t))
                assert walk.rank(t, k) == expected, (z, k, t)
                assert hilbert_function(z, t, drop=k) == hilbert_function(w, t) == expected
                assert ideal_dim(z, t, drop=k) == ideal_dim(w, t)


def test_a_second_chart_gives_the_same_table():
    # reversed coordinates put some points off X_0 = 1, so the pass walks in
    # another chart; the Hilbert function of every truncation is unchanged
    moved = 0
    for z, reg in _pass_cases(5):
        raw = [(tuple(reversed(p.coords)), m) for p, m in z.components]
        w = make_scheme(z.ambient_dim, raw)
        moved += any(p.coords[-1] == 0 for p in z.points)
        walks = hilbert_mod._Pass(z), hilbert_mod._Pass(w)
        for k in range(max(z.multiplicities)):
            for t in range(reg + 2):
                assert walks[0].rank(t, k) == walks[1].rank(t, k), (z, k, t)
    assert moved > 0


def test_source_values_build_and_eliminate_no_rows(monkeypatch):
    for z, reg in _pass_cases(10):
        hilbert_mod._rank_at_degree.cache_clear()
        hilbert_mod._source_pass.cache_clear()
        with monkeypatch.context() as mp:
            calls = _counting_eliminations(mp)
            builds = _counting_row_builds(mp)
            for k in range(max(z.multiplicities) + 1):
                for t in range(reg + 2):
                    hilbert_function(z, t, drop=k)
        assert (calls, builds) == ([], [])


def test_negative_drop_and_image_drop_follow_truncate():
    z = make_scheme(2, [((1, 2, -1), 2), ((0, 1, 3), 1)])
    for t in range(5):
        assert hilbert_function(z, t, drop=-1) == hilbert_function(truncate(z, -1), t)
        assert hilbert_function(z, t, 4, drop=1) == hilbert_function(truncate(z, 1), t, 4)
        assert hilbert_function(z, t, 4, drop=2) == 0


def test_an_interrupted_walk_leaves_the_pass_as_it_was(monkeypatch):
    z = gen_random(2, 4, [3, 2, 2, 1], config="generic", seed=3)
    expected = [hilbert_mod._Pass(z).rank(t, k) for k in range(3) for t in range(7)]
    for stop in (1, 5, 20):
        hilbert_mod._rank_at_degree.cache_clear()
        hilbert_mod._source_pass.cache_clear()
        hilbert_function(z, 1)
        calls, combine = [], hilbert_mod._combine

        def interrupted(row, prow, col):
            calls.append(col)
            if len(calls) == stop:
                raise KeyboardInterrupt
            return combine(row, prow, col)

        with monkeypatch.context() as mp:
            mp.setattr(hilbert_mod, "_combine", interrupted)
            with pytest.raises(KeyboardInterrupt):
                hilbert_function(z, 6)
        assert [hilbert_function(z, t, drop=k) for k in range(3) for t in range(7)] == expected


def test_pass_memo_stays_bounded():
    for z, reg in _pass_cases(20):
        for t in range(reg + 2):
            hilbert_function(z, t)
            hilbert_function(z, t, drop=1)
    info = hilbert_mod._source_pass.cache_info()
    assert info.maxsize == 2 and info.currsize <= 2
