"""Hilbert values checked against closed forms that need no elimination.

Seeded: the same schemes are drawn in every run.  Time budget: the
module takes about 2.5 s on a 2-CPU machine under Python 3.11 (1,104
Hilbert values and 736 restriction pairs of points in general position);
keep it under 10 s, so that tier-1 stays well under 40 s.
"""

import random

from fatpoints.hilbert import hilbert_function, hilbert_pass, regularity_index
from fatpoints.scheme import gen_random, make_scheme

from oracles import general_position_hilbert, line_points_hilbert, naive_rank


def _unimodular(rng, size):
    """A random integer matrix of determinant +-1: a row-permuted product
    of unit lower and unit upper triangular matrices with small entries."""

    def triangular(below):
        return [
            [1 if i == j else rng.randint(-2, 2) if (j < i) == below else 0 for j in range(size)]
            for i in range(size)
        ]

    lower, upper = triangular(True), triangular(False)
    product = [
        [sum(lower[i][k] * upper[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]
    rng.shuffle(product)
    return product


def _general_position_schemes():
    """(scheme, mults) for s <= n + 1 points of P^n, n <= 3, m_i <= 4: the
    first s coordinate points moved by a random unimodular matrix, so the
    rows are dense and the elimination is really exercised."""
    rng = random.Random(2023)
    for n in (1, 2, 3):
        for s in range(1, n + 2):
            for _ in range(6):
                mults = [rng.randint(1, 4) for _ in range(s)]
                matrix = _unimodular(rng, n + 1)
                points = [tuple(row[i] for row in matrix) for i in range(s)]
                # linearly general position, by the exact rank of the coordinates
                assert naive_rank(points) == s
                yield make_scheme(n, list(zip(points, mults))), mults


def test_points_in_general_position_and_their_images():
    checked = 0
    for z, mults in _general_position_schemes():
        n = z.ambient_dim
        for t in range(2 * max(mults) + 1):
            # the image of such points is such points of P^m
            closed = {m: general_position_hilbert(m, mults, t) for m in range(n, n + 3)}
            for m in range(n, n + 3):
                assert hilbert_function(z, t, m) == closed[m], (z, t, m)
                checked += 1
            for m in range(n + 1, n + 3):
                got = (hilbert_function(z, t, m), hilbert_pass(z, m).old_rank(t))
                assert got == (closed[m], closed[n]), (z, t, m)
    assert checked > 1000


def test_distinct_points_of_the_line():
    rng = random.Random(1)
    for seed in range(20):
        mults = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        z = gen_random(1, len(mults), mults, config="generic", seed=seed)
        for t in range(sum(mults) + 2):
            assert hilbert_function(z, t) == line_points_hilbert(mults, t), (z, t)
        assert regularity_index(z) == sum(mults) - 1
