"""Acceptance suite.

Every criterion is an exact integer identity or inequality, checked with
zero tolerance over a deterministic randomized corpus: three configuration
families (generic, collinear, rnc) with 200 schemes each, ambient
dimension up to 3, up to 5 points of multiplicity up to 3, coordinates
drawn from [-5, 5], and embedding targets up to n+3.  Sum-of-multiplicity
budgets per family keep the exact eliminations fast; the stated maxima
(n = 3, s = 5, some m_i = 3, m = n + 3) are all asserted to occur.

One summary line per criterion is printed as it passes; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines even
on quiet terminals).
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

import fatpoints.hilbert as hilbert_mod
from fatpoints.exactlinalg import _insert
from fatpoints.hilbert import hilbert_function, hilbert_table, regularity_index
from fatpoints.scheme import FatPointScheme, gen_random, make_scheme, multiplicity
from fatpoints.verify import (
    check_cor46,
    check_lemma23,
    check_prop44,
    check_prop44_displayed,
    check_reg_invariance,
    check_restriction_range,
    check_rnc,
    check_stable_range,
    check_transfer,
    rnc_reg_formula,
)

from oracles import naive_rank, single_point_hilbert

FAMILIES = ("generic", "collinear", "rnc")
SCHEMES_PER_FAMILY = 200


@dataclass(frozen=True)
class Entry:
    family: str
    scheme: FatPointScheme
    target_dim: int


def _mult_budget(family: str, n: int) -> int:
    # keeps the regularity index, and with it the largest exact elimination,
    # small enough that the whole corpus runs in minutes
    if n == 1 or family == "collinear":
        return 7
    return 9 if n == 2 else 10


def _sample_entry(family: str, seed: int) -> Entry:
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3))
    s = rng.randint(1 if family == "generic" else 2, 5)
    budget = _mult_budget(family, n)
    while True:
        mults = [rng.randint(1, 3) for _ in range(s)]
        if sum(mults) <= budget:
            break
    target = rng.randint(n + 1, n + 3)
    scheme = gen_random(n, s, mults, config=family, seed=seed)
    return Entry(family, scheme, target)


def _displayed_variant_witness() -> Entry:
    # three simple points in P^1 with m = n + 2: truncating by one degree
    # hits the unit ideal, which separates the two candidate coefficients
    scheme = make_scheme(1, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    return Entry("generic", scheme, 3)


def build_corpus() -> list[Entry]:
    entries = []
    for fi, family in enumerate(FAMILIES):
        for k in range(SCHEMES_PER_FAMILY):
            entries.append(_sample_entry(family, seed=10_000 * (fi + 1) + k))
    entries.append(_displayed_variant_witness())
    return entries


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def test_criterion_01_single_fat_point(announce):
    started = time.monotonic()
    rng = random.Random(77)
    for n in (1, 2, 3):
        for m1 in (1, 2, 3, 4):
            coordinate_point = tuple([1] + [0] * n)
            generic_point = tuple(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)
            ) + (1,)
            for coords in (coordinate_point, generic_point):
                z = make_scheme(n, [(coords, m1)])
                assert regularity_index(z) == m1 - 1
                for t in range(m1 + 2):
                    assert hilbert_function(z, t) == single_point_hilbert(n, m1, t)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    announce(f"criterion 1 (single fat point reg and H): PASS in {elapsed:.2f}s")


def test_criterion_02_reg_invariance_corpus(corpus, announce):
    started = time.monotonic()
    per_family = {f: 0 for f in FAMILIES}
    for entry in corpus:
        report = check_reg_invariance(entry.scheme, entry.target_dim)
        assert report.passed, (entry, report)
        per_family[entry.family] += 1
    assert all(count >= SCHEMES_PER_FAMILY for count in per_family.values())
    # the stated corpus maxima all occur
    assert {e.scheme.ambient_dim for e in corpus} == {1, 2, 3}
    assert any(e.scheme.num_points == 5 for e in corpus)
    assert any(max(e.scheme.multiplicities) == 3 for e in corpus)
    assert any(e.target_dim == e.scheme.ambient_dim + 3 for e in corpus)
    elapsed = time.monotonic() - started
    assert elapsed < 900
    announce(
        f"criterion 2 (reg invariance on {len(corpus)} schemes): PASS in {elapsed:.1f}s"
    )


def test_criterion_03_transfer_identity(corpus, announce):
    started = time.monotonic()
    for entry in corpus:
        report = check_transfer(entry.scheme, entry.target_dim)
        assert report.passed, (entry, report)
    announce(
        f"criterion 3 (transfer formula): PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_04_cor46(corpus, announce):
    started = time.monotonic()
    for entry in corpus:
        single_step = check_cor46(entry.scheme, entry.scheme.ambient_dim + 1)
        assert single_step.passed, (entry, single_step)
        if entry.target_dim != entry.scheme.ambient_dim + 1:
            general = check_cor46(entry.scheme, entry.target_dim)
            assert general.passed, (entry, general)
    announce(
        "criterion 4 (additive identity, monotonicity, strictness): "
        f"PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_05_stable_range(corpus, announce):
    started = time.monotonic()
    for entry in corpus:
        report = check_stable_range(entry.scheme, entry.target_dim)
        assert report.passed, (entry, report)
    announce(
        f"criterion 5 (stable-range multiplicity formulas): PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_06_prop44_and_displayed_variant(corpus, announce):
    started = time.monotonic()
    displayed_failures = 0
    for entry in corpus:
        report = check_prop44(entry.scheme, entry.target_dim)
        assert report.passed, (entry, report)
        if entry.target_dim >= entry.scheme.ambient_dim + 2:
            displayed = check_prop44_displayed(entry.scheme, entry.target_dim)
            if not displayed.passed:
                displayed_failures += 1
    assert displayed_failures >= 1  # machine evidence for the coefficient choice
    announce(
        f"criterion 6 (dimension identity; displayed variant fails on "
        f"{displayed_failures} instances): PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_07_restriction(corpus, announce):
    started = time.monotonic()
    # each dimension record compares the image pass's count of standard
    # monomials in the old variables with the source pass's H(t); the memo
    # is cleared so that every pass read here is walked here
    hilbert_mod._pass.cache_clear()
    cases = 0
    for entry in corpus:
        report = check_restriction_range(entry.scheme, entry.target_dim)
        assert report.passed, (entry, report)
        cases += len(report.records) // 2
    announce(
        f"criterion 7 (restriction membership and dimension; {cases} of {cases} "
        f"cases certified): PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_08_lemma23(corpus, announce):
    started = time.monotonic()
    checked = 0
    for entry in corpus:
        if entry.scheme.num_points < 2:
            continue
        report = check_lemma23(entry.scheme)
        assert report.passed and report.records, (entry, report)
        checked += 1
    assert checked > 0
    announce(
        f"criterion 8 (reg >= m1+m2-1 on {checked} schemes): PASS in {time.monotonic() - started:.1f}s"
    )


def _rnc_configurations() -> list[Entry]:
    entries = [Entry("rnc", gen_random(2, 4, [2, 2, 2, 2], "rnc", seed=9001), 4)]
    seed = 40_000
    while len(entries) < 56:
        seed += 1
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3))
        s = rng.randint(2, 6)
        budget = 7 if n == 1 else 12
        mults = [rng.randint(1, 3) for _ in range(s)]
        if sum(mults) > budget:
            continue
        entries.append(Entry("rnc", gen_random(n, s, mults, "rnc", seed=seed), n + 1))
    return entries


def test_criterion_09_rational_normal_curve(announce):
    started = time.monotonic()
    configs = _rnc_configurations()
    assert len(configs) >= 50
    assert {e.scheme.ambient_dim for e in configs} == {1, 2, 3}
    assert any(e.scheme.num_points == 6 for e in configs)
    for entry in configs:
        expected = rnc_reg_formula(entry.scheme.multiplicities, entry.scheme.ambient_dim)
        assert regularity_index(entry.scheme) == expected, entry
        report = check_rnc(entry.scheme, entry.target_dim)
        assert report.passed, (entry, report)
    # the worked instance: four double points on the conic
    worked = configs[0]
    assert worked.scheme.multiplicities == (2, 2, 2, 2)
    assert regularity_index(worked.scheme) == 4
    announce(
        f"criterion 9 (curve formula on {len(configs)} configurations): "
        f"PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_10_hilbert_table_shape(corpus, announce):
    started = time.monotonic()
    for entry in corpus:
        z = entry.scheme
        table = hilbert_table(z)  # self-checks strict increase and stabilization
        e = multiplicity(z)
        assert table.values[0] == 1
        assert all(a < b for a, b in zip(table.values, table.values[1:]))
        assert table.values[-1] == e
        assert hilbert_function(z, table.reg + 1) == e
    announce(
        f"criterion 10 (Hilbert table shape): PASS in {time.monotonic() - started:.1f}s"
    )


def test_criterion_11_elimination_core(announce):
    started = time.monotonic()
    rng = random.Random(20_25)
    for _ in range(500):
        rows = rng.randint(0, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        pivots = {}
        stored = [_insert(pivots, {j: v for j, v in enumerate(row) if v}) for row in m]
        keys = [key for key in stored if key is not None]
        assert len(keys) == len(pivots) == naive_rank(m)
        assert all(min(pivots[key]) == key for key in keys)
    announce(
        f"criterion 11 (elimination core vs naive oracle, 500 matrices): "
        f"PASS in {time.monotonic() - started:.1f}s"
    )
