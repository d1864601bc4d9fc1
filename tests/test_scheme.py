import dataclasses
import json
import tracemalloc
from fractions import Fraction

import pytest

from fatpoints.errors import (
    DimensionMismatch,
    DuplicateParameter,
    DuplicatePoint,
    NonpositiveMultiplicity,
    SchemeFormatError,
    TargetTooSmall,
    ZeroParameter,
    ZeroPoint,
)
from fatpoints.hilbert import hilbert_function
from fatpoints.scheme import (
    FatPointScheme,
    ProjectivePoint,
    UnitIdeal,
    embed,
    gen_random,
    make_scheme,
    multiplicity,
    rnc_points,
    scheme_fingerprint,
    scheme_from_json,
    scheme_to_json,
    truncate,
)

from oracles import naive_rank


def test_point_normalization_scales_to_leading_one():
    assert ProjectivePoint((2, 0)).coords == (1, 0)
    assert ProjectivePoint((0, 3, 9)).coords == (0, 1, 3)
    assert ProjectivePoint((0, 3, 9)).ambient_dim == 2


def test_point_normalization_idempotent_and_scale_invariant():
    p = ProjectivePoint((Fraction(2, 3), 4, -1))
    for scale in (Fraction(5), Fraction(-1, 7), 3):
        assert ProjectivePoint(tuple(scale * c for c in p.coords)) == p
    assert ProjectivePoint(p.coords) == p


def test_zero_point_rejected():
    with pytest.raises(ZeroPoint):
        ProjectivePoint((0, 0, 0))


def test_make_scheme_normalizes_and_keeps_order():
    z = make_scheme(1, [((2, 0), 2)])
    assert z.components[0][0].coords == (1, 0)
    assert z.multiplicities == (2,)


def test_make_scheme_detects_projective_duplicates():
    with pytest.raises(DuplicatePoint):
        make_scheme(2, [((1, 0, 0), 1), ((2, 0, 0), 1)])


def test_make_scheme_valid_two_points():
    z = make_scheme(2, [((0, 1, 3), 2), ((1, 1, 1), 1)])
    assert z.num_points == 2


def test_make_scheme_input_errors():
    with pytest.raises(NonpositiveMultiplicity):
        make_scheme(1, [((1, 0), 0)])
    with pytest.raises(DimensionMismatch):
        make_scheme(2, [((1, 0), 1)])
    with pytest.raises(ValueError):
        make_scheme(1, [])
    for ambient_dim in (2.0, True):
        with pytest.raises(SchemeFormatError, match="^ambient_dim must be an integer$"):
            make_scheme(ambient_dim, [((1, 0, 0), 1)])


def test_bad_multiplicities_are_named_by_position_and_type():
    # the values would print as a 300 KB message, or not at all: a
    # 5,000-digit integer is over the interpreter's integer-string limit
    for bad, kind in (([1] * 100_000, "list"), (-(10**5000), "int"), (True, "bool")):
        with pytest.raises(NonpositiveMultiplicity) as got:
            make_scheme(1, [((1, 0), 1), ((0, 1), bad)])
        assert str(got.value) == (
            f"points[1] has a multiplicity of type {kind} that is not a positive integer"
        )


def test_multiplicity_values():
    assert multiplicity(make_scheme(2, [((1, 0, 0), 2)])) == 3
    assert multiplicity(make_scheme(1, [((1, 0), 1), ((0, 1), 1)])) == 2
    z = make_scheme(3, [((1, 0, 0, 0), 2), ((0, 1, 0, 0), 1)])
    assert multiplicity(z) == 4 + 1


def test_embed_pads_with_zeros():
    z = make_scheme(1, [((1, Fraction(1, 2)), 2)])
    w = embed(z, 3)
    assert w.ambient_dim == 3
    assert w.components[0][0].coords == (1, Fraction(1, 2), 0, 0)
    assert w.multiplicities == z.multiplicities


def test_embed_identity_and_composition():
    z = make_scheme(2, [((1, 2, 3), 2), ((0, 1, -1), 1)])
    assert embed(z, 2) is z
    assert embed(embed(z, 3), 4) == embed(z, 4)


def test_embed_shares_padding_zeros():
    # coordinates are immutable Fractions, so padding a point reuses them
    # instead of allocating one new zero per coordinate
    z = make_scheme(2, [((1, 0, 0), 2), ((0, 1, 1), 1)])
    tracemalloc.start()
    try:
        w = embed(z, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.ambient_dim == 200_000
    assert peak < 12 * 2**20


def test_padded_points_equal_constructed_points():
    z = make_scheme(2, [((3, 0, Fraction(1, 2)), 2), ((0, Fraction(2, 3), 1), 1)])
    w = embed(z, 5)
    for padded, source in zip(w.points, z.points):
        built = ProjectivePoint(source.coords + (0, 0, 0))
        assert padded == built and hash(padded) == hash(built)
        # embed builds each point with the constructor; its cached values match the source's
        assert padded._integral == built._integral == source._integral
    assert w == scheme_from_json(scheme_to_json(w))


def test_cached_point_values_stay_out_of_json_fingerprint_and_equality():
    raw = [((2, 0, Fraction(2, 3)), 2), ((0, 1, -4), 1)]
    z, fresh = make_scheme(2, raw), make_scheme(2, raw)
    text, fingerprint, shown = scheme_to_json(z), scheme_fingerprint(z), repr(z)
    for p in z.points:
        hash(p)
        p._integral
    embed(z, 4)
    hilbert_function(z, 3)
    shown_hash = hash(z)
    assert "_integral" in vars(z.points[0]) and "_hash" in vars(z.points[0])
    assert vars(z)["_fingerprint"] == fingerprint and vars(z)["_hash"] == shown_hash
    assert "_integral" not in vars(fresh.points[0])
    assert "_fingerprint" not in vars(fresh) and "_hash" not in vars(fresh)
    assert scheme_to_json(z) == text
    assert scheme_fingerprint(z) == fingerprint == scheme_fingerprint(fresh)
    assert repr(z) == shown
    assert z == fresh and hash(z) == hash(fresh) == hash((z.ambient_dim, z.components))
    assert [f.name for f in dataclasses.fields(ProjectivePoint)] == ["coords"]
    assert [f.name for f in dataclasses.fields(FatPointScheme)] == ["ambient_dim", "components"]
    assert dataclasses.asdict(z) == dataclasses.asdict(fresh)


def test_embed_target_too_small():
    z = make_scheme(2, [((1, 1, 1), 1)])
    with pytest.raises(TargetTooSmall):
        embed(z, 1)


def test_embed_preserves_structure():
    z = make_scheme(2, [((1, 0, 0), 3), ((1, 2, 3), 1), ((0, 0, 1), 2)])
    w = embed(z, 5)
    assert w.num_points == z.num_points
    assert len(set(w.points)) == w.num_points
    assert w.multiplicities == z.multiplicities


def test_embedded_multiplicity_grows_unless_all_simple():
    from fatpoints.exactlinalg import binomial

    fat = make_scheme(2, [((1, 0, 0), 2), ((0, 1, 0), 1)])
    assert multiplicity(embed(fat, 4)) == sum(binomial(m + 3, 4) for m in fat.multiplicities)
    assert multiplicity(embed(fat, 4)) > multiplicity(fat)
    simple = make_scheme(2, [((1, 0, 0), 1), ((0, 1, 0), 1)])
    assert multiplicity(embed(simple, 4)) == multiplicity(simple)


def test_truncate_drops_exhausted_components():
    z = make_scheme(1, [((1, 0), 3), ((0, 1), 1)])
    w = truncate(z, 1)
    assert isinstance(w, FatPointScheme)
    assert w.multiplicities == (2,)
    assert w.num_points == 1


def test_truncate_to_unit_ideal():
    z = make_scheme(1, [((1, 0), 1), ((0, 1), 1)])
    assert truncate(z, 1) == UnitIdeal(1)
    assert truncate(UnitIdeal(1), 2) == UnitIdeal(1)


def test_unit_ideal_has_multiplicity_zero():
    # every Hilbert value of the unit ideal is 0, its multiplicity too; the
    # target rule still holds
    z = make_scheme(2, [((1, 0, 0), 3), ((0, 1, 1), 2)])
    for k in (3, 4):
        assert multiplicity(truncate(z, k)) == 0
        assert multiplicity(truncate(z, k), 5) == 0
    assert multiplicity(truncate(z, 2)) == 1  # one simple point left
    with pytest.raises(TargetTooSmall):
        multiplicity(truncate(z, 3), 1)
    with pytest.raises(TypeError):
        multiplicity(UnitIdeal(2), 3.0)


def test_truncate_identity_and_negative_shift():
    z = make_scheme(1, [((1, 0), 2), ((0, 1), 1)])
    assert truncate(z, 0) == z
    assert truncate(z, -2).multiplicities == (4, 3)


def test_truncate_composes_for_nonnegative_shifts():
    z = make_scheme(2, [((1, 0, 0), 3), ((0, 1, 0), 2), ((0, 0, 1), 1)])
    for k in range(3):
        for j in range(3):
            assert truncate(truncate(z, k), j) == truncate(z, k + j)


def test_rnc_points_values():
    assert rnc_points(2, [(1, 0)])[0].coords == (1, 0, 0)
    assert rnc_points(2, [(1, 1)])[0].coords == (1, 1, 1)
    assert rnc_points(3, [(1, 2)])[0].coords == (1, 2, 4, 8)


def test_rnc_points_parameter_validation():
    with pytest.raises(ZeroParameter):
        rnc_points(2, [(0, 0)])
    with pytest.raises(DuplicateParameter):
        rnc_points(2, [(1, 2), (2, 4)])
    with pytest.raises(SchemeFormatError, match="^ambient dimension must be at least 1$"):
        rnc_points(0, [(1, 0)])
    # True once gave points of P^1, and 2.0 failed deep in the power loop
    for n in (True, 2.0):
        message = f"^ambient dimension must be an int, got {type(n).__name__}$"
        with pytest.raises(TypeError, match=message):
            rnc_points(n, [(1, 2), (3, 4)])


def test_rnc_points_pairwise_distinct():
    pts = rnc_points(3, [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)])
    assert len(set(pts)) == 5


def test_gen_random_deterministic():
    a = gen_random(2, 3, [2, 1, 1], config="generic", seed=42)
    b = gen_random(2, 3, [2, 1, 1], config="generic", seed=42)
    assert a == b
    c = gen_random(2, 3, [2, 1, 1], config="generic", seed=43)
    assert a != c


def test_gen_random_rnc_points_lie_on_conic():
    z = gen_random(2, 4, [1, 1, 1, 1], config="rnc", seed=3)
    for p in z.points:
        x0, x1, x2 = p.coords
        assert x0 * x2 == x1 * x1


def test_gen_random_collinear_coordinate_rank():
    z = gen_random(2, 4, [1, 1, 1, 1], config="collinear", seed=3)
    assert naive_rank([p.coords for p in z.points]) <= 2


def test_gen_random_validates_arguments():
    with pytest.raises(ValueError):
        gen_random(2, 2, [1], config="generic", seed=0)
    with pytest.raises(ValueError):
        gen_random(2, 1, [1], config="weird", seed=0)
    # the box [-5, 5]^2 holds fewer than 120 points of the line
    with pytest.raises(DuplicatePoint, match="^could not draw 120 distinct points"):
        gen_random(1, 120, [1] * 120, "collinear", 3)
    # a dimension or a count that is not an int, a bool included, is refused
    # before the range checks; a count of 2.0 was once accepted
    refused = [
        (2.0, 2, "ambient dimension", "float"),
        (True, 2, "ambient dimension", "bool"),
        (2, 2.0, "number of points", "float"),
        (2, True, "number of points", "bool"),
    ]
    for n, s, what, kind in refused:
        with pytest.raises(TypeError, match=f"^{what} must be an int, got {kind}$"):
            gen_random(n, s, [1] * int(s), config="generic", seed=0)


def test_gen_random_without_points_is_refused():
    for config in ("generic", "collinear", "rnc"):
        with pytest.raises(SchemeFormatError, match="a scheme needs at least one component"):
            gen_random(2, 0, [], config=config, seed=0)


def test_json_round_trip_exact():
    z = make_scheme(2, [((1, 0, Fraction(2, 3)), 2), ((0, 1, -4), 1)])
    assert scheme_from_json(scheme_to_json(z)) == z


def test_json_format_shape():
    z = make_scheme(1, [((2, 1), 2)])
    doc = json.loads(scheme_to_json(z))
    assert doc["ambient_dim"] == 1
    assert doc["points"] == [{"coords": ["1", "1/2"], "multiplicity": 2}]


def test_json_parser_rejects_floats_and_bad_fractions():
    with pytest.raises(SchemeFormatError):
        scheme_from_json(
            '{"ambient_dim": 1, "points": [{"coords": [0.5, "1"], "multiplicity": 1}]}'
        )
    with pytest.raises(SchemeFormatError):
        scheme_from_json(
            '{"ambient_dim": 1, "points": [{"coords": ["0.5", "1"], "multiplicity": 1}]}'
        )
    with pytest.raises(SchemeFormatError):
        scheme_from_json(
            '{"ambient_dim": 1, "points": [{"coords": ["1/0", "1"], "multiplicity": 1}]}'
        )
    with pytest.raises(SchemeFormatError):
        scheme_from_json("not json")
    with pytest.raises(SchemeFormatError, match=r"^points\[0\] coords must be a list"):
        scheme_from_json('{"ambient_dim": 1, "points": [{"coords": "1", "multiplicity": 1}]}')


def test_json_parser_propagates_scheme_errors():
    with pytest.raises(DuplicatePoint):
        scheme_from_json(
            '{"ambient_dim": 1, "points": ['
            '{"coords": ["1", "0"], "multiplicity": 1},'
            '{"coords": ["2", "0"], "multiplicity": 1}]}'
        )


def test_fingerprint_stable_and_sensitive():
    z = make_scheme(1, [((1, 0), 2)])
    assert scheme_fingerprint(z) == scheme_fingerprint(z)
    other = make_scheme(1, [((1, 0), 3)])
    assert scheme_fingerprint(z) != scheme_fingerprint(other)
