import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import fatpoints.hilbert as hilbert_mod
import fatpoints.verify as verify_mod
from fatpoints.errors import (
    DegreeOutOfRange,
    NonpositiveMultiplicity,
    NotOnRationalNormalCurve,
    ResourceLimit,
    SchemeFormatError,
    TargetTooSmall,
    TooFewPoints,
)
from fatpoints.hilbert import hilbert_function, ideal_dim, regularity_index
from fatpoints.scheme import embed, gen_random, make_scheme, rnc_points
from fatpoints.verify import (
    CheckRecord,
    VerificationReport,
    check_cor46,
    check_lemma23,
    check_prop44,
    check_prop44_displayed,
    check_reg_invariance,
    check_restriction,
    check_restriction_range,
    check_rnc,
    check_stable_range,
    check_transfer,
    points_on_rnc,
    report_from_json,
    report_to_json,
    report_to_json_dict,
    rnc_reg_formula,
    run_checks,
    transfer_rhs,
)


def _single(n, m):
    return make_scheme(n, [(tuple([1] + [0] * n), m)])


def _simple_points(n, count):
    params = [(1, k) for k in range(count)]
    return make_scheme(n, [(p.coords, 1) for p in rnc_points(n, params)])


DOUBLE_LINE = make_scheme(1, [((1, 0), 2)])
TRIPLE_LINE = make_scheme(1, [((1, 0), 3)])


class TestRegInvariance:
    def test_double_point_to_p3(self):
        report = check_reg_invariance(DOUBLE_LINE, 3)
        assert report.passed
        assert report.records[0].lhs == report.records[0].rhs == 1

    def test_identity_embedding_trivial(self):
        report = check_reg_invariance(DOUBLE_LINE, 1)
        assert report.passed

    def test_random_scheme(self):
        z = gen_random(2, 3, [2, 2, 1], config="generic", seed=1)
        assert check_reg_invariance(z, 4).passed

    def test_chained_single_steps_match_one_shot(self):
        z = gen_random(2, 2, [2, 1], config="generic", seed=8)
        step = z
        for m in (3, 4, 5):
            assert check_reg_invariance(step, step.ambient_dim + 1).passed
            step = embed(step, m)
        assert regularity_index(step) == regularity_index(embed(z, 5))
        assert check_reg_invariance(z, 5).passed

    def test_target_below_ambient_rejected(self):
        with pytest.raises(TargetTooSmall):
            check_reg_invariance(_single(2, 1), 1)


class TestStableRange:
    def test_all_simple_points_reach_equality(self):
        z = _simple_points(2, 3)
        report = check_stable_range(z, 3)
        assert report.passed
        equal = [r for r in report.records if "equality" in r.note]
        assert equal and all(r.lhs == r.rhs for r in equal)

    def test_double_point_strictly_larger(self):
        report = check_stable_range(DOUBLE_LINE, 2)
        assert report.passed
        t1 = [r for r in report.records if r.t == 1 and "strict" in r.note]
        assert t1 and t1[0].lhs == 3 and t1[0].rhs == 2

    def test_single_simple_point(self):
        report = check_stable_range(_single(3, 1), 5)
        assert report.passed

    def test_requires_larger_target(self):
        with pytest.raises(TargetTooSmall):
            check_stable_range(DOUBLE_LINE, 1)


class TestTransfer:
    def test_rhs_at_degree_zero_is_one(self):
        z = gen_random(2, 2, [2, 2], config="generic", seed=5)
        assert transfer_rhs(z, 4, 0) == 1

    def test_rhs_triple_point_hand_value(self):
        assert transfer_rhs(TRIPLE_LINE, 2, 1) == 3
        assert hilbert_function(embed(TRIPLE_LINE, 2), 1) == 3

    def test_rhs_matches_direct_computation(self):
        z = make_scheme(1, [((1, 0), 2), ((0, 1), 1)])
        assert regularity_index(z) == 2
        for t in range(2):
            assert transfer_rhs(z, 3, t) == hilbert_function(embed(z, 3), t)

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            transfer_rhs(TRIPLE_LINE, 2, 2)  # reg = 2
        with pytest.raises(DegreeOutOfRange):
            transfer_rhs(TRIPLE_LINE, 2, -1)
        # over the integer-string limit, a degree is named by its bit length
        for t, name in ((10**5000, "16610-bit"), (-(10**5000), "negative 16610-bit")):
            message = rf"^transfer formula needs 0 <= t < reg = 2, got \({name} integer\)$"
            with pytest.raises(DegreeOutOfRange, match=message):
                transfer_rhs(TRIPLE_LINE, 2, t)

    def test_check_transfer_examples(self):
        assert check_transfer(TRIPLE_LINE, 2).passed
        report = check_transfer(_single(1, 1), 2)  # reg = 0: nothing to test
        assert report.passed and not report.records
        z = gen_random(2, 3, [2, 2, 1], config="rnc", seed=9)
        assert check_transfer(z, 4).passed


class TestCor46:
    def test_additive_identity_hand_value(self):
        report = check_cor46(TRIPLE_LINE, 2)
        assert report.passed
        additive = [r for r in report.records if "additive" in r.note and r.t == 1]
        # 3 = H(1) + H_trunc(0) = 2 + 1
        assert additive and additive[0].lhs == additive[0].rhs == 3
        from fatpoints.scheme import truncate

        assert hilbert_function(TRIPLE_LINE, 1) == 2
        assert hilbert_function(truncate(TRIPLE_LINE, 1), 0) == 1

    def test_additive_identity_only_for_single_step(self):
        report = check_cor46(TRIPLE_LINE, 3)
        assert report.passed
        assert not any("additive" in r.note for r in report.records)

    def test_monotone_comparison_at_degree_zero(self):
        report = check_cor46(DOUBLE_LINE, 3)
        assert report.passed
        boundary = [r for r in report.records if "boundary" in r.note]
        assert boundary and boundary[0].lhs == boundary[0].rhs == 1

    def test_all_simple_skips_strictness(self):
        report = check_cor46(_simple_points(2, 3), 4)
        assert report.passed
        assert "vacuous" in report.note
        assert not any("strict" in r.note for r in report.records)

    def test_monotone_chain_composition(self):
        z = gen_random(2, 3, [2, 1, 1], config="generic", seed=21)
        reg = regularity_index(z)
        chain = z
        for m in (3, 4, 5):
            one_shot = embed(z, m)
            chain = embed(chain, m)
            assert chain == one_shot
            for t in range(reg + 2):
                assert hilbert_function(one_shot, t) >= hilbert_function(z, t)

    def test_single_step_identity_agrees_with_transfer_formula(self):
        # where both apply, the m = n+1 additive identity and the general
        # transfer formula are two routes to the same number
        from fatpoints.scheme import truncate

        for seed in (3, 11, 27):
            z = gen_random(2, 3, [2, 2, 1], config="generic", seed=seed)
            n = z.ambient_dim
            for t in range(regularity_index(z)):
                additive = hilbert_function(z, t) + sum(
                    hilbert_function(truncate(z, t - i), i) for i in range(t)
                )
                assert additive == transfer_rhs(z, n + 1, t)


class TestProp44:
    def test_hand_values_triple_point(self):
        report = check_prop44(TRIPLE_LINE, 2)
        assert report.passed
        t1 = [r for r in report.records if r.t == 1]
        assert t1 and t1[0].lhs == 0 and t1[0].rhs == 0
        assert ideal_dim(embed(TRIPLE_LINE, 2), 1) == 0

    def test_degree_zero_dims_agree(self):
        z = gen_random(2, 2, [2, 1], config="generic", seed=2)
        report = check_prop44(z, 4)
        assert report.passed
        assert report.records[0].t == 0
        assert report.records[0].lhs == report.records[0].rhs == 0

    def test_random_scheme(self):
        z = gen_random(2, 3, [2, 2, 1], config="generic", seed=13)
        assert check_prop44(z, 4).passed

    def test_displayed_variant_fails_on_witness(self):
        # three simple points in P^1: truncating by one hits the unit ideal,
        # so the extra wrong coefficient produces a visibly larger sum
        witness = _simple_points(1, 3)
        assert check_prop44(witness, 3).passed
        displayed = check_prop44_displayed(witness, 3)
        assert not displayed.passed
        bad = [r for r in displayed.records if not r.passed]
        assert bad and bad[0].t == 1 and bad[0].lhs == 2 and bad[0].rhs == 3


class TestRestriction:
    def test_degree_zero_no_constants(self):
        report = check_restriction(DOUBLE_LINE, 2, 0)
        assert report.passed
        dims = [r for r in report.records if "dimension" in r.note]
        assert dims[0].lhs == dims[0].rhs == 0

    def test_double_point_conics(self):
        # conics through the embedded double point restrict to doubly
        # vanishing binary quadrics
        report = check_restriction(DOUBLE_LINE, 2, 2)
        assert report.passed
        membership = [r for r in report.records if "vanish" in r.note][0]
        assert membership.lhs == membership.rhs > 0

    def test_simple_points_all_degrees(self):
        z = _simple_points(2, 3)
        report = check_restriction_range(z, 4)
        assert report.passed
        assert {r.t for r in report.records} == set(range(regularity_index(z) + 2))

    def test_degree_validation(self, monkeypatch):
        with pytest.raises(DegreeOutOfRange):
            check_restriction(DOUBLE_LINE, 2, -1)
        with pytest.raises(TargetTooSmall):
            check_restriction(DOUBLE_LINE, 1, 0)
        # degree 3 needs 4 source columns but 10 embedded ones
        monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", 5)
        with pytest.raises(ResourceLimit):
            check_restriction(DOUBLE_LINE, 2, 3)


def test_verify_imports_no_private_names():
    tree = ast.parse(Path(verify_mod.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("fatpoints"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


_CONIC = make_scheme(2, [((1, 0, 0), 2), ((0, 0, 1), 1)])
_OFF_CONIC = make_scheme(2, [((1, 0, 0), 2), ((0, 1, 0), 1), ((0, 0, 1), 1)])

# every public check that compares the scheme with an image, with its scheme
# and the arguments after the target; the conic's points are on the curve,
# so check_rnc reaches its target too.  run_checks is given the selections
# that reach no image: lemma23, and rnc off the curve
_TARGETED_CHECKS = {
    name: (getattr(verify_mod, name), _CONIC, () if name != "check_restriction" else (0,))
    for name in verify_mod.__all__
    if name.startswith("check_")
    and "target_dim" in inspect.signature(getattr(verify_mod, name)).parameters
}
_TARGETED_CHECKS["run_checks-lemma23"] = (run_checks, _CONIC, (("lemma23",),))
_TARGETED_CHECKS["run_checks-rnc"] = (run_checks, _OFF_CONIC, (("rnc",),))


@pytest.mark.parametrize("target_dim", [None, 3.0, True])
@pytest.mark.parametrize("name", sorted(_TARGETED_CHECKS))
def test_a_target_that_is_not_an_int_is_refused_before_any_pass(name, target_dim):
    check, z, args = _TARGETED_CHECKS[name]
    misses = hilbert_mod._pass.cache_info().misses
    with pytest.raises(TypeError, match="^target dimension must be an int, got "):
        check(z, target_dim, *args)
    assert hilbert_mod._pass.cache_info().misses == misses


# every public function that takes a degree, called with it; the CLI passes
# only ints
_DEGREE_TAKERS = {
    "hilbert_function": lambda t: hilbert_function(TRIPLE_LINE, t),
    "ideal_dim": lambda t: ideal_dim(TRIPLE_LINE, t),
    "transfer_rhs": lambda t: transfer_rhs(TRIPLE_LINE, 2, t),
    "check_restriction": lambda t: check_restriction(TRIPLE_LINE, 2, t),
}


@pytest.mark.parametrize(
    "name, t",
    [(name, t) for name in sorted(_DEGREE_TAKERS) for t in (True, 1.5, None, "2")],
)
def test_a_degree_that_is_not_an_int_is_refused(name, t):
    message = f"^degree must be an int, got {type(t).__name__}$"
    with pytest.raises(TypeError, match=message):
        _DEGREE_TAKERS[name](t)


# a negative degree is refused with the message of the Hilbert layer's cap check
@pytest.mark.parametrize("check", [check_restriction])
def test_a_negative_restriction_degree_is_refused(check):
    with pytest.raises(DegreeOutOfRange, match="^degree must be nonnegative, got -1$"):
        check(TRIPLE_LINE, 2, -1)


class TestLemma23:
    def test_two_simple_points(self):
        z = _simple_points(2, 2)
        report = check_lemma23(z)
        assert report.passed
        assert report.records[0].lhs == 1 and report.records[0].rhs == 1

    def test_collinear_double_triple(self):
        z = make_scheme(2, [((1, 0, 0), 3), ((0, 1, 0), 2)])
        report = check_lemma23(z)
        assert report.passed
        assert report.records[0].lhs >= 4

    def test_single_point_not_applicable(self):
        report = check_lemma23(_single(2, 2))
        assert report.passed
        assert not report.records
        assert "not applicable" in report.note


class TestRncFormula:
    def test_worked_values(self):
        assert rnc_reg_formula([2, 2, 2, 2], 2) == 4
        assert rnc_reg_formula([1, 1], 2) == 1
        assert rnc_reg_formula([2, 1, 1, 1, 1], 3) == 2

    def test_order_does_not_matter(self):
        assert rnc_reg_formula([1, 3, 2], 2) == rnc_reg_formula([3, 2, 1], 2)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            rnc_reg_formula([3], 2)

    def test_rejects_bad_dimension_and_multiplicities(self):
        for n in (0, -1):
            with pytest.raises(SchemeFormatError):
                rnc_reg_formula([2, 1], n)
        for n in (2.5, True, "2"):
            message = f"^ambient dimension must be an int, got {type(n).__name__}$"
            with pytest.raises(TypeError, match=message):
                rnc_reg_formula([2, 2], n)
        for mults in ([2, -1], [0, 3, 1], [2, 2.5], [2, True], [2, "2"]):
            message = r"^multiplicity \d is not a positive integer$"
            with pytest.raises(NonpositiveMultiplicity, match=message):
                rnc_reg_formula(mults, 2)


class TestCheckRnc:
    def test_four_double_points_on_conic(self):
        z = gen_random(2, 4, [2, 2, 2, 2], config="rnc", seed=4)
        report = check_rnc(z, 4)
        assert report.passed
        assert all(r.rhs == 4 for r in report.records)

    def test_line_configuration(self):
        z = make_scheme(1, [((1, 0), 3), ((0, 1), 1)])
        report = check_rnc(z, 2)
        assert report.passed
        assert report.records[0].lhs == 3

    def test_two_simple_points_p3(self):
        z = _simple_points(3, 2)
        report = check_rnc(z, 4)
        assert report.passed
        assert report.records[0].lhs == 1

    def test_rejects_points_off_curve(self):
        z = make_scheme(2, [((1, 0, 1), 1), ((0, 1, 0), 1)])
        assert not points_on_rnc(z)
        with pytest.raises(NotOnRationalNormalCurve):
            check_rnc(z, 3)

    def test_rejects_single_point(self):
        with pytest.raises(TooFewPoints):
            check_rnc(_single(2, 2), 3)


class TestRunChecks:
    def test_all_checks_pass_and_report_names(self):
        z = gen_random(2, 3, [2, 1, 1], config="rnc", seed=6)
        reports = run_checks(z, 4)
        assert all(r.passed for r in reports)
        assert [r.check for r in reports] == [
            "reg_invariance",
            "stable_range",
            "transfer",
            "cor46",
            "prop44",
            "restriction",
            "lemma23",
            "rnc",
        ]

    def test_diagnostic_report_appended(self):
        z = _simple_points(1, 3)
        reports = run_checks(z, 3, prop44_diagnostic=True)
        names = [r.check for r in reports]
        assert "prop44_displayed_variant" in names
        displayed = next(r for r in reports if r.check == "prop44_displayed_variant")
        assert not displayed.passed  # the expected machine evidence
        others = [r for r in reports if r.check != "prop44_displayed_variant"]
        assert all(r.passed for r in others)

    def test_selection_runs_each_check_once_in_fixed_order(self):
        z = gen_random(2, 3, [2, 1, 1], config="rnc", seed=6)
        reports = run_checks(z, 4, ["rnc", "reg", "reg"])
        assert [r.check for r in reports] == ["reg_invariance", "rnc"]
        reports = run_checks(z, 4, ["lemma23", "reg"], prop44_diagnostic=True)
        assert [r.check for r in reports] == ["reg_invariance", "lemma23"]

    def test_unknown_check_rejected(self):
        with pytest.raises(SchemeFormatError):
            run_checks(DOUBLE_LINE, 2, ["nope"])

    def test_explicit_rnc_raises_off_curve(self):
        z = make_scheme(2, [((1, 0, 1), 1), ((0, 1, 0), 1)])
        with pytest.raises(NotOnRationalNormalCurve):
            run_checks(z, 3, ["rnc"])  # named: raises, as --checks rnc does
        reports = run_checks(z, 3, ("all",))  # under "all": skipped with a note
        rnc = next(r for r in reports if r.check == "rnc")
        assert rnc.passed and "not applicable" in rnc.note

    def test_str_and_empty_selections_are_refused(self):
        message = "^names must be a sequence of check names, got str$"
        for names in ("reg", "all", ""):
            with pytest.raises(TypeError, match=message):
                run_checks(DOUBLE_LINE, 2, names)
        for names in ([], (), set()):
            with pytest.raises(SchemeFormatError, match="^check list is empty$"):
                run_checks(DOUBLE_LINE, 2, names)


def test_report_json_round_trip():
    z = gen_random(1, 2, [2, 1], config="generic", seed=14)
    for report in run_checks(z, 3):
        assert report_from_json(report_to_json(report)) == report
    with pytest.raises(SchemeFormatError, match="^malformed report document: "):
        report_from_json('{"check": "x"}')


def _encoded(report):
    return verify_mod._ENCODER.encode(report_to_json_dict(report))


def test_the_report_writer_matches_the_encoder_on_odd_values():
    records = (
        CheckRecord(None, -3, 10**300, False, ""),
        CheckRecord(0, -(10**250), 0, True, "caf\u00e9 \u2260 \U0001d400 \"quoted\"\n"),
    )
    reports = [
        VerificationReport("transfer", "f" * 64, None, (), True),
        VerificationReport("reg_invariance", "abc", 3, records, False, "n\u00f6te"),
        VerificationReport("prop44_displayed_variant", "abc", -4, records[:1], False, "x"),
        # bool, float and str values where ints and strings belong
        report_from_json(
            '{"check": 7, "scheme_fingerprint": 1.5, "target_dim": true, "pass": "no", '
            '"note": 0, "records": [{"t": false, "lhs": 2.5, "rhs": "7", "pass": 1, '
            '"note": 1e300}, {"t": "1", "lhs": true, "rhs": null, "pass": null}]}'
        ),
    ]
    for report in reports:
        assert report_to_json(report) == _encoded(report), report
    half = CheckRecord(1, Fraction(1, 2), 0, True)
    with_fraction = VerificationReport("rnc", "abc", 2, (half,), True)
    with pytest.raises(TypeError) as expected:
        _encoded(with_fraction)
    with pytest.raises(TypeError) as got:
        report_to_json(with_fraction)
    assert str(got.value) == str(expected.value)


def test_points_on_rnc_detection():
    assert points_on_rnc(_simple_points(3, 4))
    assert points_on_rnc(make_scheme(1, [((1, 5), 1), ((1, -2), 2)]))
    assert not points_on_rnc(make_scheme(3, [((1, 0, 0, 1), 1), ((0, 1, 0, 0), 1)]))
