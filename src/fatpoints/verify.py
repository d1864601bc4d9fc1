"""Computational checks of the identities relating a fat point scheme to
its image under the coordinate-padding embedding.

Every check recomputes both sides of an identity independently.  The
source side, for the scheme and every truncation, is read from the
scheme's Buchberger-Moller pass; the embedded side from the image's own
pass over the functionals of the padded points, never from the identity
being tested.  The checks never pad a point: they ask the Hilbert layer
for the image's pass with ``hilbert_pass(scheme, target_dim)``, which walks
the source points in the image's variables.  Every value, the regularity
index included, is stored on its pass at its first read, where a value
over the column cap is refused, so the checks of one ``run_checks`` call
compute each value once, at the first check that needs it.  Reports carry
the integer values of both sides, so a failing run is a self-contained
counterexample certificate.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import (
    DegreeOutOfRange,
    NonpositiveMultiplicity,
    NotOnRationalNormalCurve,
    SchemeFormatError,
    TargetTooSmall,
    TooFewPoints,
    brief,
    require_int,
)
from .exactlinalg import binomial
from .hilbert import hilbert_pass
from .scheme import FatPointScheme, scheme_fingerprint

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "check_reg_invariance",
    "check_stable_range",
    "transfer_rhs",
    "check_transfer",
    "check_cor46",
    "check_prop44",
    "check_prop44_displayed",
    "check_restriction",
    "check_restriction_range",
    "check_lemma23",
    "rnc_reg_formula",
    "check_rnc",
    "points_on_rnc",
    "run_checks",
    "report_to_json_dict",
    "report_to_json",
    "report_from_json",
    "DIAGNOSTIC_CHECKS",
    "CHECK_NAMES",
]


class CheckRecord(NamedTuple):
    """One compared pair of integers; t is None for whole-scheme records."""

    t: int | None
    lhs: int
    rhs: int
    passed: bool
    note: str = ""


class VerificationReport(NamedTuple):
    check: str
    scheme_fingerprint: str
    target_dim: int | None
    records: tuple[CheckRecord, ...]
    passed: bool
    note: str = ""


def _report(check, scheme, target_dim, records, note="") -> VerificationReport:
    return VerificationReport(
        check=check,
        scheme_fingerprint=scheme_fingerprint(scheme),
        target_dim=target_dim,
        records=tuple(records),
        passed=all(r.passed for r in records),
        note=note,
    )


def _sides(scheme: FatPointScheme, target_dim: int, larger: bool = True) -> tuple:
    """The memoized passes of the scheme and of its image
    ``embed(scheme, target_dim)``.  A target that is not an int, or is below
    the ambient dimension, or equal to it if ``larger``, is refused before
    either pass is built."""
    require_int(target_dim, "target dimension")
    n = scheme.ambient_dim
    if larger and target_dim <= n:
        raise TargetTooSmall(target_dim, n, "must exceed")
    image = hilbert_pass(scheme, target_dim)  # first: refuses one below n
    return hilbert_pass(scheme), image


def check_reg_invariance(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Regularity index before and after embedding, by two full rank scans."""
    source, image = _sides(scheme, target_dim, larger=False)
    reg_source = source.reg()
    reg_image = image.reg()
    rec = CheckRecord(
        t=None,
        lhs=reg_source,
        rhs=reg_image,
        passed=reg_source == reg_image,
        note="reg of scheme vs reg of embedded scheme",
    )
    return _report("reg_invariance", scheme, target_dim, [rec])


def check_stable_range(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """In the stable range both Hilbert functions equal their multiplicity
    formulas, and the embedded one dominates, strictly unless all m_i = 1."""
    source, image = _sides(scheme, target_dim)
    e_n = source.size
    all_simple = all(mi == 1 for mi in scheme.multiplicities)
    reg = source.reg()
    e_m = image.size
    records = []
    for t in (reg, reg + 1):
        h_n = source.h(t)
        h_m = image.h(t)
        records.append(
            CheckRecord(t, h_m, e_m, h_m == e_m, "embedded H equals its multiplicity")
        )
        records.append(CheckRecord(t, h_n, e_n, h_n == e_n, "H equals its multiplicity"))
        if all_simple:
            records.append(
                CheckRecord(t, h_m, h_n, h_m == h_n, "equality (all multiplicities 1)")
            )
        else:
            records.append(
                CheckRecord(t, h_m, h_n, h_m > h_n, "strict inequality (some m_i >= 2)")
            )
    return _report("stable_range", scheme, target_dim, records)


def _truncation_sum(source, target_dim: int, t: int, shift: int = 0) -> int:
    """dim I_Z(t) + sum_{i<t} C(m-n-1+shift+t-i, t-i) * dim I_trunc(t-i)(i): with
    shift 0, the embedded ideal dimension the transfer formula predicts."""
    n, m = source.dim, target_dim
    total = source.ideal_dim(t)
    for i in range(t):
        drop = t - i
        total += binomial(m - n - 1 + shift + drop, drop) * source.ideal_dim(i, drop)
    return total


def transfer_rhs(scheme: FatPointScheme, target_dim: int, t: int) -> int:
    """Right-hand side of the transfer formula for the embedded Hilbert value:

        H(t) + C(t+m, m) - C(t+n, n)
             - sum_{i=0}^{t-1} C(m-n-1+t-i, t-i) * (C(i+n, n) - H_trunc(t-i)(i))

    where H_trunc(k) is the Hilbert function of the scheme with all
    multiplicities lowered by k (zero for the unit ideal).  Defined for
    0 <= t < reg only.
    """
    require_int(t, "degree")
    source = _sides(scheme, target_dim)[0]
    reg = source.reg()
    if t < 0 or t >= reg:
        raise DegreeOutOfRange(f"transfer formula needs 0 <= t < reg = {reg}, got {brief(t)}")
    return _transfer_rhs(source, target_dim, t)


def _transfer_rhs(source, target_dim: int, t: int) -> int:
    return binomial(t + target_dim, target_dim) - _truncation_sum(source, target_dim, t)


def check_transfer(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Embedded Hilbert value vs the transfer formula, for every t below reg."""
    source, image = _sides(scheme, target_dim)
    records = []
    for t in range(source.reg()):
        lhs = image.h(t)
        rhs = _transfer_rhs(source, target_dim, t)
        records.append(CheckRecord(t, lhs, rhs, lhs == rhs, "embedded H vs transfer formula"))
    note = "" if records else "no degrees below the regularity index"
    return _report("transfer", scheme, target_dim, records, note)


def check_cor46(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Single-step additive identity (when m = n+1), monotonicity, and
    strictness of the embedded Hilbert function when some m_i >= 2.

    Strictness is asserted for t >= 1 only: at t = 0 both sides are 1, so
    the record there checks that boundary equality instead.
    """
    source, image = _sides(scheme, target_dim)
    reg = source.reg()
    single_step = target_dim == scheme.ambient_dim + 1
    some_fat = any(mi >= 2 for mi in scheme.multiplicities)
    additive, dominance, strictness = [], [], []
    for t in range(reg + 2):
        h_m = image.h(t)
        h_n = source.h(t)
        if single_step and t < reg:
            rhs = h_n + sum(source.h(i, t - i) for i in range(t))
            additive.append(CheckRecord(t, h_m, rhs, h_m == rhs, "single-step additive identity"))
        dominance.append(CheckRecord(t, h_m, h_n, h_m >= h_n, "embedded H dominates"))
        if some_fat and t == 0:
            boundary = "statement boundary: both sides equal 1 at t = 0"
            strictness.append(CheckRecord(0, h_m, h_n, h_m == 1 and h_n == 1, boundary))
        elif some_fat:
            strictness.append(
                CheckRecord(t, h_m, h_n, h_m > h_n, "strict dominance (some m_i >= 2)")
            )
    note = "" if some_fat else "strictness vacuous: all multiplicities are 1"
    return _report("cor46", scheme, target_dim, additive + dominance + strictness, note)


def _dimension_identity_records(scheme, target_dim, shift):
    """Records for the ideal-dimension identity with new-variable coefficient
    C(m - n - 1 + shift + d, d); shift selects the variant."""
    source, image = _sides(scheme, target_dim)
    records = []
    for t in range(source.reg()):
        lhs = image.ideal_dim(t)
        rhs = _truncation_sum(source, target_dim, t, shift)
        records.append(
            CheckRecord(t, lhs, rhs, lhs == rhs, "embedded ideal dimension vs sum")
        )
    return records


def check_prop44(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Ideal-dimension identity with coefficient C(m-n-1+t-i, t-i), the
    number of degree-(t-i) monomials in the m-n new variables."""
    records = _dimension_identity_records(scheme, target_dim, 0)
    note = "" if records else "no degrees below the regularity index"
    return _report("prop44", scheme, target_dim, records, note)


def check_prop44_displayed(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Diagnostic: the same identity with the coefficient C(m-n+t-i, t-i).

    This variant is expected to fail as soon as the sum has a nonzero term;
    a failing report here is evidence for resolving the coefficient in
    favour of C(m-n-1+t-i, t-i).
    """
    records = _dimension_identity_records(scheme, target_dim, 1)
    return _report(
        "prop44_displayed_variant",
        scheme,
        target_dim,
        records,
        "diagnostic variant; failure indicates the displayed coefficient is off by one",
    )


def _restriction_records(source, image, t: int) -> list[CheckRecord]:
    """Degree-t records for substituting zeros for the new variables.

    (i) Membership compares two subspaces of the image ideal I_t: lhs is
    the dimension of the members whose restriction lies in the source
    ideal, rhs is dim I_t.  They are equal exactly when restriction maps
    I_t into the source ideal, and on a failure lhs < rhs.  Every source
    functional is an image functional, so lhs is computed as C(t + m, m)
    minus the image's H(t), which is rhs too: the record cannot fail until
    the members' restrictions are tested on the source's functionals.

    (ii) The members of I_t involving only the old variables form a space
    of exactly the source ideal's dimension: lhs counts them from the
    image's pass, rhs from the source's.
    """
    n, m = source.dim, image.dim
    image_dim = image.ideal_dim(t)
    kept = binomial(t + m, m) - image.h(t)
    inter_dim = binomial(t + n, n) - image.old_rank(t)
    source_dim = source.ideal_dim(t)
    membership = CheckRecord(
        t,
        kept,
        image_dim,
        kept == image_dim,
        "restricted ideal members vanish on the source scheme",
    )
    dimension = CheckRecord(
        t,
        inter_dim,
        source_dim,
        inter_dim == source_dim,
        "intersection dimension equals source ideal dimension",
    )
    return [membership, dimension]


def check_restriction(scheme: FatPointScheme, target_dim: int, t: int) -> VerificationReport:
    """Degree-t restriction checks: ideal membership after substituting zeros,
    and the intersection-dimension identity."""
    require_int(t, "degree")
    records = _restriction_records(*_sides(scheme, target_dim), t)
    return _report("restriction", scheme, target_dim, records)


def check_restriction_range(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Restriction checks for every degree up to reg + 1."""
    source, image = _sides(scheme, target_dim)
    records = []
    for t in range(source.reg() + 2):
        records.extend(_restriction_records(source, image, t))
    return _report("restriction", scheme, target_dim, records)


def check_lemma23(scheme: FatPointScheme) -> VerificationReport:
    """reg is at least m1 + m2 - 1 for the two largest multiplicities."""
    if scheme.num_points < 2:
        return _report(
            "lemma23", scheme, None, [], note="not applicable: scheme has a single point"
        )
    m1, m2 = sorted(scheme.multiplicities, reverse=True)[:2]
    reg = hilbert_pass(scheme).reg()
    rec = CheckRecord(
        t=None,
        lhs=reg,
        rhs=m1 + m2 - 1,
        passed=reg >= m1 + m2 - 1,
        note="reg vs lower bound from the two largest multiplicities",
    )
    return _report("lemma23", scheme, None, [rec])


def rnc_reg_formula(mults, n: int) -> int:
    """Closed-form regularity index for points on a rational normal curve:

        max(m1 + m2 - 1, floor((sum m_i + n - 2) / n))

    with m1 >= m2 the two largest multiplicities.  Input order does not
    matter; the list is sorted internally.
    """
    require_int(n, "ambient dimension")
    if n < 1:
        raise SchemeFormatError("ambient dimension must be at least 1")
    for k, mi in enumerate(mults):
        if not isinstance(mi, int) or isinstance(mi, bool) or mi < 1:
            raise NonpositiveMultiplicity(f"multiplicity {k} is not a positive integer")
    if len(mults) < 2:
        raise TooFewPoints("the formula references the two largest multiplicities")
    ordered = sorted(mults, reverse=True)
    return max(ordered[0] + ordered[1] - 1, (sum(ordered) + n - 2) // n)


def points_on_rnc(scheme: FatPointScheme) -> bool:
    """True when every point lies on the standard rational normal curve.

    A point (a_0 : ... : a_n) lies on the curve exactly when the 2 x n
    matrix with rows (a_0 ... a_{n-1}) and (a_1 ... a_n) has rank at most
    one; in P^1 that is every point.  Each point is scaled to integers by
    the lcm of its denominators, which keeps the rank.
    """
    n = scheme.ambient_dim
    for point in scheme.points:
        lead = math.lcm(*(c.denominator for c in point.coords))
        a = [c.numerator * (lead // c.denominator) for c in point.coords]
        for i in range(n):
            for j in range(i + 1, n):
                if a[i] * a[j + 1] - a[j] * a[i + 1] != 0:
                    return False
    return True


def check_rnc(scheme: FatPointScheme, target_dim: int) -> VerificationReport:
    """Regularity of a curve configuration, before and after embedding,
    against the closed-form formula."""
    if scheme.num_points < 2:
        raise TooFewPoints("the curve formula needs at least two points")
    if not points_on_rnc(scheme):
        raise NotOnRationalNormalCurve(
            "a point is off the rational normal curve; the formula does not apply"
        )
    source, image = _sides(scheme, target_dim, larger=False)
    expected = rnc_reg_formula(scheme.multiplicities, scheme.ambient_dim)
    reg_source = source.reg()
    reg_image = image.reg()
    records = [
        CheckRecord(None, reg_source, expected, reg_source == expected, "reg vs formula"),
        CheckRecord(
            None, reg_image, expected, reg_image == expected, "embedded reg vs formula"
        ),
    ]
    return _report("rnc", scheme, target_dim, records)


def _rnc_report(scheme: FatPointScheme, target_dim: int, named: bool) -> VerificationReport:
    """check_rnc, or a passing not-applicable report when the scheme is off
    the curve or has one point and the check was not named."""
    if named or (scheme.num_points >= 2 and points_on_rnc(scheme)):
        return check_rnc(scheme, target_dim)
    if scheme.num_points < 2:
        why = "fewer than two points"
    else:
        why = "points are not on the rational normal curve"
    return _report("rnc", scheme, target_dim, [], note=f"not applicable: {why}")


CHECK_NAMES = (
    "reg",
    "stable",
    "transfer",
    "cor46",
    "prop44",
    "restriction",
    "lemma23",
    "rnc",
)

DIAGNOSTIC_CHECKS = frozenset({"prop44_displayed_variant"})


def run_checks(
    scheme: FatPointScheme,
    target_dim: int,
    names=("all",),
    prop44_diagnostic: bool = False,
) -> list[VerificationReport]:
    """Run the selected checks in a fixed order and return their reports.

    ``names`` is a sequence of CHECK_NAMES or "all"; an empty one, a str,
    and an unknown name without "all" are refused.  Under "all", a check
    whose preconditions the scheme does not meet (rnc off the curve or with
    one point) is a passing not-applicable report; a named check raises.
    ``prop44_diagnostic`` appends the displayed-coefficient variant, which
    is expected to fail and is listed in DIAGNOSTIC_CHECKS.  A target that
    is not an int is refused before any check runs.
    """
    if isinstance(names, str):
        raise TypeError("names must be a sequence of check names, got str")
    requested = set(names)
    if not requested:
        raise SchemeFormatError("check list is empty")
    named = "all" not in requested
    if not named:
        requested = set(CHECK_NAMES)
    unknown = sorted(requested - set(CHECK_NAMES))
    if unknown:
        raise SchemeFormatError(f"unknown checks: {', '.join(unknown)}")
    require_int(target_dim, "target dimension")  # also where no selected check reaches an image
    # built per call, so a check function replaced on the module is the one that runs
    table = {
        "reg": [check_reg_invariance],
        "stable": [check_stable_range],
        "transfer": [check_transfer],
        "cor46": [check_cor46],
        "prop44": [check_prop44] + ([check_prop44_displayed] if prop44_diagnostic else []),
        "restriction": [check_restriction_range],
        "lemma23": [lambda scheme, target_dim: check_lemma23(scheme)],
        "rnc": [lambda scheme, target_dim: _rnc_report(scheme, target_dim, named)],
    }
    reports = []
    for name in CHECK_NAMES:
        if name in requested:
            reports.extend(check(scheme, target_dim) for check in table[name])
    return reports


def report_to_json_dict(report: VerificationReport) -> dict:
    doc = {
        "check": report.check,
        "scheme_fingerprint": report.scheme_fingerprint,
        "target_dim": report.target_dim,
        "pass": report.passed,
        "records": [
            {"t": r.t, "lhs": r.lhs, "rhs": r.rhs, "pass": r.passed, "note": r.note}
            for r in report.records
        ],
    }
    if report.note:
        doc["note"] = report.note
    if report.check in DIAGNOSTIC_CHECKS:
        doc["diagnostic"] = True
    return doc


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(", ", ": "))
_STRING = json.encoder.encode_basestring_ascii


def _value(v) -> str:
    """``_ENCODER.encode(v)``, with the common scalars written directly."""
    if type(v) is int:
        return repr(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if type(v) is str:
        return _STRING(v)
    return _ENCODER.encode(v)


def report_to_json(report: VerificationReport) -> str:
    """``_ENCODER.encode(report_to_json_dict(report))``, written directly:
    the dict's two tests first, then each value in sorted-key order."""
    has_note, diagnostic = bool(report.note), report.check in DIAGNOSTIC_CHECKS
    out = [f'{{"check": {_value(report.check)}']
    if diagnostic:
        out.append('"diagnostic": true')
    if has_note:
        out.append(f'"note": {_value(report.note)}')
    out.append(f'"pass": {_value(report.passed)}')
    records = ", ".join(
        f'{{"lhs": {_value(r.lhs)}, "note": {_value(r.note)}, "pass": {_value(r.passed)}, '
        f'"rhs": {_value(r.rhs)}, "t": {_value(r.t)}}}'
        for r in report.records
    )
    out.append(f'"records": [{records}]')
    out.append(f'"scheme_fingerprint": {_value(report.scheme_fingerprint)}')
    out.append(f'"target_dim": {_value(report.target_dim)}}}')
    return ", ".join(out)


def report_from_json(text: str) -> VerificationReport:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, over-long integer, deep nesting
        raise SchemeFormatError(f"invalid JSON: {exc}") from None
    try:
        records = tuple(
            CheckRecord(r["t"], r["lhs"], r["rhs"], r["pass"], r.get("note", ""))
            for r in doc["records"]
        )
        return VerificationReport(
            check=doc["check"],
            scheme_fingerprint=doc["scheme_fingerprint"],
            target_dim=doc["target_dim"],
            records=records,
            passed=doc["pass"],
            note=doc.get("note", ""),
        )
    except (KeyError, TypeError) as exc:
        raise SchemeFormatError(f"malformed report document: {exc}") from None
