"""The values of ``run_checks``: each Hilbert value is computed once per
call, in the order the checks ask for it when run alone, and every refusal
comes where it came when each check asked the Hilbert layer again for
every value.

The spies record the first read of each value stored on a pass, as
``("reg", dim)`` or ``("h", dim, t, drop)``, with dim the pass's ambient
dimension: the scheme's own or the image's.
"""

import json
import sys
import threading
from collections import Counter

import pytest

import fatpoints.hilbert as hilbert_mod
import fatpoints.verify as verify_mod
from fatpoints.errors import ResourceLimit
from fatpoints.hilbert import hilbert_function, regularity_index
from fatpoints.scheme import make_scheme
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
    points_on_rnc,
    report_to_json,
    report_to_json_dict,
    run_checks,
)

from test_acceptance import _sample_entry, build_corpus


@pytest.fixture(scope="module")
def every_tenth_entry():
    return build_corpus()[::10]


@pytest.fixture
def asked(monkeypatch):
    requests = []
    real_reg, real_h = hilbert_mod._Pass.reg, hilbert_mod._Pass.h

    def reg(self):
        if self.reg_value is None:
            requests.append(("reg", self.dim))
        return real_reg(self)

    def h(self, t, drop=0):
        if (t, drop) not in self.values:
            requests.append(("h", self.dim, t, drop))
        return real_h(self, t, drop)

    monkeypatch.setattr(hilbert_mod._Pass, "reg", reg)
    monkeypatch.setattr(hilbert_mod._Pass, "h", h)
    return requests


def test_run_checks_asks_for_each_value_once(every_tenth_entry, asked):
    for entry in every_tenth_entry:
        asked.clear()
        hilbert_mod._rank_at_degree.cache_clear()
        run_checks(entry.scheme, entry.target_dim, ("all",), prop44_diagnostic=True)
        repeated = sorted((key for key, count in Counter(asked).items() if count > 1), key=str)
        assert repeated == [], entry
        regs = {key for key in asked if key[0] == "reg"}
        assert regs <= {("reg", entry.scheme.ambient_dim), ("reg", entry.target_dim)}


def _alone(entry):
    """The public checks behind run_checks(..., ("all",), prop44_diagnostic=True),
    each called on its own; rnc only where it applies."""
    z, m = entry.scheme, entry.target_dim
    checks = [
        check_reg_invariance,
        check_stable_range,
        check_transfer,
        check_cor46,
        check_prop44,
        check_prop44_displayed,
        check_restriction_range,
        lambda scheme, target_dim: check_lemma23(scheme),
    ]
    if z.num_points >= 2 and points_on_rnc(z):
        checks.append(check_rnc)
    return [lambda check=check: check(z, m) for check in checks]


def test_checks_alone_give_the_reports_and_first_requests_of_run_checks(
    every_tenth_entry, asked
):
    for entry in every_tenth_entry:
        asked.clear()
        hilbert_mod._rank_at_degree.cache_clear()
        together = run_checks(entry.scheme, entry.target_dim, ("all",), prop44_diagnostic=True)
        together_asked = list(asked)
        alone_asked = []
        for k, call in enumerate(_alone(entry)):
            asked.clear()
            hilbert_mod._rank_at_degree.cache_clear()
            assert report_to_json(call()) == report_to_json(together[k]), (entry, k)
            alone_asked += asked
        # run_checks asks for each value where its first check alone would,
        # and never again
        assert together_asked == list(dict.fromkeys(alone_asked)), entry


# scheme -> (checks, cap, the check that raised, its message), recorded from
# the implementation whose checks asked the Hilbert layer again for every
# value; each cap sits one below a degree's column count, so the refusals
# come from different checks and degrees, and from both sides
REFUSALS = {
    ("rnc", 30020): [
        ("all", 20, "check_reg_invariance",
         "degree 5 in P^2 needs 21 monomial columns (cap 20)"),
        ("all", 27, "check_reg_invariance",
         "degree 3 in P^5 needs 56 monomial columns (cap 27)"),
        ("all", 251, "check_reg_invariance",
         "degree 5 in P^5 needs 252 monomial columns (cap 251)"),
        ("all", 461, "check_stable_range",
         "degree 6 in P^5 needs 462 monomial columns (cap 461)"),
        ("transfer", 125, "check_transfer",
         "degree 4 in P^5 needs 126 monomial columns (cap 125)"),
        ("cor46", 461, "check_cor46",
         "degree 6 in P^5 needs 462 monomial columns (cap 461)"),
        ("prop44", 125, "check_prop44",
         "degree 4 in P^5 needs 126 monomial columns (cap 125)"),
        ("restriction", 461, "check_restriction_range",
         "degree 6 in P^5 needs 462 monomial columns (cap 461)"),
        ("lemma23", 20, "check_lemma23",
         "degree 5 in P^2 needs 21 monomial columns (cap 20)"),
        ("rnc", 251, "check_rnc",
         "degree 5 in P^5 needs 252 monomial columns (cap 251)"),
        ("transfer,restriction", 461, "check_restriction_range",
         "degree 6 in P^5 needs 462 monomial columns (cap 461)"),
    ],
    ("collinear", 20100): [
        ("all", 329, "check_stable_range",
         "degree 7 in P^4 needs 330 monomial columns (cap 329)"),
        ("transfer", 125, "check_transfer",
         "degree 5 in P^4 needs 126 monomial columns (cap 125)"),
        ("lemma23", 6, "check_lemma23",
         "degree 6 in P^1 needs 7 monomial columns (cap 6)"),
        ("rnc", 209, "check_rnc",
         "degree 6 in P^4 needs 210 monomial columns (cap 209)"),
        ("transfer,restriction", 329, "check_restriction_range",
         "degree 7 in P^4 needs 330 monomial columns (cap 329)"),
    ],
    ("rnc", 30170): [
        ("all", 209, "check_stable_range",
         "degree 6 in P^4 needs 210 monomial columns (cap 209)"),
        ("prop44", 69, "check_prop44",
         "degree 4 in P^4 needs 70 monomial columns (cap 69)"),
        ("cor46", 209, "check_cor46",
         "degree 6 in P^4 needs 210 monomial columns (cap 209)"),
        ("lemma23", 55, "check_lemma23",
         "degree 5 in P^3 needs 56 monomial columns (cap 55)"),
    ],
}


@pytest.mark.parametrize(
    "family, seed, checks, cap, raised_in, message",
    [scheme + refusal for scheme, refusals in REFUSALS.items() for refusal in refusals],
)
def test_refusals_come_from_the_same_check_with_the_same_message(
    monkeypatch, family, seed, checks, cap, raised_in, message
):
    entered = []
    for name in [name for name in vars(verify_mod) if name.startswith("check_")]:

        def enter(*args, name=name, real=getattr(verify_mod, name)):
            entered.append(name)
            return real(*args)

        monkeypatch.setattr(verify_mod, name, enter)
    monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", cap)
    hilbert_mod._rank_at_degree.cache_clear()
    entry = _sample_entry(family, seed)
    with pytest.raises(ResourceLimit) as refused:
        run_checks(entry.scheme, entry.target_dim, checks.split(","), prop44_diagnostic=True)
    assert (entered[-1], str(refused.value)) == (raised_in, message)


def test_stored_values_do_not_outlive_a_cap_change(monkeypatch):
    # three collinear double points of P^2: e = 9, reg = 5, and the scan
    # starts at degree 3, so under a cap of 20 the scan itself reaches the
    # first degree over the cap, 5
    z = make_scheme(2, [((1, 0, 0), 2), ((1, 1, 0), 2), ((1, 2, 0), 2)])
    calls = [
        lambda: hilbert_function(z, 5),
        lambda: regularity_index(z),
        lambda: [report_to_json(r) for r in run_checks(z, 3)],
    ]

    def refusals(clear):
        messages = []
        for call in calls:
            if clear:
                hilbert_mod._rank_at_degree.cache_clear()
            with pytest.raises(ResourceLimit) as refused:
                call()
            messages.append(str(refused.value))
        return messages

    default = hilbert_mod.COLUMN_CAP
    answers = [call() for call in calls]
    assert answers[:2] == [9, 5]
    monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", 20)
    warm = refusals(clear=False)
    assert warm == refusals(clear=True)
    assert set(warm) == {"degree 5 in P^2 needs 21 monomial columns (cap 20)"}
    monkeypatch.setattr(hilbert_mod, "COLUMN_CAP", default)
    assert [call() for call in calls] == answers


def test_one_clear_empties_the_bounded_memo(every_tenth_entry):
    # the memo never holds more than two passes, and a clear under the name
    # the benchmark worker uses before each op empties every Hilbert cache
    caches = [value for value in vars(hilbert_mod).values() if hasattr(value, "cache_info")]
    largest = 0
    for entry in every_tenth_entry:
        run_checks(entry.scheme, entry.target_dim, ("all",), prop44_diagnostic=True)
        largest = max([largest] + [cache.cache_info().currsize for cache in caches])
    assert caches and largest <= 2
    hilbert_mod._rank_at_degree.cache_clear()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


def test_the_report_encoder_matches_json_dumps():
    # report_to_json writes each report itself, without the encoder; on
    # every report of the seeded corpus its bytes are json.dumps'
    for entry in build_corpus():
        for report in run_checks(entry.scheme, entry.target_dim, prop44_diagnostic=True):
            doc = report_to_json_dict(report)
            expected = json.dumps(doc, sort_keys=True, separators=(", ", ": "))
            assert report_to_json(report) == expected, (entry, report.check)


def test_threads_share_no_tables(every_tenth_entry):
    # each thread runs its own schemes (a pass of the Hilbert layer's memo
    # is not meant to be walked by two threads at once); a value read from
    # another thread's scheme breaks the equalities below
    entries = every_tenth_entry[:24]
    expected = [
        [report_to_json(r) for r in run_checks(e.scheme, e.target_dim, prop44_diagnostic=True)]
        for e in entries
    ]
    got = {}

    def work(k):
        for i in range(k, len(entries), 4):
            e = entries[i]
            got[i] = [
                report_to_json(r) for r in run_checks(e.scheme, e.target_dim, prop44_diagnostic=True)
            ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [got.get(i) for i in range(len(entries))] == expected


def test_a_nested_call_leaves_the_outer_reports_unchanged(every_tenth_entry, monkeypatch):
    outer, inner = every_tenth_entry[3], every_tenth_entry[4]
    expected = [report_to_json(r) for r in run_checks(outer.scheme, outer.target_dim)]
    real = verify_mod.check_transfer

    def nesting(scheme, target_dim):
        run_checks(inner.scheme, inner.target_dim, ("reg", "cor46"))
        return real(scheme, target_dim)

    monkeypatch.setattr(verify_mod, "check_transfer", nesting)
    assert [report_to_json(r) for r in run_checks(outer.scheme, outer.target_dim)] == expected
