import hashlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fatpoints.verify as verify_mod
from fatpoints.cli import main
from fatpoints.errors import SchemeFormatError
from fatpoints.exactlinalg import binomial
from fatpoints.hilbert import hilbert_function, regularity_index
from fatpoints.scheme import embed, make_scheme, scheme_from_json, scheme_to_json
from fatpoints.verify import CheckRecord, VerificationReport, report_from_json


@pytest.fixture
def triple_point_file(tmp_path):
    z = make_scheme(1, [((1, 0), 3)])
    path = tmp_path / "z.json"
    path.write_text(scheme_to_json(z))
    return str(path)


@pytest.fixture
def double_point_file(tmp_path):
    z = make_scheme(1, [((1, 0), 2)])
    path = tmp_path / "d.json"
    path.write_text(scheme_to_json(z))
    return str(path)


def test_reg_command(triple_point_file, capsys):
    assert main(["reg", "--scheme", triple_point_file]) == 0
    assert capsys.readouterr().out == "reg = 2\n"


def test_multiplicity_command(triple_point_file, capsys):
    assert main(["multiplicity", "--scheme", triple_point_file]) == 0
    assert capsys.readouterr().out == "e = 3\n"


def test_hilbert_table_text(double_point_file, capsys):
    assert main(["hilbert", "--scheme", double_point_file, "--tmax", "3"]) == 0
    assert capsys.readouterr().out == "t:0 H:1\nt:1 H:2\nt:2 H:2\nt:3 H:2\n"


def test_hilbert_single_degree_json(double_point_file, capsys):
    assert main(["hilbert", "--scheme", double_point_file, "--t", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == [{"t": 1, "H": 2}]


def test_hilbert_requires_exactly_one_degree_flag(double_point_file, capsys):
    assert main(["hilbert", "--scheme", double_point_file]) == 1
    assert main(["hilbert", "--scheme", double_point_file, "--t", "1", "--tmax", "2"]) == 1


def test_negative_degrees_exit_one(double_point_file, capsys):
    for flag in ("--t", "--tmax"):
        for fmt in ("text", "json"):
            argv = ["hilbert", "--scheme", double_point_file, flag, "-1", "--format", fmt]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("fatpoints: error: ") and captured.err.count("\n") == 1


def test_embed_pipeline_matches_library(triple_point_file, tmp_path, capsys):
    out = tmp_path / "embedded.json"
    assert main(["embed", "--scheme", triple_point_file, "--target-dim", "3", "-o", str(out)]) == 0
    embedded = scheme_from_json(out.read_text())
    source = scheme_from_json(Path(triple_point_file).read_text())
    assert embedded == embed(source, 3)

    # CLI hilbert on the embedded file equals library-level composition
    assert main(["hilbert", "--scheme", str(out), "--t", "1"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == f"t:1 H:{hilbert_function(embed(source, 3), 1)}"


def test_gen_deterministic_byte_identical(tmp_path, capsys):
    argv = ["gen", "--n", "2", "--mults", "2,1", "--config", "rnc", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    scheme = scheme_from_json(first)
    assert scheme.ambient_dim == 2 and scheme.multiplicities == (2, 1)


def test_gen_then_reg_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert (
        main(
            [
                "gen",
                "--n",
                "1",
                "--mults",
                "2,1",
                "--config",
                "generic",
                "--seed",
                "3",
                "-o",
                str(out),
            ]
        )
        == 0
    )
    scheme = scheme_from_json(out.read_text())
    assert main(["reg", "--scheme", str(out)]) == 0
    assert capsys.readouterr().out == f"reg = {regularity_index(scheme)}\n"


def test_verify_all_passes_text(triple_point_file, capsys):
    assert main(["verify", "--scheme", triple_point_file, "--target-dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_json_stream_round_trips(triple_point_file, capsys):
    assert (
        main(
            [
                "verify",
                "--scheme",
                triple_point_file,
                "--target-dim",
                "2",
                "--checks",
                "reg,transfer,lemma23",
                "--format",
                "json",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [report_from_json(line) for line in lines]
    assert [r.check for r in reports] == ["reg_invariance", "transfer", "lemma23"]
    assert all(r.passed for r in reports)


def test_verify_diagnostic_does_not_affect_exit(tmp_path, capsys):
    z = make_scheme(1, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    path = tmp_path / "w.json"
    path.write_text(scheme_to_json(z))
    assert (
        main(
            [
                "verify",
                "--scheme",
                str(path),
                "--target-dim",
                "3",
                "--checks",
                "prop44",
                "--prop44-diagnostic",
                "--format",
                "json",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    displayed = [d for d in docs if d["check"] == "prop44_displayed_variant"]
    assert displayed and displayed[0]["diagnostic"] is True
    assert displayed[0]["pass"] is False  # the expected counterexample


def test_verify_failure_exit_code(monkeypatch, triple_point_file, capsys):
    # no true counterexample exists, so fake one to exercise the exit path
    def broken(scheme, target_dim):
        record = CheckRecord(t=1, lhs=7, rhs=8, passed=False, note="forced")
        return VerificationReport("reg_invariance", "deadbeef", target_dim, (record,), False)

    monkeypatch.setattr(verify_mod, "check_reg_invariance", broken)
    code = main(["verify", "--scheme", triple_point_file, "--target-dim", "3", "--checks", "reg"])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "lhs=7" in out and "rhs=8" in out


def test_verify_unknown_check_is_usage_error(triple_point_file, capsys):
    assert (
        main(["verify", "--scheme", triple_point_file, "--target-dim", "3", "--checks", "bogus"])
        == 1
    )


def test_verify_empty_check_list_exit_one(triple_point_file, capsys):
    for checks in (",", ""):
        argv = ["verify", "--scheme", triple_point_file, "--target-dim", "3", "--checks", checks]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "fatpoints: error: check list is empty\n"


def test_input_errors_exit_one(tmp_path, capsys):
    assert main(["reg", "--scheme", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_dim": 1, "points": [{"coords": ["0.5", "1"], "multiplicity": 1}]}')
    assert main(["reg", "--scheme", str(bad)]) == 1
    assert main(["embed", "--scheme", str(bad), "--target-dim", "3"]) == 1


def test_invalid_scheme_values_exit_one_without_traceback(tmp_path, capsys):
    zero_dim = tmp_path / "zero_dim.json"
    zero_dim.write_text('{"ambient_dim": 0, "points": [{"coords": ["1"], "multiplicity": 1}]}')
    no_points = tmp_path / "no_points.json"
    no_points.write_text('{"ambient_dim": 2, "points": []}')
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000)
    for argv in (
        ["gen", "--n", "0", "--mults", "1", "--config", "generic", "--seed", "0"],
        ["reg", "--scheme", str(zero_dim)],
        ["reg", "--scheme", str(no_points)],
        ["reg", "--scheme", str(undecodable)],
        ["reg", "--scheme", str(nested)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("fatpoints: error: ") and err.count("\n") == 1, argv
        assert "Traceback" not in err
    with pytest.raises(SchemeFormatError):
        report_from_json("[" * 200000)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="interpreter has no integer-string limit",
)
def test_oversized_integers_exit_one(tmp_path, capsys):
    big = "9" * (sys.get_int_max_str_digits() + 1)
    template = '{"ambient_dim": %s, "points": [{"coords": ["1", "%s"], "multiplicity": %s}]}'
    docs = {
        "dim.json": template % (big, 0, 1),
        "coord.json": template % (1, big, 1),
        "mult.json": template % (1, 0, big),
    }
    argvs = []
    for name, text in docs.items():
        path = tmp_path / name
        path.write_text(text)
        argvs += [[command, "--scheme", str(path)] for command in ("reg", "multiplicity")]
    # valid inputs whose printed result is over the limit: e of a point of
    # P^3 has about three times the digits of its multiplicity
    point = tmp_path / "point.json"
    mult = int("9" * (sys.get_int_max_str_digits() // 2))
    point.write_text(scheme_to_json(make_scheme(3, [((1, 0, 0, 0), mult)])))
    at_limit = "9" * sys.get_int_max_str_digits()
    argvs += [
        ["multiplicity", "--scheme", str(point)],
        ["rnc-formula", "--n", "1", "--mults", f"{at_limit},{at_limit}"],
    ]
    for argv in argvs:
        assert main(argv) == 1, argv[:2]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fatpoints: error: ") and captured.err.count("\n") == 1
    with pytest.raises(SchemeFormatError):
        report_from_json('{"check": "rnc", "records": [{"lhs": %s}]}' % big)


def test_generated_coordinate_over_the_string_limit_exits_one(capsys):
    # rnc coordinates s^(n-j) t^j of P^6500 have denominators of thousands
    # of digits once the point is normalized
    argv = ["gen", "--n", "6500", "--mults", "1,1", "--config", "rnc", "--seed", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fatpoints: error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _assert_resource_limit(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fatpoints: resource limit: ")
    assert captured.err.count("\n") == 1


def test_oversized_work_exits_three_at_once(tmp_path, capsys):
    # reg's first possible degree is over the cap for a 10^9-fold point, and
    # the embedded rows of P^500 are built without recursing per variable;
    # the image multiplicity of a 10^100-fold point in P^(10^50) has more
    # factors than math.comb takes, and no refused check computes it
    huge = tmp_path / "huge.json"
    huge.write_text(scheme_to_json(make_scheme(1, [((1, 0), 10**9)])))
    huger = tmp_path / "huger.json"
    huger.write_text(scheme_to_json(make_scheme(1, [((1, 0), 10**100)])))
    two = tmp_path / "two.json"
    two.write_text(
        '{"ambient_dim": 2, "points": [{"coords": ["1","0","0"], "multiplicity": 2},'
        ' {"coords": ["0","1","1"], "multiplicity": 1}]}'
    )
    for argv in (
        ["reg", "--scheme", str(huge)],
        ["verify", "--scheme", str(two), "--target-dim", "500"],
        ["verify", "--scheme", str(huger), "--target-dim", str(10**50)],
    ):
        assert main(argv) == 3, argv
        _assert_resource_limit(capsys)


def test_verify_refuses_a_huge_target_before_padding(tmp_path, capsys):
    # (1:0:0) and (1:1:1) lie on the conic, so every check applies; reg is 2,
    # and every check but lemma23 meets an image value over the cap, first in
    # degree 1 (degree reg for stable), and is refused there: no point is
    # padded to 2,000,001 coordinates
    path = str(tmp_path / "conic.json")
    Path(path).write_text(scheme_to_json(make_scheme(2, [((1, 0, 0), 2), ((1, 1, 1), 1)])))
    first_degree = {"stable": 2}
    for checks in (None, "reg", "stable", "transfer", "cor46", "prop44", "restriction", "rnc"):
        t = first_degree.get(checks, 1)
        argv = ["verify", "--scheme", path, "--target-dim", "2000000"]
        argv += [] if checks is None else ["--checks", checks]
        tracemalloc.start()
        try:
            assert main(argv) == 3, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            f"fatpoints: resource limit: degree {t} in P^2000000 needs "
            f"{binomial(t + 2_000_000, t)} monomial columns (cap 20000)\n"
        )
        assert peak < 4 * 2**20, (checks, peak)
    assert main(["verify", "--scheme", path, "--target-dim", "2000000", "--checks", "lemma23"]) == 0
    assert capsys.readouterr().out == "PASS               lemma23\n"


def test_verify_one_simple_point_at_a_huge_target(tmp_path, capsys):
    # the image's scan ends in degree 0, with one column and one row: the
    # memory does not grow with the target
    path = tmp_path / "simple.json"
    path.write_text(scheme_to_json(make_scheme(2, [((1, 2, 3), 1)])))
    for target in (2_000_000, 10**8):
        argv = ["verify", "--scheme", str(path), "--target-dim", str(target), "--checks", "reg"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "PASS               reg_invariance\n"
        assert peak < 4 * 2**20, (target, peak)


def test_embed_and_gen_refuse_more_coordinates_than_columns(tmp_path, capsys):
    # a point of P^M has M + 1 coordinates, one per degree-1 column: both
    # commands are refused before any coordinate is built
    path = tmp_path / "simple.json"
    path.write_text(scheme_to_json(make_scheme(2, [((1, 2, 3), 1)])))
    for argv in (
        ["embed", "--scheme", str(path), "--target-dim", "200000000"],
        ["gen", "--n", "200000000", "--mults", "1", "--config", "generic", "--seed", "0"],
    ):
        tracemalloc.start()
        try:
            assert main(argv) == 3, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "fatpoints: resource limit: degree 1 in P^200000000 needs 200000001 "
            "monomial columns (cap 20000)\n"
        )
        assert peak < 4 * 2**20, (argv[0], peak)


def test_embed_and_gen_accept_as_many_coordinates_as_columns(monkeypatch, tmp_path, capsys):
    path = tmp_path / "simple.json"
    path.write_text(scheme_to_json(make_scheme(2, [((1, 2, 3), 1)])))
    monkeypatch.setenv("FATPOINTS_COLUMN_CAP", "6")
    embed_argv = ["embed", "--scheme", str(path), "--target-dim"]
    gen_argv = ["--mults", "1,2", "--config", "rnc", "--seed", "3"]
    assert main(embed_argv + ["5"]) == 0
    assert scheme_from_json(capsys.readouterr().out).ambient_dim == 5
    assert main(["gen", "--n", "5"] + gen_argv) == 0
    assert scheme_from_json(capsys.readouterr().out).ambient_dim == 5
    assert main(embed_argv + ["6"]) == 3
    _assert_resource_limit(capsys)
    assert main(["gen", "--n", "6"] + gen_argv) == 3
    _assert_resource_limit(capsys)
    # a target below the scheme stays an input error under any cap
    monkeypatch.setenv("FATPOINTS_COLUMN_CAP", "1")
    assert main(embed_argv + ["1"]) == 1
    assert capsys.readouterr().err == "fatpoints: error: target dimension 1 is below ambient 2\n"


def _outcome(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 over (exit code, stdout, stderr) of every run of the grid below,
# recorded from the implementation that padded each point before the checks
# ran and refused each check's next image value by hand
VERIFY_GRID_DIGEST = "5f2ed85e4d7b03d5a6dcfecc26120c9423abc4a552f65ba4eb9585e8cdfb4403"


def test_verify_outcomes_match_the_recorded_grid(monkeypatch, tmp_path, capsys):
    # small caps and targets around the ambient dimension: every first
    # error, refusal and report is pinned, for every check selection
    schemes = {
        "conic": make_scheme(2, [((1, 0, 0), 2), ((1, 1, 1), 1)]),
        "simple": make_scheme(2, [((1, 2, 3), 1)]),
        "double": make_scheme(2, [((1, 2, 3), 2)]),
        "line": make_scheme(1, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]),
    }
    selections = [None, "reg", "stable", "transfer", "cor46", "prop44", "restriction"]
    selections += ["lemma23", "rnc"]
    digest = hashlib.sha256()
    codes = set()
    for name, scheme in schemes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(scheme_to_json(scheme))
        n = scheme.ambient_dim
        for cap in ("2", "3", "9"):
            monkeypatch.setenv("FATPOINTS_COLUMN_CAP", cap)
            for target in range(n - 1, n + 5):
                for checks in selections:
                    argv = ["verify", "--scheme", str(path), "--target-dim", str(target)]
                    argv += ["--prop44-diagnostic"]
                    argv += [] if checks is None else ["--checks", checks]
                    code, out, err = _outcome(argv, capsys)
                    digest.update(f"{code}\0{out}\0{err}\0".encode())
                    codes.add(code)
    assert codes == {0, 1, 3}
    assert digest.hexdigest() == VERIFY_GRID_DIGEST


def test_hilbert_degree_zero_in_high_dimension(tmp_path, capsys):
    path = tmp_path / "p600.json"
    path.write_text(scheme_to_json(make_scheme(600, [((1,) + (0,) * 600, 1)])))
    assert main(["hilbert", "--scheme", str(path), "--t", "0"]) == 0
    assert capsys.readouterr().out == "t:0 H:1\n"


def test_hilbert_tmax_does_not_list_degrees_up_front(monkeypatch, double_point_file, capsys):
    monkeypatch.setenv("FATPOINTS_COLUMN_CAP", "2")
    tracemalloc.start()
    try:
        assert main(["hilbert", "--scheme", double_point_file, "--tmax", "2000000"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_resource_limit(capsys)
    assert peak < 4 * 2**20


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["unknown-command"]) == 1
    assert main(["gen", "--n", "2"]) == 1


def test_column_cap_env_exit_three(monkeypatch, triple_point_file, capsys):
    import fatpoints.hilbert as hilbert_mod

    monkeypatch.setenv("FATPOINTS_COLUMN_CAP", "2")
    assert main(["hilbert", "--scheme", triple_point_file, "--t", "5"]) == 3
    assert "resource limit" in capsys.readouterr().err
    # the override is scoped to the invocation
    assert hilbert_mod.COLUMN_CAP == 20_000


def test_column_cap_env_validation(monkeypatch, triple_point_file, capsys):
    monkeypatch.setenv("FATPOINTS_COLUMN_CAP", "zero")
    assert main(["reg", "--scheme", triple_point_file]) == 1


def test_rnc_formula_command(capsys):
    assert main(["rnc-formula", "--n", "2", "--mults", "2,2,2,2"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["rnc-formula", "--n", "2", "--mults", "3"]) == 1
    assert main(["rnc-formula", "--n", "2", "--mults", "3,x"]) == 1


def test_rnc_formula_bad_values_exit_one(capsys):
    for n, mults in (("0", "2,1"), ("-1", "2,1"), ("2", "2,-1")):
        assert main(["rnc-formula", "--n", n, "--mults", mults]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fatpoints: error: ") and captured.err.count("\n") == 1


def test_point_errors_name_positions_not_coordinates(tmp_path, capsys):
    # the same point twice, normalized to (1, N^2) with N of 3,000 nines: N^2
    # has 6,000 digits, over the interpreter's default integer-string limit
    nines = "9" * 3000
    twice = {"ambient_dim": 1, "points": [{"coords": [f"1/{nines}", nines], "multiplicity": 1}] * 2}
    # a point of P^1 with 200,000 coordinates
    long = {"ambient_dim": 1, "points": [{"coords": ["1"] * 200_000, "multiplicity": 1}]}
    for name, doc in (("twice.json", twice), ("long.json", long)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert main(["reg", "--scheme", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fatpoints: error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode("utf-8")) < 200, captured.err[:200]
        assert "Traceback" not in captured.err


def test_huge_values_are_named_by_bit_length(tmp_path, capsys):
    # values of 4,000 digits parse, but printed whole they make 4 to 8 KB
    # lines, and C(t+2, 2) for such a t is over the integer-string limit
    big, negative = "9" * 4000, "-" + "9" * 4000
    double = tmp_path / "double.json"
    double.write_text(scheme_to_json(make_scheme(2, [((1, 2, 3), 2)])))
    wide = tmp_path / "wide.json"
    point = '{"coords": ["1", "2"], "multiplicity": 1}'
    wide.write_text(f'{{"ambient_dim": {big}, "points": [{point}]}}')
    over_cap = [
        ["hilbert", "--scheme", str(double), "--t", big],
        ["gen", "--n", big, "--mults", "2,1", "--config", "generic", "--seed", "0"],
        ["embed", "--scheme", str(double), "--target-dim", big],
        ["verify", "--scheme", str(double), "--target-dim", big],
    ]
    bad = [
        ["hilbert", "--scheme", str(double), "--t", negative],
        ["hilbert", "--scheme", str(double), "--tmax", negative],
        ["embed", "--scheme", str(double), "--target-dim", negative],
        ["verify", "--scheme", str(double), "--target-dim", negative],
        ["reg", "--scheme", str(wide)],
    ]
    for argv, code in [(argv, 3) for argv in over_cap] + [(argv, 1) for argv in bad]:
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert len(captured.err.encode("utf-8")) < 200, captured.err[:200]
        assert "-bit integer)" in captured.err, captured.err


def test_huge_degree_in_a_large_space_is_refused_at_once(tmp_path, capsys):
    # C(t + 500, 500) for a 4,000-digit t has millions of digits; the count
    # stops once it passes the cap and 2^64, and is named as a lower bound
    path = tmp_path / "simple.json"
    path.write_text(scheme_to_json(make_scheme(500, [((1,) + (0,) * 500, 1)])))
    started = time.perf_counter()
    assert main(["hilbert", "--scheme", str(path), "--t", "9" * 4000]) == 3
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "fatpoints: resource limit: degree (13288-bit integer) in P^500 needs at least "
        "(13288-bit integer) monomial columns (cap 20000)\n"
    )


def test_bad_point_values_are_named_by_position_and_type_or_length(tmp_path, capsys):
    # each bad value would print as a stderr line of 100 to 500 KB
    point = {"coords": ["1", "0"], "multiplicity": 1}
    docs = {
        "string": [{"coords": ["x" * 100_000, "1"], "multiplicity": 1}],
        "extra_key": [{"coords": ["1"] * 100_000, "multiplicity": 1, "extra": 1}],
        "list_multiplicity": [{"coords": ["1", "0"], "multiplicity": [1] * 100_000}],
    }
    expected = {
        "string": "points[1]: coordinate of 100000 characters",
        "extra_key": "points[1] needs exactly the keys",
        "list_multiplicity": "points[1] has a multiplicity of type list",
    }
    for name, bad in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"ambient_dim": 1, "points": [point] + bad}))
        assert main(["reg", "--scheme", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fatpoints: error: " + expected[name])
        assert captured.err.count("\n") == 1
        assert len(captured.err.encode("utf-8")) < 200, captured.err[:200]


def _one_short_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fatpoints: error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode("utf-8")) < 200, captured.err[:200]
    return captured.err


def test_bad_cap_and_multiplicity_lists_are_named_by_length(monkeypatch, triple_point_file, capsys):
    # each bad value would print as a stderr line of about 100 KB
    monkeypatch.setenv("FATPOINTS_COLUMN_CAP", "x" * 100_000)
    assert main(["reg", "--scheme", triple_point_file]) == 1
    assert "of 100000 characters" in _one_short_error_line(capsys)
    monkeypatch.delenv("FATPOINTS_COLUMN_CAP")
    for bad in ("1," + "x" * 100_000, "2," + "9" * 100_000):
        for argv in (
            ["rnc-formula", "--n", "2", "--mults", bad],
            ["gen", "--n", "2", "--mults", bad, "--config", "generic", "--seed", "0"],
        ):
            assert main(argv) == 1
            assert "multiplicity 1 (100000 characters)" in _one_short_error_line(capsys)
    # a negative multiplicity of 4,000 digits is read, then refused by position
    negative = "1,-" + "9" * 4000
    for argv in (
        ["rnc-formula", "--n", "2", "--mults", negative],
        ["gen", "--n", "2", "--mults", negative, "--config", "generic", "--seed", "0"],
    ):
        assert main(argv) == 1
        _one_short_error_line(capsys)


def test_bad_integer_options_are_named_by_length(triple_point_file, capsys):
    # argparse's own int conversion would echo the whole value: 100 KB of
    # stderr, or 5 KB for a number over the integer-string limit
    scheme = ["--scheme", triple_point_file]
    gen = ["gen", "--n", "2", "--mults", "1,1", "--config", "generic", "--seed", "0"]
    cases = [
        ("--t", ["hilbert", *scheme, "--t", "0"]),
        ("--tmax", ["hilbert", *scheme, "--tmax", "0"]),
        ("--target-dim", ["embed", *scheme, "--target-dim", "2"]),
        ("--target-dim", ["verify", *scheme, "--target-dim", "2"]),
        ("--n", ["rnc-formula", "--n", "2", "--mults", "2,2"]),
        ("--n", gen),
        ("--seed", gen),
    ]
    for option, argv in cases:
        assert main(argv) == 0, argv
        capsys.readouterr()
        for bad in ("x" * 100_000, "-" + "9" * 5_000):
            bad_argv = list(argv)
            bad_argv[bad_argv.index(option) + 1] = bad
            assert main(bad_argv) == 1, bad_argv[:2]
            captured = capsys.readouterr()
            assert captured.out == ""
            *usage, line = captured.err.splitlines()
            assert usage and all(row.startswith(("usage: ", " ")) for row in usage)
            message = f"a value of {len(bad)} characters is not an integer"
            assert line.endswith(f": error: argument {option}: {message}"), line[:200]
            assert len(line.encode("utf-8")) < 200
