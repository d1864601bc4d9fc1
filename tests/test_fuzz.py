"""Seeded fuzz test of the JSON loaders and the command line.

Scheme files are drawn at random: valid schemes, wrong types, missing and
extra keys, malformed and deeply nested JSON, non-UTF-8 bytes, integers
over the interpreter's integer-string limit, empty and degenerate schemes
and huge multiplicities.  Each one goes through every subcommand, with
degrees, column caps and targets up to 10^9.  Every run must end with a
documented exit code (0, 1, 2 or 3) and at most one line on stderr, and
nothing may escape ``cli.main``: an exception there is the traceback a user
would see.  One child process checks the same for the module entry point.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fatpoints.cli import main

FILES = 60
# per seed, the budgets of one run and of all runs, in seconds; seed 18
# draws a 10^100-fold point of P^40 and asks for its H(3)
SEEDS = [(4, 2.0, 5.0), (18, 2.0, 6.0)]

# written out, over the default limit of 4300 digits
HUGE_LITERAL = "1" + "0" * 5000
JUNK = [None, True, 1.5, "x", "", "1/0", "3/-4", "1e5", " 1", [], {}, [1, [2]], {"a": 1}]


def _coordinate(rng):
    roll = rng.random()
    if roll < 0.6:
        return str(rng.randint(-5, 5))
    if roll < 0.8:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if roll < 0.9:
        return str(rng.randint(-(10**40), 10**40))
    if roll < 0.97:
        return rng.randint(-3, 3)
    return rng.choice(JUNK)


def _multiplicity(rng):
    roll = rng.random()
    if roll < 0.8:
        return rng.choice((1, 1, 2))
    if roll < 0.95:
        return rng.choice((10**6, 10**18, 10**100))
    return rng.choice([0, -1] + JUNK)


def _scheme_text(rng, n: int) -> bytes:
    """A scheme file meant for P^n, valid or broken in one of many ways."""
    points = [
        {
            "coords": [_coordinate(rng) for _ in range(n + 1 + rng.choice((0,) * 12 + (1, -1)))],
            "multiplicity": _multiplicity(rng),
        }
        for _ in range(rng.choice((0, 1, 1, 2, 3)))
    ]
    doc = {"ambient_dim": rng.choice((n,) * 16 + (0, -1, 10**9, "2", None)), "points": points}
    roll = rng.random()
    if roll < 0.03:
        del doc[rng.choice(("ambient_dim", "points"))]
    elif roll < 0.06 and points:
        points[0]["extra"] = 1
    elif roll < 0.09:
        doc["points"] = rng.choice(JUNK)
    elif roll < 0.12:
        doc = rng.choice(JUNK)
    text = json.dumps(doc)
    roll = rng.random()
    if roll < 0.03:
        text = text[: rng.randrange(len(text) + 1)]
    elif roll < 0.06:
        text = "[" * 100_000 + text + "]" * 100_000
    elif roll < 0.09 and points:
        first = json.dumps(points[0]["multiplicity"])
        text = text.replace(f'"multiplicity": {first}', f'"multiplicity": {HUGE_LITERAL}', 1)
    elif roll < 0.11:
        return b"\xff\xfe" + text.encode("utf-8")
    return text.encode("utf-8")


def _checks(rng):
    names = ["reg", "stable", "transfer", "cor46", "prop44", "restriction", "lemma23", "rnc"]
    roll = rng.random()
    if roll < 0.3:
        return []
    if roll < 0.4:
        return ["--checks", "all"]
    return ["--checks", ",".join(rng.sample(names, rng.randint(1, 3)))]


def _commands(rng, path: str, n: int):
    """Argument lists that parse, for every subcommand on one scheme file."""
    target = rng.choice((-5, n - 1, n, n + 1, n + 1, n + 2, n + 3, 10**6, 10**9))
    verify = ["verify", "--scheme", path, "--target-dim", str(target)] + _checks(rng)
    if rng.random() < 0.5:
        verify += ["--format", "json", "--prop44-diagnostic"]
    mults = ",".join(str(rng.choice((1, 2, 3, 10**6, 10**100, 0, -2))) for _ in range(rng.randint(1, 4)))
    return [
        verify,
        ["hilbert", "--scheme", path, "--t", str(rng.choice((-1, 0, 1, 3, 10**9)))],
        ["hilbert", "--scheme", path, "--tmax", str(rng.choice((-1, 0, 4))), "--format", "json"],
        ["reg", "--scheme", path],
        ["multiplicity", "--scheme", path],
        ["embed", "--scheme", path, "--target-dim", str(rng.choice((-1, 0, 1, 2, 5)))],
        ["rnc-formula", "--n", str(rng.choice((-1, 0, 1, 2, 10**9))), f"--mults={mults}"],
        ["gen", "--n", str(rng.choice((-1, 0, 1, 3))), f"--mults={mults}",
         "--config", rng.choice(("generic", "collinear", "rnc")), "--seed", str(rng.randint(0, 9))],
    ]


@pytest.mark.parametrize("seed, run_seconds, total_seconds", SEEDS, ids=[f"seed{s[0]}" for s in SEEDS])
def test_fuzzed_inputs_end_in_a_documented_exit_code(
    monkeypatch, tmp_path, capsys, seed, run_seconds, total_seconds
):
    rng = random.Random(seed)
    started = time.perf_counter()
    seen = set()
    for k in range(FILES):
        n = rng.choice((1, 1, 2, 2, 3, 40))
        path = tmp_path / f"s{k}.json"
        path.write_bytes(_scheme_text(rng, n))
        cap = rng.choice((None, None, "1", "2", "30", "500"))
        if cap is None:
            monkeypatch.delenv("FATPOINTS_COLUMN_CAP", raising=False)
        else:
            monkeypatch.setenv("FATPOINTS_COLUMN_CAP", cap)
        for argv in _commands(rng, str(path), n):
            run_started = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - run_started
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), argv
            assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
            assert (err == "") == (code in (0, 2)), (argv, code, err)
            assert elapsed < run_seconds, (argv, elapsed)
            seen.add(code)
    assert seen >= {0, 1, 3}
    assert time.perf_counter() - started < total_seconds


def test_module_entry_point_prints_no_traceback(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "fatpoints.cli", "verify", "--scheme", str(path), "--target-dim", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("fatpoints: error: ") and done.stderr.count("\n") == 1
