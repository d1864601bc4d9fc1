"""The benchmark's workloads: input generation, one op, and output checks.

Every input comes from the workload seed.  Each workload cycles through a
fixed deck of scheme shapes; the seed, the cycle number and the position in
the deck choose the coordinates through ``gen_random``.  A fixed deck keeps
the amount of work in a run the same from seed to seed, while the seed
still changes every point, and with it the positions, degeneracies and
coefficient bit lengths the eliminations see.

Output checks need no stored reference, so any seed can be checked; for
``DEFAULT_SEED`` the first outputs are also compared with recorded digests
(``digests.json``), which checks the determinism contract.

This module imports ``fatpoints`` only inside the methods that need it, so
the worker can time the import.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"  # spans of the last traced run, and per-run scratch
DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
DIGEST_OPS = 12

FAMILIES = ("generic", "collinear", "rnc")
VERIFY_CHECKS = (
    "reg_invariance",
    "stable_range",
    "transfer",
    "cor46",
    "prop44",
    "restriction",
    "lemma23",
    "rnc",
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def coordinate_seed(seed: int, cycle: int, position: int) -> int:
    return random.Random(f"{seed}/{cycle}/{position}").getrandbits(48)


def multiplicity_formula(n: int, mults) -> int:
    """e = sum C(m_i + n - 1, n), computed here rather than by the program."""
    return sum(math.comb(m + n - 1, n) for m in mults)


def child_env() -> dict:
    """Environment that makes a child interpreter import the working tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Op:
    __slots__ = ("index", "kind", "scheme", "arg", "extra")

    def __init__(self, index, kind, scheme, arg, extra=None):
        self.index = index
        self.kind = kind
        self.scheme = scheme
        self.arg = arg
        self.extra = extra


class Workload:
    """Defaults for the workloads below; ``run`` is the timed op."""

    in_process = True

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace

    @staticmethod
    def encode(out) -> bytes:
        return out

    @staticmethod
    def keep(op: Op, out):
        """What ``final_check`` needs of an output; None keeps nothing."""
        return None

    def final_check(self, kept) -> dict[int, str]:
        """Checks over the ``(op, keep(op, out))`` pairs of the run, after
        the timed phase; failures by op index."""
        return {}


class VerifyCorpus(Workload):
    """One op: ``run_checks(scheme, target, ("all",))`` and ``report_to_json``
    on every report.

    The deck is drawn once, by the acceptance corpus's sampling rules
    (families in turn, n <= 3, s <= 5, m_i <= 3, targets n+1..n+3), except
    that every scheme keeps its multiplicities to a total of at most 7.  The
    corpus allows 9 or 10 in P^2 and P^3; the few schemes above 7 take up to
    2 s each, and their cost varies threefold with the coordinates, so a
    run would hold too few of them to give a steady figure.  Large
    eliminations are measured by ``hilbert-large`` instead.
    """

    name = "verify-corpus"
    tail_pct = 95
    deck_size = 60
    _deck_seed = 2310_10212
    _budget = 7

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        super().__init__(seed, workdir, trace)
        rng = random.Random(self._deck_seed)
        self.deck = []
        for k in range(self.deck_size):
            family = FAMILIES[k % 3]
            n = rng.choice((1, 2, 3))
            s = rng.randint(1 if family == "generic" else 2, 5)
            while True:
                mults = tuple(rng.randint(1, 3) for _ in range(s))
                if sum(mults) <= self._budget:
                    break
            self.deck.append((family, n, mults, rng.randint(n + 1, n + 3)))

    def describe(self) -> str:
        return (
            f"deck of {len(self.deck)} shapes (generic/collinear/rnc, n<=3, s<=5, "
            f"m_i<=3, sum m_i<={self._budget}, target<=n+3), fresh coordinates every cycle"
        )

    def cycle(self, c: int) -> list[Op]:
        from fatpoints.scheme import gen_random

        ops = []
        for k, (family, n, mults, target) in enumerate(self.deck):
            z = gen_random(
                n, len(mults), list(mults), config=family, seed=coordinate_seed(self.seed, c, k)
            )
            ops.append(Op(c * len(self.deck) + k, "verify", z, target))
        return ops

    def run(self, op: Op) -> bytes:
        from fatpoints.verify import report_to_json, run_checks

        reports = run_checks(op.scheme, op.arg, ("all",))
        return "\n".join(report_to_json(r) for r in reports).encode("utf-8")

    def check(self, op: Op, out: bytes) -> str | None:
        docs = [json.loads(line) for line in out.decode("utf-8").split("\n")]
        names = tuple(doc.get("check") for doc in docs)
        if names != VERIFY_CHECKS:
            return f"reports {names} instead of {VERIFY_CHECKS}"
        for doc in docs:
            if doc.get("pass") is not True and not doc.get("diagnostic"):
                return f"check {doc['check']} failed"
        return None


class HilbertLarge(Workload):
    """One op: ``hilbert_table`` of a larger scheme followed by
    ``hilbert_table`` of its padded image in P^(n+2); each cycle also
    computes H(0), H(1), H(2) of one 60-fold point of P^3, one op each, the
    only input where row construction dominates.

    The schemes sit at the small end of "larger": 5 or 6 triple points in
    P^2 and 4 or 5 in P^3, one of each family in P^2.  The cost of an
    exact rank grows with the coefficients' bit lengths, so one padded table
    costs from half to twice its average depending on the coordinates the
    seed draws; a steady figure needs dozens of them in a run.  Bigger
    schemes (multiplicity 4, 6 points on the rational normal curve of P^2,
    which takes 2-20 s) would leave a handful per run.
    """

    name = "hilbert-large"
    tail_pct = 80
    shapes = (
        ("generic", 2, (3, 3, 3, 3, 3, 3)),
        ("collinear", 2, (3, 3, 3, 3, 3)),
        ("rnc", 2, (3, 3, 3, 3, 3)),
        ("generic", 3, (3, 3, 3, 3, 3)),
        ("collinear", 3, (3, 3, 3, 3)),
    )
    fat_mult = 60
    deck_size = len(shapes) + 3

    def describe(self) -> str:
        return (
            f"{len(self.shapes)} schemes, each with its image in P^(n+2), per cycle "
            f"(P^2: 5-6 triple points; P^3: 4-5 triple points) plus H(0..2) of a "
            f"{self.fat_mult}-fold point of P^3"
        )

    def cycle(self, c: int) -> list[Op]:
        from fatpoints.scheme import embed, gen_random, make_scheme

        rng = random.Random(coordinate_seed(self.seed, c, len(self.shapes)))
        fat = make_scheme(
            3, [((1, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)), self.fat_mult)]
        )
        ops = []
        for k, (family, n, mults) in enumerate(self.shapes):
            z = gen_random(
                n, len(mults), list(mults), config=family, seed=coordinate_seed(self.seed, c, k)
            )
            ops.append(Op(0, "pair", z, embed(z, n + 2), mults))
            if k % 2 == 1:  # spread the three fat-point ops through the cycle
                ops.append(Op(0, "fat", fat, k // 2))
        ops.append(Op(0, "fat", fat, 2))
        for k, op in enumerate(ops):
            op.index = c * self.deck_size + k
        return ops

    def run(self, op: Op):
        from fatpoints.hilbert import hilbert_function, hilbert_table

        if op.kind == "fat":
            return hilbert_function(op.scheme, op.arg)
        return hilbert_table(op.scheme), hilbert_table(op.arg)

    @staticmethod
    def encode(out) -> bytes:
        if isinstance(out, int):
            return str(out).encode()
        return json.dumps([[list(t.values), t.reg, t.multiplicity] for t in out]).encode()

    def check(self, op: Op, out) -> str | None:
        if op.kind == "fat":
            expected = math.comb(op.arg + 3, 3)  # t < m: every form of degree t is cut out
            return None if out == expected else f"H({op.arg}) = {out}, expected {expected}"
        for scheme, table in zip((op.scheme, op.arg), out):
            values = table.values
            e = multiplicity_formula(scheme.ambient_dim, op.extra)
            if not all(a < b for a, b in zip(values, values[1:])):
                return f"Hilbert values {values} are not strictly increasing"
            if values[-1] != e or table.multiplicity != e:
                return f"Hilbert values end at {values[-1]}, multiplicity is {e}"
            if table.reg != len(values) - 1:
                return f"reg {table.reg} does not index the last value of {values}"
        if out[0].reg != out[1].reg:
            return f"padded reg {out[1].reg} != source reg {out[0].reg}"
        return None


class CliVerify(Workload):
    """One op: ``python -m fatpoints.cli verify --format json`` as a child
    process, on a fixed seeded set of small schemes written as JSON files.

    The schemes are small enough that interpreter start-up and import make
    up most of each op, so work moved into import time or cache set-up shows
    here even when it pays off in the other two workloads.
    """

    name = "cli-verify"
    tail_pct = 90
    in_process = False
    shapes = (
        ("generic", 2, (2, 1, 1, 1), 3),
        ("collinear", 2, (2, 2, 1), 4),
        ("rnc", 2, (1, 2, 1), 3),
        ("generic", 1, (2, 1, 1), 2),
        ("rnc", 3, (1, 1, 1, 1), 4),
        ("generic", 3, (2, 1, 1), 4),
        ("collinear", 1, (1, 2, 1, 1), 3),
        ("generic", 2, (1, 1, 1, 1), 4),
    )
    deck_size = len(shapes)
    timeout_s = 60

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        super().__init__(seed, workdir, trace)
        self._files = None
        self.child_spans: list[Path] = []
        self.process_s: list[float] = []

    def describe(self) -> str:
        return f"{len(self.shapes)} small schemes (n<=3, m_i<=2), one child process per op"

    def cycle(self, c: int) -> list[Op]:
        from fatpoints.scheme import gen_random, scheme_to_json

        if self._files is None:
            self._files = []
            for k, (family, n, mults, target) in enumerate(self.shapes):
                z = gen_random(
                    n, len(mults), list(mults), config=family,
                    seed=coordinate_seed(self.seed, 0, k),
                )
                path = self.workdir / f"scheme-{k}.json"
                path.write_text(scheme_to_json(z), encoding="utf-8")
                self._files.append((z, target, path))
        base = c * self.deck_size
        return [
            Op(base + k, "cli", z, target, path) for k, (z, target, path) in enumerate(self._files)
        ]

    def argv(self, op: Op) -> list[str]:
        return [
            "verify", "--scheme", str(op.extra), "--target-dim", str(op.arg), "--format", "json",
        ]

    def run(self, op: Op):
        if not self.trace:
            cmd = [sys.executable, "-m", "fatpoints.cli"] + self.argv(op)
        else:
            spans = self.workdir / f"cli-{op.index}.json"
            self.child_spans.append(spans)
            cmd = [sys.executable, str(HERE / "cli_boot.py"), str(spans), str(op.index)]
            cmd += self.argv(op)
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
        )
        try:
            out, err = proc.communicate(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        self.process_s.append(time.perf_counter() - started)
        return proc.returncode, out, err

    @staticmethod
    def encode(out) -> bytes:
        return out[1]

    @staticmethod
    def keep(op: Op, out):
        return out[1]

    def check(self, op: Op, out) -> str | None:
        code, _, err = out
        if code != 0:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            return f"exit code {code}: {tail[0]}"
        return None

    def final_check(self, kept) -> dict[int, str]:
        """Compare each child's stdout with the in-process report lines."""
        from fatpoints.verify import report_to_json, run_checks

        expected = {}
        bad = {}
        for op, stdout in kept:
            key = str(op.extra)
            if key not in expected:
                lines = [report_to_json(r) for r in run_checks(op.scheme, op.arg, ("all",))]
                expected[key] = ("\n".join(lines) + "\n").encode("utf-8")
            if stdout != expected[key]:
                bad[op.index] = "stdout differs from the in-process report_to_json lines"
        return bad

    def merge_child_traces(self, spans_path: Path) -> dict:
        """Sum the traced children's spans, counters and cache counts."""
        from tracer import merge_summaries, summarize

        summary: dict = {}
        counters: dict = {}
        maxima: dict = {}
        absent: set = set()
        cache = {"hits": 0, "misses": 0, "entries": 0}
        cli = {"process_s": sum(self.process_s), "import_s": 0.0, "main_s": 0.0}
        spans: list = []
        for path in self.child_spans:
            if not path.exists():  # the child failed early; its op already counts as failed
                continue
            doc = json.loads(path.read_text(encoding="utf-8"))
            merge_summaries(summary, summarize(doc["spans"]))
            offset = len(spans)
            spans.extend(
                [n, a, b, p + offset if p >= 0 else -1, op] for n, a, b, p, op in doc["spans"]
            )
            for key, value in doc["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for key, value in doc["maxima"].items():
                maxima[key] = max(maxima.get(key, 0), value)
            absent.update(doc["absent"])
            if doc["cache"] is None:
                absent.add("hilbert.rank_cache")
            else:
                cache["hits"] += doc["cache"]["hits"]
                cache["misses"] += doc["cache"]["misses"]
                cache["entries"] = max(cache["entries"], doc["cache"]["entries"])
            cli["import_s"] += doc["import_s"]
            cli["main_s"] += doc["main_s"]
        spans_path.write_text(
            json.dumps({"workload": self.name, "seed": self.seed, "spans": spans}),
            encoding="utf-8",
        )
        return {
            "summary": summary,
            "counters": counters,
            "maxima": maxima,
            "absent": sorted(absent),
            "cache": cache,
            "cli": cli,
            "spans_file": str(spans_path),
        }


WORKLOADS = {w.name: w for w in (VerifyCorpus, HilbertLarge, CliVerify)}
