"""Tests of the benchmark itself (not of fatpoints).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run every workload for one second, so the whole file takes well under
a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import run
import tracer
import worker
from workloads import ROOT, WORKLOADS, CliVerify, HilbertLarge, VerifyCorpus

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class MetricsArePrinted(unittest.TestCase):
    def check(self, trace: int, section: str) -> None:
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                text, result = bench(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], text)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(declared))
                for name, unit in declared.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertIsInstance(result["metrics"][name]["value"], (int, float))
                    self.assertTrue(
                        any(line.split()[:1] == [name] and unit in line.split() for line in text),
                        f"{name} with unit {unit} missing from the report",
                    )
                self.assertTrue(any(line.split()[:1] == ["ops_failed_frac"] for line in text))

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_benchmark_json_workloads_exist(self):
        listed = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(set(WORKLOADS) - set(listed), {"hilbert-large"})


class CorruptedOutputsFail(unittest.TestCase):
    """Each workload's checks catch a wrong output without a stored reference."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self.tmp.name)
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))

    def tearDown(self):
        self.tmp.cleanup()

    def test_worker_counts_corrupted_verify_output(self):
        real = VerifyCorpus.run

        def corrupted(self, op):
            out = real(self, op)
            return out.replace(b'"pass": true', b'"pass": false', 1) if op.index == 1 else out

        args = SimpleNamespace(
            workload="verify-corpus", seed=3, workdir=str(self.workdir), seconds=0.0,
            max_ops=4, trace=False, out=None,
        )
        VerifyCorpus.run = corrupted
        try:
            result = worker.measure(args)
        finally:
            VerifyCorpus.run = real
        self.assertEqual(list(result["failures"]), ["1"])
        attempted, failures = run.tally([result])
        self.assertEqual(attempted, 4)
        self.assertGreater(len(failures) / attempted, 0)

    def test_hilbert_checks(self):
        from fatpoints.hilbert import HilbertTable

        wl = HilbertLarge(3, self.workdir)
        ops = wl.cycle(0)
        pair = ops[0]
        source, padded = wl.run(pair)
        self.assertIsNone(wl.check(pair, (source, padded)))
        wrong_end = HilbertTable(
            source.values[:-1] + (source.values[-1] + 1,), source.reg, source.multiplicity
        )
        self.assertIsNotNone(wl.check(pair, (wrong_end, padded)))
        wrong_reg = HilbertTable(padded.values + (padded.values[-1] + 1,), padded.reg + 1, 0)
        self.assertIsNotNone(wl.check(pair, (source, wrong_reg)))
        fat = next(op for op in ops if op.kind == "fat")
        self.assertIsNotNone(wl.check(fat, 0))

    def test_cli_stdout_compared_byte_for_byte(self):
        wl = CliVerify(3, self.workdir)
        ops = wl.cycle(0)[:1]
        from fatpoints.verify import report_to_json, run_checks

        lines = [report_to_json(r) for r in run_checks(ops[0].scheme, ops[0].arg, ("all",))]
        good = ("\n".join(lines) + "\n").encode()
        self.assertEqual(wl.final_check([(ops[0], good)]), {})
        self.assertEqual(len(wl.final_check([(ops[0], good.replace(b"true", b"false", 1))])), 1)
        self.assertIsNotNone(wl.check(ops[0], (1, b"", b"fatpoints: error: boom\n")))


class TracerPatching(unittest.TestCase):
    def test_from_imports_are_patched_and_missing_names_are_absent(self):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import fatpoints.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for k, m in sys.modules.items() if k.startswith("fatpoints")]
        saved = [(m, dict(m.__dict__)) for m in modules]
        t = tracer.Tracer()
        try:
            t.install(tracer.TARGETS + [("fatpoints.hilbert", "_gone", "hilbert.gone", None, None)])
            from fatpoints import exactlinalg, hilbert, verify
            from fatpoints.scheme import make_scheme

            for mod in (exactlinalg, hilbert, verify):
                self.assertTrue(hasattr(mod._rank_of_int_rows, "__wrapped__"), mod.__name__)
            self.assertEqual(t.absent, ["hilbert.gone"])
            z = make_scheme(2, [((1, 0, 0), 2), ((0, 1, Fraction(1, 2)), 1)])
            verify.check_restriction_range(z, 3)
        finally:
            for mod, contents in saved:
                mod.__dict__.update(contents)
        summary = tracer.summarize(t.spans)
        for name in ("verify.restriction", "exactlinalg.nullspace", "exactlinalg.rank", "hilbert.rows"):
            self.assertGreater(summary[name]["calls"], 0, name)
        restriction = summary["verify.restriction"]
        self.assertLess(restriction["self"], restriction["total"])


if __name__ == "__main__":
    unittest.main()
