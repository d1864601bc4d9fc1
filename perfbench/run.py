"""Benchmark of the fatpoints working tree: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package under test is always ``src/`` of the checkout
this file sits in.  Every measurement runs in fresh interpreters
(``worker.py``): one worker runs ops for S seconds and checks every
output, and sixteen set-ups, half before it and half after, give the median
``setup_s``.

With ``--trace 0`` the last line of stdout is the result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics instead.  The
traced run first times the workload's first cycle of ops untraced, then
replays exactly those ops with every layer wrapped, so its counts repeat
for a seed and ``trace.overhead_frac`` compares like with like.  The lines
before the result are for people: every metric with its unit, the
machine, the op failures, and for a traced run the measured time shares
against the shares predicted in ``perfbench/README.md``.

Exits with 2, printing no result, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import CHECKS
from workloads import OUT_DIR, ROOT, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 8  # before the timed phase, and as many again after it
CHILD_SLACK_S = 120  # on top of the measured seconds, before a worker is killed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """HEAD of the checkout, read without running git; the benchmark may
    also run in an exported tree that has no ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
    }


def run_child(args: list[str], timeout: float) -> str:
    """Run a Python child; on timeout, kill it together with its own children."""
    proc = subprocess.Popen(
        [sys.executable] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}: {err.strip()}")
    return out


def worker(mode: str, opts: dict, workdir: Path, timeout: float) -> dict:
    args = [str(HERE / "worker.py"), mode, "--workdir", str(workdir)]
    for key, value in opts.items():
        if value is True:
            args.append(f"--{key}")
        elif value is not None:
            args += [f"--{key}", str(value)]
    if mode == "setup":
        return json.loads(run_child(args, timeout))
    out = workdir / f"result-{len(list(workdir.glob('result-*')))}.json"
    run_child(args + ["--out", str(out)], timeout)
    return json.loads(out.read_text(encoding="utf-8"))


def tally(results: list[dict]) -> tuple[int, list[tuple[str, str]]]:
    """Ops attempted over all worker runs, and every failed op with its reason."""
    attempted = sum(len(r["latencies"]) for r in results)
    failures = [item for r in results for item in r["failures"].items()]
    return attempted, failures


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(setups: list[float], result: dict, tail_pct: int) -> tuple[dict, dict]:
    lat = sorted(result["latencies"])
    beyond = len(lat) - max(1, math.ceil(tail_pct / 100 * len(lat)))
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": percentile(lat, tail_pct) * 1000,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_s": "ops / summed op time",
        "op_p50_ms": f"{len(lat)} samples",
        "op_tail_ms": f"p{tail_pct}, {len(lat)} samples, {beyond} beyond it",
        "peak_rss_mb": "largest child" if result["workload"] == "cli-verify" else "worker process",
    }
    return values, notes


# name -> (unit, span or source the value needs, how to compute it)
def _span(name, field):
    return lambda t: t["summary"].get(name, {}).get(field, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


_CACHE = lambda key: lambda t: t["cache"][key]  # noqa: E731
_COUNTER = lambda key: lambda t: t["counters"].get(key, 0)  # noqa: E731
_CLI = lambda key: lambda t: (t.get("cli") or {}).get(key, 0.0)  # noqa: E731

PER_LAYER = {
    "exactlinalg.rank_calls": ("count", "exactlinalg.rank", _span("exactlinalg.rank", "calls")),
    "exactlinalg.rank_s": ("s", "exactlinalg.rank", _span("exactlinalg.rank", "total")),
    "exactlinalg.rank_max_call_s": ("s", "exactlinalg.rank", _span("exactlinalg.rank", "max")),
    "exactlinalg.rank_cells": ("count", "exactlinalg.rank", _COUNTER("rank_cells")),
    "exactlinalg.rank_nnz": ("count", "exactlinalg.rank", _COUNTER("rank_nnz")),
    "exactlinalg.rank_max_bits": (
        "bits", "exactlinalg.rank", lambda t: t["maxima"].get("rank_max_bits", 0)
    ),
    "exactlinalg.nullspace_calls": (
        "count", "exactlinalg.nullspace", _span("exactlinalg.nullspace", "calls")
    ),
    "exactlinalg.nullspace_s": ("s", "exactlinalg.nullspace", _span("exactlinalg.nullspace", "total")),
    "exactlinalg.nullspace_vectors": (
        "count", "exactlinalg.nullspace", _COUNTER("nullspace_vectors")
    ),
    "verify.restriction_self_s": ("s", "verify.restriction", _span("verify.restriction", "self")),
    "hilbert.h_calls": ("count", "hilbert.h", _span("hilbert.h", "calls")),
    "hilbert.h_self_s": ("s", "hilbert.h", _span("hilbert.h", "self")),
    "hilbert.rank_cache_hits": ("count", "hilbert.rank_cache", _CACHE("hits")),
    "hilbert.rank_cache_misses": ("count", "hilbert.rank_cache", _CACHE("misses")),
    "hilbert.rank_cache_hit_ratio": (
        "ratio", "hilbert.rank_cache",
        _ratio(_CACHE("hits"), lambda t: t["cache"]["hits"] + t["cache"]["misses"]),
    ),
    "hilbert.rank_cache_entries": ("count", "hilbert.rank_cache", _CACHE("entries")),
    "hilbert.rows_s": ("s", "hilbert.rows", _span("hilbert.rows", "total")),
    "hilbert.rows_built": ("count", "hilbert.rows", _COUNTER("rows_built")),
    "hilbert.rows_nonempty_ratio": (
        "ratio", "hilbert.rows", _ratio(_COUNTER("rows_nonempty"), _COUNTER("rows_built"))
    ),
    "scheme.embed_calls": ("count", "scheme.embed", _span("scheme.embed", "calls")),
    "scheme.truncate_calls": ("count", "scheme.truncate", _span("scheme.truncate", "calls")),
    "scheme.fingerprint_calls": (
        "count", "scheme.fingerprint", _span("scheme.fingerprint", "calls")
    ),
    "scheme.fingerprint_s": ("s", "scheme.fingerprint", _span("scheme.fingerprint", "total")),
    "scheme.parse_s": ("s", "scheme.parse", _span("scheme.parse", "total")),
    **{
        f"verify.{check}_self_s": ("s", f"verify.{check}", _span(f"verify.{check}", "self"))
        for check in CHECKS
    },
    "verify.json_s": ("s", "verify.json", _span("verify.json", "total")),
    "verify.json_bytes": ("bytes", "verify.json", _COUNTER("json_bytes")),
    "cli.process_s": ("s", None, _CLI("process_s")),
    "cli.import_s": ("s", None, _CLI("import_s")),
    "cli.main_s": ("s", None, _CLI("main_s")),
    "cli.startup_s": (
        "s", None, lambda t: _CLI("process_s")(t) - _CLI("import_s")(t) - _CLI("main_s")(t)
    ),
}


def op_time(trace: dict) -> float:
    """Traced time of the ops, without the tracer's own counting."""
    if trace.get("cli"):
        return trace["cli"]["process_s"]
    return _span("op", "total")(trace) - _span("trace.hook", "total")(trace)


def per_layer(trace: dict, untraced_s: float) -> tuple[dict, list[str]]:
    absent = set(trace["absent"])
    values = {}
    missing = []
    for name, (unit, source, compute) in PER_LAYER.items():
        if source in absent:
            missing.append(name)
            values[name] = 0
        else:
            values[name] = compute(trace)
    traced_s = trace["cli"]["process_s"] if trace.get("cli") else _span("op", "total")(trace)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    return values, missing


def shares(workload: str, trace: dict) -> tuple[dict, str, bool]:
    """Time shares of the traced ops by layer, and the prediction they test."""
    s = lambda name: _span(name, "self")(trace)  # noqa: E731
    if workload == "cli-verify":
        cli = trace["cli"]
        fractions = {
            "startup+import": 1 - cli["main_s"] / cli["process_s"],
            "main": cli["main_s"] / cli["process_s"],
        }
        return (
            fractions,
            "startup plus import hold the majority of the child's time",
            fractions["startup+import"] > 0.5,
        )
    total = op_time(trace)
    parts = {
        "restriction+nullspace": s("verify.restriction") + s("exactlinalg.nullspace"),
        "rank": s("exactlinalg.rank"),
        "rows": s("hilbert.rows"),
        "hilbert_self": s("hilbert.h"),
        "other_checks": sum(s(f"verify.{c}") for c in CHECKS),
        "scheme": s("scheme.embed") + s("scheme.truncate") + s("scheme.fingerprint"),
        "json": s("verify.json"),
        "unattributed": s("op"),
    }
    fractions = {k: v / total for k, v in parts.items()} if total else parts
    if workload == "verify-corpus":
        largest = max(fractions, key=fractions.get)
        return fractions, "restriction self time plus nullspace is the largest share", (
            largest == "restriction+nullspace"
        )
    return fractions, "exactlinalg.rank_s holds the majority", fractions["rank"] > 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fatpoints" / "__init__.py").is_file():
        print(f"perfbench: no fatpoints package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        return measure_and_report(args, cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, cls, workdir: Path) -> int:
    # compiles the bytecode once, so no set-up sample pays for it
    where = run_child(["-c", "import fatpoints.cli; print(fatpoints.cli.__file__)"], 60).strip()
    if Path(where).resolve().parent != (ROOT / "src" / "fatpoints").resolve():
        print(f"perfbench: child imports fatpoints from {where}", file=sys.stderr)
        return 2
    base = {"workload": args.workload, "seed": args.seed}

    def setup_samples() -> list[float]:
        samples = (worker("setup", base, workdir, 60) for _ in range(SETUP_SAMPLES))
        return [s["import_s"] + s["gen_s"] for s in samples]

    setups = setup_samples()

    timeout = args.seconds + CHILD_SLACK_S
    if args.trace:
        plain = worker(
            "run", {**base, "seconds": args.seconds, "max-ops": cls.deck_size}, workdir, timeout
        )
        traced = worker(
            "run", {**base, "max-ops": len(plain["latencies"]), "trace": True}, workdir, timeout
        )
        results = [plain, traced]
    else:
        results = [worker("run", {**base, "seconds": args.seconds}, workdir, timeout)]
    setups += setup_samples()

    attempted, failures = tally(results)
    cold = all(r["cache_cold_at_start"] is not False for r in results)
    head = results[0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"input: {head['input']}")
    e2e, notes = end_to_end(setups, head, cls.tail_pct)
    for name, value in e2e.items():
        print(f"  {name:<16} {value:>12.4f} {END_TO_END_UNITS[name]:<4} ({notes[name]})")
    print(
        f"  {'ops_failed_frac':<16} {len(failures) / attempted:>12.4f} ratio "
        f"({len(failures)} of {attempted} ops)"
    )
    for index, reason in failures[:20]:
        print(f"  FAILED op {index}: {reason}")
    if not cold:
        print("  FAILED: the rank cache was not empty when the run started")

    if args.trace:
        trace = traced["trace"]
        untraced_s = sum(plain["latencies"])
        metrics, missing = per_layer(trace, untraced_s)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units["trace.overhead_frac"] = "ratio"
        print(f"per-layer, {len(traced['latencies'])} traced ops (spans: {trace['spans_file']}):")
        for name, value in metrics.items():
            mark = "  ABSENT" if name in missing else ""
            print(f"  {name:<32} {value:>14.6g} {units[name]}{mark}")
        cache = trace["cache"]
        print(
            f"  rank cache empty at start: {cold}; hits {cache['hits']}, misses {cache['misses']}"
            " (identical on every run with this seed when runs start cold)"
        )
        parts, claim, holds = shares(args.workload, trace)
        print("shares of traced op time: " + ", ".join(f"{k} {v:.3f}" for k, v in parts.items()))
        print(f"prediction: {claim}: {'holds' if holds else 'MISMATCH'}")
        out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(
        json.dumps(
            {
                "correct": not failures and cold,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
