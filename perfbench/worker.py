"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script for every measurement, because the Hilbert
layer's module-level caches live as long as the process: a second pass in
the same interpreter would measure cache hits.

    worker.py setup --workload W --seed S --workdir DIR
        import fatpoints and build the first cycle of inputs; print the
        two times as JSON.
    worker.py run --workload W --seed S --workdir DIR --out FILE
            [--seconds R] [--max-ops N] [--trace]
        the same set-up, then ops until R seconds or N ops, then the output
        checks; write latencies, failures and (traced) spans to FILE.

Before every op the rank cache is emptied, so each op starts cold, as one
CLI call does, and the process's memory does not depend on how many ops fit
into the run.  Its hits and misses are read, per op, from outside the
program in the traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracer import OP, TARGETS, Tracer, rank_cache, summarize
from workloads import DEFAULT_SEED, DIGEST_OPS, DIGESTS, OUT_DIR, ROOT, WORKLOADS, digest

perf = time.perf_counter


def import_program() -> float:
    """Import the working tree's package, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = perf()
    import fatpoints

    elapsed = perf() - started
    if Path(fatpoints.__file__).resolve().parent != (src / "fatpoints").resolve():
        raise SystemExit(f"fatpoints imported from {fatpoints.__file__}, not from {src}")
    return elapsed


def setup(args) -> tuple[float, float, object, list]:
    import_s = import_program()
    started = perf()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir), args.trace)
    ops = workload.cycle(0)
    return import_s, perf() - started, workload, ops


def measure(args) -> dict:
    import_s, gen_s, workload, ops = setup(args)
    cache = rank_cache(sys.modules.get("fatpoints.hilbert"))
    tracer = None
    cold = None
    if args.trace and workload.in_process:
        tracer = Tracer()
        tracer.install(TARGETS)
    if cache is not None:
        info = cache.cache_info()
        cold = info.hits == 0 and info.misses == 0 and info.currsize == 0
    stored = []
    if args.seed == DEFAULT_SEED and DIGESTS.exists():
        stored = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, [])

    deadline = perf() + args.seconds if args.seconds else float("inf")
    latencies: list[float] = []
    digests: list[str] = []
    failures: dict[int, str] = {}
    kept: list = []  # (op, what final_check needs), only for workloads that keep something
    counts = {"hits": 0, "misses": 0, "entries": 0}
    cycle = position = 0
    while len(latencies) < args.max_ops:
        if latencies and perf() >= deadline:
            break
        if position == len(ops):
            cycle += 1
            position = 0
            ops = workload.cycle(cycle)
        op = ops[position]
        position += 1
        if cache is not None:
            cache.cache_clear()
        if tracer is not None:
            tracer.op = op.index
            span = tracer.begin(OP)
        started = perf()
        try:
            out = workload.run(op)
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(perf() - started)
            if tracer is not None:
                tracer.end(span)
            failures[op.index] = f"raised {type(exc).__name__}: {exc}"
            if len(digests) < DIGEST_OPS:
                digests.append("")
            continue
        latencies.append(perf() - started)
        if tracer is not None:
            tracer.end(span)
            if cache is not None:
                info = cache.cache_info()
                counts["hits"] += info.hits
                counts["misses"] += info.misses
                counts["entries"] = max(counts["entries"], info.currsize)
        reason = workload.check(op, out)
        if reason is not None:
            failures[op.index] = reason
        if len(digests) < DIGEST_OPS:
            digests.append(digest(workload.encode(out)))
        item = workload.keep(op, out)
        if item is not None:
            kept.append((op, item))

    failures.update(workload.final_check(kept))
    for i, (want, got) in enumerate(zip(stored, digests)):
        if want != got and i not in failures:
            failures[i] = f"output digest {got} differs from the recorded {want}"

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "import_s": import_s,
        "gen_s": gen_s,
        "latencies": latencies,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "digests": digests,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "cache_cold_at_start": cold,
        "input": workload.describe(),
    }
    if args.trace:
        result["trace"] = collect_trace(workload, tracer, cache, counts)
    return result


def collect_trace(workload, tracer, cache, counts) -> dict:
    """Per-span-name sums, counters and the spans file of this run."""
    spans_path = OUT_DIR / f"spans-{workload.name}.json"
    if tracer is not None:
        tracer.dump(str(spans_path), {"workload": workload.name, "seed": workload.seed})
        return {
            "summary": summarize(tracer.spans),
            "counters": tracer.counters,
            "maxima": tracer.maxima,
            "absent": tracer.absent + ([] if cache is not None else ["hilbert.rank_cache"]),
            "cache": counts,
            "spans_file": str(spans_path),
        }
    return workload.merge_child_traces(spans_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=sys.maxsize)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        import_s, gen_s, _, _ = setup(args)
        print(json.dumps({"import_s": import_s, "gen_s": gen_s}))
        return 0
    result = measure(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
