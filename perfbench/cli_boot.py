"""Traced ``fatpoints verify`` in a child process.

    cli_boot.py SPANS_FILE OP_ID verify --scheme ... (the CLI's arguments)

Times the import of ``fatpoints.cli``, installs the tracer's wrappers, calls
``fatpoints.cli.main`` with the CLI's arguments and writes the spans, the two
times and the rank cache's counts to SPANS_FILE for the parent to merge.
The parent runs it with ``PYTHONPATH`` set to the working tree's ``src``.
"""

import sys
import time
from pathlib import Path

from tracer import OP, TARGETS, Tracer, rank_cache

perf = time.perf_counter


def main() -> int:
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    started = perf()
    import fatpoints.cli

    import_s = perf() - started
    src = Path(__file__).resolve().parent.parent / "src" / "fatpoints"
    if Path(fatpoints.cli.__file__).resolve().parent != src:
        print(f"fatpoints imported from {fatpoints.cli.__file__}", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.op = op
    tracer.install(TARGETS)
    span = tracer.begin(OP)
    started = perf()
    code = fatpoints.cli.main(argv)
    main_s = perf() - started
    tracer.end(span)
    sys.stdout.flush()
    cache = rank_cache(sys.modules.get("fatpoints.hilbert"))
    info = cache.cache_info() if cache is not None else None
    tracer.dump(
        spans_path,
        {
            "import_s": import_s,
            "main_s": main_s,
            "cache": None if info is None else {
                "hits": info.hits, "misses": info.misses, "entries": info.currsize
            },
        },
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
