"""Record the output digests of the first ops for the default seed.

    python3 perfbench/record_digests.py

Writes ``digests.json``, which every run with ``--seed 0`` compares its
first outputs against.  The package promises byte-identical output for the
same arguments and seed, so this needs re-running only when a change is
meant to alter what the program prints.
"""

import json
import shutil
import tempfile
from pathlib import Path

from run import worker
from workloads import DEFAULT_SEED, DIGEST_OPS, DIGESTS, OUT_DIR, WORKLOADS


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        recorded = {}
        for name in WORKLOADS:
            opts = {"workload": name, "seed": DEFAULT_SEED, "max-ops": DIGEST_OPS}
            result = worker("run", opts, workdir, 600)
            recorded[name] = result["digests"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
