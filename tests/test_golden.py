"""Golden reports: every check's JSON on a fixed slice of the acceptance
corpus, pinned by sha256 so refactors must keep reports byte-identical.

The slice is every 25th sampled corpus entry (8 per family, 24 schemes).
Regenerate the digests only when a report change is intended:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

from fatpoints.verify import report_to_json, run_checks

from test_acceptance import FAMILIES, SCHEMES_PER_FAMILY, _sample_entry

DIGESTS = Path(__file__).with_name("golden_reports.json")
STRIDE = 25


def _digests() -> dict[str, str]:
    out = {}
    for fi, family in enumerate(FAMILIES):
        for k in range(0, SCHEMES_PER_FAMILY, STRIDE):
            seed = 10_000 * (fi + 1) + k
            entry = _sample_entry(family, seed)
            reports = run_checks(entry.scheme, entry.target_dim, ("all",), prop44_diagnostic=True)
            text = "\n".join(report_to_json(r) for r in reports)
            out[f"{family}:{seed}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_reports_match_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == 24
    assert _digests() == expected


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
