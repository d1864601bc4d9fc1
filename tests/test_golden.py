"""Golden reports: every check's JSON on the acceptance corpus, pinned by
sha256 so refactors must keep reports byte-identical.

Each entry of a fixed slice, every 25th sampled corpus entry (8 per
family, 24 schemes), has its own digest, so a change names the schemes it
touched; one more digest covers every report line of the whole corpus.
Regenerate the slice's digests only when a report change is intended:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

from fatpoints.verify import report_to_json, run_checks

from test_acceptance import FAMILIES, SCHEMES_PER_FAMILY, _sample_entry, build_corpus

DIGESTS = Path(__file__).with_name("golden_reports.json")
STRIDE = 25

# sha256 of the newline-terminated report lines of every check, with the
# prop44 diagnostic, on all 601 corpus entries: 5,409 lines
CORPUS_LINES = 5409
CORPUS_DIGEST = "8cbae4c1859b92f22f343805ec9877e933743f66f7f67adccc5e1b42b25b3c9e"


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


def test_full_corpus_reports_match_the_recorded_digest():
    lines = [
        report_to_json(report) + "\n"
        for entry in build_corpus()
        for report in run_checks(entry.scheme, entry.target_dim, ("all",), prop44_diagnostic=True)
    ]
    assert len(lines) == CORPUS_LINES
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == CORPUS_DIGEST


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
