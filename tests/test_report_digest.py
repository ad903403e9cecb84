"""Pins the report bytes of the analyzer on the benchmark's analyze corpora.

The digest is a SHA-256 over canonical_json of analyze_project(...), with all
thirteen checkers enabled, for every analyze-flat project and the
analyze-branchy tree that perfbench/gen.py generates at seed 1. The corpora
are written to a temporary directory, so a change that keeps the reports
byte-identical keeps the digest. To rewrite the pinned file after an
intended change:

    PYTHONPATH=src python tests/test_report_digest.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from wasmsmell import canonical_json
from wasmsmell.analysis import analyze_project
from wasmsmell.checkers import all_checker_ids

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gen import generate  # noqa: E402

PINNED = Path(__file__).parent / "fixtures" / "expected" / "report_digest.json"
SEED = 1


def report_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for workload in ("analyze-flat", "analyze-branchy"):
            files, _truth = generate(workload, SEED)
            for rel, data in files.items():
                path = base / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
        # one report per flat project, and one for the whole branchy tree
        for root in [*sorted((base / "flat").iterdir()), base / "branchy"]:
            report = analyze_project(root, checker_ids=all_checker_ids())
            h.update(root.name.encode() + b"\0")
            h.update(canonical_json(report.to_dict()) + b"\0")
    return h.hexdigest()


def test_report_digest_pinned():
    assert report_digest() == json.loads(PINNED.read_text())["sha256"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({
        "inputs": f"analyze-flat projects and the analyze-branchy tree of perfbench/gen.py at seed {SEED}",
        "sha256": report_digest(),
    }, indent=1) + "\n")
