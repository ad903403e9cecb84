"""Pins what the frontend (parse_source) gives on a fixed set of inputs.

The digest covers the tokens, the diagnostics sorted by (offset, message),
the includes and repr(unit) for the first 1,000 criterion-5 fuzz inputs and
every fixture source file. Diagnostics are sorted because their order is not
part of the contract. To rewrite the pinned file after an intended change:

    PYTHONPATH=src python tests/test_frontend_digest.py
"""

import hashlib
import json
import random
from pathlib import Path

from wasmsmell.cparser import parse_source

FIXTURES = Path(__file__).parent / "fixtures"
PINNED = FIXTURES / "expected" / "frontend_digest.json"
FUZZ_SEED = 1234
FUZZ_INPUTS = 1_000


def frontend_inputs():
    rng = random.Random(FUZZ_SEED)
    for _ in range(FUZZ_INPUTS):
        yield rng.randbytes(rng.randrange(0, 4097))
    for path in sorted(FIXTURES.rglob("*.c")):
        yield path.read_bytes()


def frontend_digest() -> str:
    h = hashlib.sha256()
    for data in frontend_inputs():
        result = parse_source(data)
        diags = sorted(result.diagnostics, key=lambda d: (d.span.offset, d.message))
        for part in (result.tokens, diags, result.includes, result.unit):
            h.update(repr(part).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_frontend_digest_pinned():
    assert frontend_digest() == json.loads(PINNED.read_text())["sha256"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({
        "inputs": f"first {FUZZ_INPUTS} criterion-5 inputs (Random({FUZZ_SEED})) and tests/fixtures/**/*.c",
        "sha256": frontend_digest(),
    }, indent=1) + "\n")
