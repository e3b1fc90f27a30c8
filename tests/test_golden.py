"""`refa convert` prints the same bytes as it did before the arc-store builder.

`convert_golden.json` holds the sha256 of the stdout of
`refa convert TEXT --to ROUTE` for all five routes on the witness families
of the scale benchmark (options, row1-row3, buffer) at small sizes, 50
`random_expr` inputs and 30 λ/∅-heavy trees.  The digests were recorded
once from the code before the change and are never regenerated to make a
change pass: a mismatch means the output changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from refa.cli import main

GOLDEN = json.loads((Path(__file__).parent / "convert_golden.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_route():
    routes = {route for _, route, _ in GOLDEN["cases"]}
    assert routes == {"of", "follow", "pos", "pd", "bdfa"}
    assert len(GOLDEN["cases"]) == 420


def test_convert_output_is_byte_identical():
    changed = []
    for text, route, digest in GOLDEN["cases"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["convert", text, "--to", route]) == 0
        if hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            changed.append((text, route))
    assert changed == []
