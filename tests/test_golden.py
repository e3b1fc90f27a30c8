"""The CLI prints the same bytes as it did before the changes pinned here.

`convert_golden.json` holds the sha256 of the stdout of
`refa convert TEXT --to ROUTE` for all five routes on the witness families
of the scale benchmark (options, row1-row3, buffer) at small sizes, 50
`random_expr` inputs and 30 λ/∅-heavy trees; it was recorded before the
arc-store builder.  `cli_golden.json` holds the sha256 of the JSON that
`refa gen` writes for every automaton family (buffer, hypercube, torus at
small sizes and `random` at several seeds) and of `refa measure` on the 84
inputs above; it was recorded before the derivative memo and the JSON
writer.  The digests are never regenerated to make a change pass: a
mismatch means the output changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from refa.automata import save
from refa.cli import main
from refa.constructions import construct
from refa.expressions import parse
from refa.families import FAMILIES

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "convert_golden.json").read_text(encoding="utf-8"))
CLI_GOLDEN = json.loads((HERE / "cli_golden.json").read_text(encoding="utf-8"))


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def changed_cases(cases) -> list:
    """The argument lists whose stdout no longer has the recorded digest."""
    return [
        argv for argv, digest in cases
        if hashlib.sha256(stdout_of(argv).encode()).hexdigest() != digest
    ]


def test_golden_file_covers_every_route():
    routes = {route for _, route, _ in GOLDEN["cases"]}
    assert routes == {"of", "follow", "pos", "pd", "bdfa"}
    assert len(GOLDEN["cases"]) == 420


def test_convert_output_is_byte_identical():
    cases = [(["convert", text, "--to", route], digest) for text, route, digest in GOLDEN["cases"]]
    assert changed_cases(cases) == []


def test_cli_golden_file_covers_every_automaton_family_and_input():
    automaton_families = {"buffer", "hypercube", "torus", "random"}
    assert automaton_families <= set(FAMILIES) | {"random"}
    assert {args[0] for args, _ in CLI_GOLDEN["gen"]} == automaton_families
    assert [text for text, _ in CLI_GOLDEN["measure"]] == list(
        dict.fromkeys(text for text, _, _ in GOLDEN["cases"])
    )
    assert len(CLI_GOLDEN["measure"]) == 84


def test_gen_output_is_byte_identical():
    assert changed_cases([(["gen", *args], digest) for args, digest in CLI_GOLDEN["gen"]]) == []


def test_measure_output_is_byte_identical():
    assert changed_cases([(["measure", text], digest) for text, digest in CLI_GOLDEN["measure"]]) == []


def test_save_writes_what_convert_prints(tmp_path):
    path = tmp_path / "aut.json"
    for text, route, _ in GOLDEN["cases"][::7]:
        save(construct(route, parse(text)), path)
        assert path.read_bytes() == stdout_of(["convert", text, "--to", route]).encode()
