"""The CLI prints the same bytes as it did before the changes pinned here.

`convert_golden.json` holds the sha256 of the stdout of
`refa convert TEXT --to ROUTE` for all five routes on the witness families
of the scale benchmark (options, row1-row3, buffer) at small sizes, 50
`random_expr` inputs and 30 λ/∅-heavy trees; it was recorded before the
arc-store builder.  `cli_golden.json` holds the sha256 of the JSON that
`refa gen` writes for every automaton family (buffer, hypercube, torus at
small sizes and `random` at several seeds) and of `refa measure` on the 84
inputs above; it was recorded before the derivative memo and the JSON
writer.  `toregex_golden.json` holds the sha256 of `refa toregex` under
every method, ordering and `--no-simplify` on buffer, torus, hypercube,
random, λ-NFA and mixed int/string-state automata, and the order that
`make_ordering` returns for each strategy on them; it was recorded before
the elimination label store and the single elimination loop.
`cli_golden.json` also holds the sha256 of `refa equiv` on 110 pairs of
automata (every route of seeded `random_expr` trees, λ-NFAs among them,
over equal and differing alphabets, with equivalent and inequivalent
pairs), of `refa rank` on the automaton families and random DFAs at
`--budget 18` and at a budget below the state count, and of
`refa convert --format dot` on the 420 convert cases; those were recorded
before the transition index and the product search.  The digests are
never regenerated to make a change pass: a mismatch means the output
changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from refa.automata import load, save
from refa.cli import main
from refa.constructions import construct
from refa.elimination import STRATEGIES, make_ordering
from refa.expressions import parse
from refa.families import FAMILIES

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "convert_golden.json").read_text(encoding="utf-8"))
CLI_GOLDEN = json.loads((HERE / "cli_golden.json").read_text(encoding="utf-8"))
TOREGEX_GOLDEN = json.loads((HERE / "toregex_golden.json").read_text(encoding="utf-8"))


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


def written_inputs(folder: Path, inputs) -> dict:
    """Each named input's automaton file, written by its CLI command or
    from its inline JSON."""
    paths = {}
    for name, spec in inputs:
        paths[name] = folder / f"{name}.json"
        if isinstance(spec, dict):
            paths[name].write_text(json.dumps(spec), encoding="utf-8")
        else:
            stdout_of([*spec, "-o", str(paths[name])])
    return paths


def test_dot_output_is_byte_identical():
    cases = [
        (["convert", text, "--to", route, "--format", "dot"], digest)
        for text, route, digest in CLI_GOLDEN["dot"]
    ]
    assert [text for text, _, _ in CLI_GOLDEN["dot"]] == [text for text, _, _ in GOLDEN["cases"]]
    assert changed_cases(cases) == []


def test_equiv_output_is_byte_identical(tmp_path):
    paths = written_inputs(tmp_path, CLI_GOLDEN["equiv_inputs"])
    routes = {argv[argv.index("--to") + 1] for _, argv in CLI_GOLDEN["equiv_inputs"]}
    assert routes == {"of", "follow", "pos", "pd", "bdfa"}
    assert len(CLI_GOLDEN["equiv"]) == 110
    cases = [
        (["equiv", str(paths[left]), str(paths[right])], digest)
        for left, right, digest in CLI_GOLDEN["equiv"]
    ]
    assert changed_cases(cases) == []


def test_rank_output_is_byte_identical(tmp_path):
    paths = written_inputs(tmp_path, CLI_GOLDEN["rank_inputs"])
    assert {argv[1] for _, argv in CLI_GOLDEN["rank_inputs"]} == {
        "buffer", "hypercube", "torus", "random"
    }
    cases = [
        (["rank", str(paths[name]), *args], digest) for name, args, digest in CLI_GOLDEN["rank"]
    ]
    assert changed_cases(cases) == []


def test_save_writes_what_convert_prints(tmp_path):
    path = tmp_path / "aut.json"
    for text, route, _ in GOLDEN["cases"][::7]:
        save(construct(route, parse(text)), path)
        assert path.read_bytes() == stdout_of(["convert", text, "--to", route]).encode()


@pytest.fixture(scope="module")
def toregex_inputs(tmp_path_factory) -> dict:
    return written_inputs(tmp_path_factory.mktemp("toregex"), TOREGEX_GOLDEN["inputs"])


def test_toregex_golden_file_covers_every_method_and_order():
    args = [argv for _, argv, _ in TOREGEX_GOLDEN["toregex"]]
    orders = {a[a.index("--order") + 1] for a in args if "--order" in a}
    assert set(STRATEGIES) <= orders and any(o.startswith("fixed:") for o in orders)
    assert {a[a.index("--method") + 1] for a in args if "--method" in a} == {"arden", "mny"}
    assert any("--no-simplify" in a for a in args) and any("--unicode" in a for a in args)
    names = [name for name, _ in TOREGEX_GOLDEN["inputs"]]
    assert {name for name, _, _ in TOREGEX_GOLDEN["orderings"]} == set(names)
    assert len(TOREGEX_GOLDEN["toregex"]) == 268


def test_toregex_output_is_byte_identical(toregex_inputs):
    cases = [
        (["toregex", str(toregex_inputs[name]), *argv], digest)
        for name, argv, digest in TOREGEX_GOLDEN["toregex"]
    ]
    assert changed_cases(cases) == []


def test_orderings_are_unchanged(toregex_inputs):
    changed = []
    for name, strategy, order in TOREGEX_GOLDEN["orderings"]:
        if make_ordering(load(toregex_inputs[name]), strategy) != order:
            changed.append((name, strategy))
    assert changed == []
