"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to 14 units and one set-up, one pass."""
    build = workloads.build

    def small(*args, **kwargs):
        workload = build(*args, **kwargs)
        workload.units = workload.units[:14]
        return workload

    monkeypatch.setattr(workloads, "build", small)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "UNTRACED_PASSES_IN_TRACE", 1)


def _run(*argv) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_prints_every_end_to_end_metric(tiny, name):
    text, result = _run("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for metric in list(wanted) + ["error_rate"]:
        assert f"  {metric} " in text
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]


def test_smoke_traced_run_prints_every_per_layer_metric(tiny):
    _, result = _run("--workload", "eliminate", "--seed", "7", "--seconds", "0", "--trace", "1")
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert 0.9 < result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_per_layer_names_match_the_tracer():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _, _ in layers.metric_names()]


def _inputs(name: str, seed: int, directory: Path) -> tuple[list, dict]:
    workload = workloads.build(name, seed, run.fresh_import(), directory, directory.parent)
    argvs = [case.argv if isinstance(case.argv, list) else case.cid for case in workload.cases]
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return argvs, files


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _inputs(name, 11, tmp_path / name)
    assert _inputs(name, 11, tmp_path / name) == first
    assert _inputs(name, 12, tmp_path / name) != first


def test_traceback_counts_as_failure():
    class Raising:
        @staticmethod
        def main(argv):
            raise TypeError("unhashable type: 'list'")

    case = workloads.Case("x", ["equiv", "a", "b"], checks.one_line_error, expect_rc=1)
    _, outcome = run.execute(Raising, case, None, run.time.perf_counter_ns)
    assert run.verdict(case, outcome) == "traceback (TypeError)"


def test_hostile_probes_fail_unless_the_cli_exits_1_with_one_line(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    refa = run.fresh_import()
    for name in ("corpus", "eliminate", "rank"):
        workload = workloads.build(name, 1, refa, run.OUT / name, run.ROOT)
        for probe in (p for p in workload.probes if p.expect_rc == 1):
            _, o = run.execute(refa.cli, probe, None, run.time.perf_counter_ns)
            clean = o.exc is None and o.rc == 1 and not o.stdout and len(o.stderr.splitlines()) == 1
            assert (run.verdict(probe, o) is None) == clean


def test_buffer_text_matches_refa_render():
    refa = run.fresh_import()
    for n in (1, 2, 5, 20):
        assert workloads.buffer_text(n) == refa.expressions.render(refa.families.buffer_regex(n))


def test_oracle_measures_agree_with_refa():
    refa = run.fresh_import()
    for i in range(60):
        text = refa.expressions.render(refa.expressions.random_expr(1 + i % 9, ["a", "b", "c"], i))
        nodes = oracle.Nodes()
        mine = oracle.measures(nodes, oracle.parse(text, nodes))
        theirs = refa.expressions.measures(refa.expressions.parse(text))
        assert mine == {k: getattr(theirs, k) for k in mine}


def test_oracle_languages():
    nodes = oracle.Nodes()
    assert oracle.language(nodes, oracle.parse("(ab)*+&", nodes), 4) == {(), ("a", "b"), ("a", "b") * 2}
    assert oracle.language(nodes, oracle.parse("a1?b2", nodes), 3) == {("b2",), ("a1", "b2")}
    assert oracle.language(nodes, oracle.parse("#*a+#", nodes), 3) == {("a",)}
    nfa = oracle.Nfa({"states": [0, 1], "alphabet": ["a"], "initial": 0, "finals": [1],
                      "transitions": [[0, "", 1], [1, "a", 1]]})
    assert nfa.language(3, ["a"]) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_oracle_cycle_rank_closed_forms():
    refa = run.fresh_import()
    for data, want in [
        (refa.automata.to_dict(refa.families.torus_dfa(2, 4)), 3),
        *[(refa.automata.to_dict(refa.families.buffer_dfa(n)), (n + 1).bit_length() - 1) for n in (1, 2, 3, 6, 7, 12)],
    ]:
        nfa = oracle.Nfa(data)
        assert oracle.cycle_rank(nfa.states, [(p, q) for p, _, q in nfa.arcs]) == want


def test_checks_reject_a_wrong_automaton():
    refa = run.fresh_import()
    text = "(a+b)*ab"
    data = refa.automata.to_dict(refa.constructions.construct_position(refa.expressions.parse(text)))
    good = checks.Outcome(0, json.dumps(data), "", None)
    assert checks.Oracle().convert(good, text, "pos") is None
    data["transitions"] = data["transitions"][1:]
    bad = checks.Outcome(0, json.dumps(data), "", None)
    assert checks.Oracle().convert(bad, text, "pos") is not None


def test_checks_reject_a_false_witness():
    dfa = {"states": [0, 1], "alphabet": ["a"], "initial": 0, "finals": [1], "transitions": [[0, "a", 1], [1, "a", 1]]}
    flipped = dict(dfa, finals=[0, 1])
    o = checks.Outcome(0, "inequivalent: a\n", "", None)
    assert checks.Oracle().equiv(o, dfa, flipped, False) is not None
    o = checks.Outcome(0, "inequivalent: &\n", "", None)
    assert checks.Oracle().equiv(o, dfa, flipped, False) is None


def test_split_and_flip_keep_and_change_the_language():
    refa = run.fresh_import()
    rng = random.Random(3)
    for j in range(10):
        data = refa.automata.to_dict(refa.families.random_dfa(5, 2, j))
        a = oracle.Nfa(data)
        assert oracle.Nfa(workloads._split_state(data, rng)).language(7, "ab") == a.language(7, "ab")
        assert oracle.Nfa(workloads._flip_final(data, rng)).language(7, "ab") != a.language(7, "ab")
