import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import refa
from refa import cli, constructions, digraphs
from refa.automata import Automaton, to_json
from refa.bench import (
    bench_constructions,
    bench_orderings,
    summarize_orderings,
    to_csv,
    verify_trends,
)
from refa.cli import _build_parser, _read_direct, main
from refa.constructions import CONSTRUCTION_NAMES
from refa.elimination import STRATEGIES, state_elimination
from refa.expressions import measures, parse
from refa.families import buffer_dfa, hypercube_dfa, torus_dfa

from test_expressions import SYNTAX_ERRORS


class TestBenchConstructions:
    def test_rows_and_header(self):
        records = bench_constructions({"buffer": [1, 2]})
        csv_text = to_csv(records)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "family,n,method,states,transitions,size,awidth,height,micros"
        assert len(lines) == 1 + 2 * 4

    def test_reproducible_counts(self):
        a = bench_constructions({"options": [3]})
        b = bench_constructions({"options": [3]})
        strip = lambda recs: [r.row()[:8] for r in recs]  # ignore timings
        assert strip(a) == strip(b)

    def test_buffer_follow_smaller_than_position(self):
        records = bench_constructions({"buffer": [2, 3, 4]})
        sizes = {(r.n, r.method): r.size for r in records}
        for n in (2, 3, 4):
            assert sizes[(n, "follow")] < sizes[(n, "pos")]

    def test_trends(self):
        checks = verify_trends({"options": [8, 16], "row3": [8, 16]})
        assert checks and all(ok for _, _, _, ok in checks)


class TestBenchOrderings:
    def test_records_verified_and_summary(self):
        records = bench_orderings(n=4, alphabet_size=2, samples=3, seed=11)
        assert len(records) == 3 * 6
        summary = summarize_orderings(records)
        assert {m for m, _ in summary} == {"id", "greedy", "dm", "cycles", "indep", "bridge"}

    def test_explicit_automata_and_orders(self):
        # the order decides the star height of the label: 6 peeling the
        # buffer from its far end, 2 taking every other state first
        heights = [
            measures(state_elimination(buffer_dfa(6), order)).height
            for order in ([6, 5, 4, 3, 2, 1, 0], [0, 2, 4, 6, 1, 5, 3])
        ]
        assert heights == [6, 2]

    def test_dm_no_worse_than_id_on_median(self):
        records = bench_orderings(n=6, alphabet_size=2, samples=15, seed=29)
        medians = dict(summarize_orderings(records))
        assert medians["dm"] <= medians["id"]


class TestCli:
    def test_measure(self, capsys):
        assert main(["measure", "(ab)*"]) == 0
        out = capsys.readouterr().out
        assert "size: 8" in out and "height: 1" in out

    def test_convert_and_rank_and_equiv(self, tmp_path, capsys):
        buf = tmp_path / "b6.json"
        assert main(["gen", "buffer", "6", "-o", str(buf)]) == 0
        assert main(["rank", str(buf)]) == 0
        out = capsys.readouterr().out
        assert "cycle rank: 2" in out and "star height: 2" in out

        other = tmp_path / "b3.json"
        assert main(["gen", "buffer", "3", "-o", str(other)]) == 0
        assert main(["equiv", str(buf), str(other)]) == 0
        assert capsys.readouterr().out.startswith("inequivalent: ")
        assert main(["equiv", str(buf), str(buf)]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_toregex_example(self, tmp_path, capsys):
        buf = tmp_path / "b6.json"
        main(["gen", "buffer", "6", "-o", str(buf)])
        capsys.readouterr()
        assert main(["toregex", "--method", "eliminate", "--order", "fixed:6,5,4,3,2,1,0", str(buf)]) == 0
        assert capsys.readouterr().out.strip() == "(a(a(a(a(a(ab)*b)*b)*b)*b)*b)*"

    def test_toregex_mny_unicode(self, tmp_path, capsys):
        buf = tmp_path / "b3.json"
        main(["gen", "buffer", "3", "-o", str(buf)])
        capsys.readouterr()
        assert main(["toregex", "--method", "mny", "--order", "fixed:3,2,1,0", "--unicode", str(buf)]) == 0
        assert capsys.readouterr().out.strip() == "λ+(a(a(ab)*b)*b)*a(a(ab)*b)*b"

    @pytest.mark.parametrize("entry", ["--1", "²", "x"])
    @pytest.mark.parametrize("method", ["eliminate", "mny"])
    def test_toregex_fixed_order_not_of_states(self, tmp_path, capsys, method, entry):
        buf = tmp_path / "b2.json"
        main(["gen", "buffer", "2", "-o", str(buf)])
        capsys.readouterr()
        assert main(["toregex", str(buf), "--method", method, "--order", f"fixed:{entry},0,1"]) == 1
        assert capsys.readouterr().err == "error: order must be a permutation of the states\n"

    def test_toregex_arden_ignores_fixed_order(self, tmp_path, capsys):
        buf = tmp_path / "b2.json"
        main(["gen", "buffer", "2", "-o", str(buf)])
        assert main(["toregex", str(buf), "--method", "arden"]) == 0
        expected = capsys.readouterr().out
        assert main(["toregex", str(buf), "--method", "arden", "--order", "fixed:--1,0,1"]) == 0
        assert capsys.readouterr().out == expected

    def test_convert_json_loads(self, capsys):
        assert main(["convert", "--to", "pos", "(ab)*"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["initial"] == 0 and len(data["states"]) == 3

    def test_convert_dot(self, capsys):
        assert main(["convert", "--to", "of", "--format", "dot", "a*"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_gen_random_deterministic(self, capsys):
        assert main(["gen", "random", "5", "2", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "5", "2", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("seed", ["9", "1_0", " 7 ", "+2"])
    def test_seed_from_environment(self, monkeypatch, capsys, seed):
        # REFA_SEED is read as `--seed` is, by int()
        assert main(["gen", "random", "5", "2", "--seed", seed]) == 0
        explicit = capsys.readouterr().out
        monkeypatch.setenv("REFA_SEED", seed)
        assert main(["gen", "random", "5", "2"]) == 0
        assert capsys.readouterr().out == explicit

    @pytest.mark.parametrize("seed", ["x", "--5", "²", "-", ""])
    @pytest.mark.parametrize("argv", [["measure", "a"], ["gen", "random", "5", "2"]])
    def test_bad_seed_in_environment(self, monkeypatch, capsys, argv, seed):
        monkeypatch.setenv("REFA_SEED", seed)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: REFA_SEED must be an integer, not {seed!r}\n"

    def test_negative_seed_in_environment(self, monkeypatch, capsys):
        assert main(["gen", "random", "5", "2", "--seed", "-5"]) == 0
        explicit = capsys.readouterr().out
        monkeypatch.setenv("REFA_SEED", "-5")
        assert main(["gen", "random", "5", "2"]) == 0
        assert capsys.readouterr().out == explicit

    def test_gen_wrong_parameter_count(self, capsys):
        assert main(["gen", "torus", "3"]) == 1
        assert capsys.readouterr().err == "error: family torus takes 2 parameter(s)\n"

    @pytest.mark.parametrize("params", [["5"], ["5", "2", "3"]])
    def test_gen_random_wrong_parameter_count(self, capsys, params):
        assert main(["gen", "random", *params]) == 1
        assert capsys.readouterr().err == "error: family random takes 2 parameter(s)\n"

    def test_gen_regex_flag(self, capsys):
        assert main(["gen", "options", "3", "--regex"]) == 0
        assert capsys.readouterr().out.strip() == "(a1+&)(a2+&)(a3+&)"

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "constructions", "--families", "buffer=1,2", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("family,n,method")

    @pytest.mark.parametrize(
        "argv,digest",
        [
            # 12 samples, so random10 and random11 come before random2
            (
                ["bench", "orderings", "--n", "6", "--samples", "12", "--seed", "3"],
                "b73ad1f4140cbc1c87a8ad018907d6994b393ca1cb9998348ed4148bde05abe5",
            ),
            (
                ["bench", "constructions", "--families", "buffer=1,2,4,8;options=4,8,16;row1=3;row2=2;row3=8,16"],
                "e28e507128c37a2a1ae62a69c0ea68437dacfc89e4ddad7f6efb00d3b23d77a0",
            ),
        ],
        ids=["orderings", "constructions"],
    )
    def test_bench_output_is_pinned(self, capsys, argv, digest):
        # the sha256 of stdout, each line's last field (micros) cut, then stderr
        assert main(argv) == 0
        captured = capsys.readouterr()
        cut = "".join(line.rsplit(",", 1)[0] + "\n" for line in captured.out.splitlines())
        assert hashlib.sha256((cut + captured.err).encode()).hexdigest() == digest

    @pytest.mark.parametrize("method", ["eliminate", "arden", "mny"])
    def test_toregex_checks_the_order_for_every_method(self, tmp_path, capsys, method):
        buf = tmp_path / "b.json"
        buf.write_text(to_json(buffer_dfa(3)))
        assert main(["toregex", str(buf), "--method", method, "--order", "bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: unknown order 'bogus'\n"

    @pytest.mark.parametrize("method", ["eliminate", "arden", "mny"])
    @pytest.mark.parametrize("flags", [[], ["--no-simplify"]], ids=["simplified", "raw"])
    def test_toregex_caps_the_printed_size(self, tmp_path, capsys, monkeypatch, method, flags):
        buf = tmp_path / "b.json"
        buf.write_text(to_json(torus_dfa(2, 3)))
        argv = ["toregex", str(buf), "--method", method, *flags]
        assert main(argv) == 0
        text = capsys.readouterr().out
        size = measures(parse(text.strip())).size
        monkeypatch.setattr(cli, "MAX_RENDER_SIZE", size)
        assert main(argv) == 0 and capsys.readouterr().out == text
        monkeypatch.setattr(cli, "MAX_RENDER_SIZE", size - 1)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expression size {size} is over the cap of {size - 1}; not printed\n"

    def test_toregex_refuses_to_print_a_label_of_size_7e9(self, tmp_path, capsys):
        # the id-order label of hypercube_dfa(4) is a DAG of awidth 1.5·10⁹
        cube = tmp_path / "cube.json"
        cube.write_text(to_json(hypercube_dfa(4)))
        assert main(["toregex", str(cube), "--order", "id"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expression size 6969155638 is over the cap of {cli.MAX_RENDER_SIZE}; not printed\n"

    def test_toregex_refuses_the_id_order_label_of_buffer_2000(self, tmp_path, capsys):
        # the carrier is stepped in place, so this takes well under a second
        assert main(["gen", "buffer", "2000"]) == 0
        buf = tmp_path / "b2000.json"
        buf.write_text(capsys.readouterr().out)
        assert main(["toregex", str(buf), "--order", "id"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expression size 29371345001 is over the cap of 100000000; not printed\n"

    @pytest.mark.parametrize("order", ["greedy", "dm", "fixed:0,1,2,3"])
    def test_arden_ignores_a_valid_order(self, tmp_path, capsys, order):
        buf = tmp_path / "b.json"
        buf.write_text(to_json(buffer_dfa(3)))
        assert main(["toregex", str(buf), "--method", "arden"]) == 0
        plain = capsys.readouterr().out
        assert main(["toregex", str(buf), "--method", "arden", "--order", order]) == 0
        assert capsys.readouterr().out == plain == "(a(a(ab)*b)*b)*\n"

    @pytest.mark.parametrize(
        "flags,value",
        [(["--samples", "-1"], -1), (["--samples=-3"], -3), (["--samples", " -2 "], -2)],
        ids=["argparse-space", "argparse-equals", "direct"],
    )
    def test_negative_samples_are_rejected(self, capsys, flags, value):
        argv = ["bench", "orderings", "--n", "3", *flags]
        assert (_read_direct(argv) is None) == (flags[-1] != " -2 ")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --samples must be >= 0, not {value}\n"

    def test_zero_samples_are_valid(self, capsys):
        assert main(["bench", "orderings", "--n", "3", "--samples", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "family,n,method,states,transitions,size,awidth,height,micros\n"
        assert captured.err == ""

    def test_domain_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["toregex", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["convert", "--to", "bogus", "x"]) == 2
        capsys.readouterr()

    def test_one_parser_serves_every_call(self, monkeypatch, capsys, tmp_path):
        # the parser is built once per process; each call must still print
        # and exit as the same command does in a fresh process
        assert _build_parser() is _build_parser()
        src = str(Path(refa.__file__).resolve().parents[1])
        base_env = {k: v for k, v in os.environ.items() if k != "REFA_SEED"}
        b3, t23 = tmp_path / "b3.json", tmp_path / "t23.json"
        b3.write_text(to_json(buffer_dfa(3)))
        t23.write_text(to_json(torus_dfa(2, 3)))
        direct = [
            ["rank", str(t23), "--budget", "18"],
            ["toregex", str(b3), "--order", "dm", "--no-simplify"],
            ["equiv", str(b3), str(t23)],
        ]
        assert all(_read_direct(argv) is not None for argv in direct)
        calls = [
            ({}, ["convert", "--to", "bogus", "x"]),
            ({}, ["measure", "(ab)*"]),
            ({"REFA_SEED": "9"}, ["gen", "random", "5", "2"]),
            *(({}, argv) for argv in direct),
        ]
        for env, argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "refa.cli", *argv],
                capture_output=True,
                text=True,
                env={**base_env, "PYTHONPATH": src, **env},
                timeout=60,
            )
            monkeypatch.delenv("REFA_SEED", raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            rc = main(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_syntax_error_exit_code(self, capsys):
        assert main(["measure", "(a"]) == 1
        assert "offset 2" in capsys.readouterr().err

    @pytest.mark.parametrize("route", [*CONSTRUCTION_NAMES, None], ids=[*CONSTRUCTION_NAMES, "measure"])
    def test_convert_syntax_errors_end_in_one_line(self, capsys, route):
        # every route, and measure, reads the text into its makers, with no tree between
        for text, message, _ in SYNTAX_ERRORS:
            assert main(["measure", text] if route is None else ["convert", text, "--to", route]) == 1, text
            assert capsys.readouterr() == ("", f"error: {message}\n"), text

    @pytest.mark.parametrize("route", [*CONSTRUCTION_NAMES, None], ids=[*CONSTRUCTION_NAMES, "measure"])
    def test_non_ascii_digits_end_in_one_line(self, capsys, route):
        for text, digit in (("a²", "²"), ("a١+b", "١")):
            assert main(["measure", text] if route is None else ["convert", text, "--to", route]) == 1, text
            assert capsys.readouterr() == ("", f"error: unexpected {digit!r} at offset 1\n"), text

    @pytest.mark.parametrize("command", ["toregex", "equiv", "rank"])
    def test_toregex_refuses_a_non_ascii_digit_symbol(self, tmp_path, capsys, command):
        # refused at load, so every command that reads an automaton prints the same line
        path = tmp_path / "sup.json"
        path.write_text(json.dumps(
            {"states": [0, 1], "alphabet": ["a²"], "initial": 0, "finals": [1], "transitions": [[0, "a²", 1]]}
        ))
        assert main([command, str(path)] + [str(path)] * (command == "equiv")) == 1
        assert capsys.readouterr() == ("", "error: invalid symbol name 'a²'\n")

    @pytest.mark.parametrize(
        "document,argv,field",
        [
            ("[1,2]", ["equiv", "{bad}", "{good}"], "JSON object"),
            ('{"states": [[0]], "alphabet": ["a"], "initial": 0, "finals": [], "transitions": []}',
             ["rank", "{bad}"], "'states'"),
            ('{"states": [[0]], "alphabet": ["a"], "initial": 0, "finals": [], "transitions": []}',
             ["toregex", "{bad}"], "'states'"),
            ('{"states": [0], "alphabet": ["a"], "initial": 0, "finals": [], "transitions": [[0, "a"]]}',
             ["rank", "{bad}"], "'transitions'"),
            *[
                ('{"states": [0, 1], "alphabet": [""], "initial": 0, "finals": [1], "transitions": [[0, "", 1]]}',
                 argv, '"" is not a symbol')
                for argv in (["rank", "{bad}"], ["toregex", "{bad}"], ["equiv", "{bad}", "{good}"])
            ],
        ],
        ids=["equiv-list", "rank-states", "toregex-states", "rank-pair", "rank-empty-symbol",
             "toregex-empty-symbol", "equiv-empty-symbol"],
    )
    def test_malformed_automaton_one_line_error(self, tmp_path, capsys, document, argv, field):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        good = tmp_path / "b2.json"
        main(["gen", "buffer", "2", "-o", str(good)])
        capsys.readouterr()
        argv = [a.format(bad=bad, good=good) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and field in captured.err

    def test_equiv_over_different_alphabets(self, tmp_path, capsys):
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        assert main(["convert", "--to", "of", "a*", "-o", str(left)]) == 0
        assert main(["convert", "--to", "pos", "(a+b)*", "-o", str(right)]) == 0
        assert main(["equiv", str(left), str(right)]) == 0
        assert capsys.readouterr().out.strip() == "inequivalent: b"


# every argv shape the perfbench workloads send: convert on each route, with
# and without -o; toregex under each ordering and method, raw and simplified;
# measure, equiv and rank with both budgets
WORKLOAD_ARGVS = [
    *(["convert", "(a+b)*ab", "--to", route, *out] for route in CONSTRUCTION_NAMES for out in ([], ["-o", "f.json"])),
    *(["toregex", "a.json", *how, *raw]
      for how in [*(["--order", o] for o in STRATEGIES), ["--method", "arden"], ["--method", "mny"]]
      for raw in ([], ["--no-simplify"])),
    ["measure", "(ab)*"],
    ["equiv", "a.json", "b.json"],
    ["rank", "a.json", "--budget", "18"],
    ["rank", "a.json", "--budget", "120"],
]
# well formed though not in a workload: read directly, as argparse reads them
DIRECT_ARGVS = [
    ["convert", "--to", "pd", "x"],
    ["convert", "--format", "dot", "-o", "f", "--output", "g", "x"],
    ["convert", "x", "--to", "pd", "--to", "of"],
    ["toregex", "--no-simplify", "a.json", "--unicode", "--no-simplify", "--order", "fixed:3,2,1,0"],
    ["toregex", "a.json", "--order", ""],
    ["rank", "--budget", "3", "a.json", "--budget", "5"],
    ["rank", "a.json", "--budget", "1_0"],
    ["rank", "a.json", "--budget", " 7 "],
    ["measure", ""],
    ["measure", "a b"],
    ["bench", "orderings", "--n", "3", "--seed", "4", "--samples", "2"],
]
# left to argparse, which accepts some and rejects the rest
DECLINED_ARGVS = [
    [], [""], ["-h"], ["--help"], ["bogus", "x"], ["convert"],
    ["gen", "random", "5", "2"], ["gen", "buffer", "3", "--regex"],
    ["convert", "x", "--to=pd"], ["convert", "x", "--to", "bogus"], ["convert", "x", "--to", ""],
    ["convert", "x", "-h"], ["convert", "x", "--help"], ["convert", "x", "--foo"], ["convert", "x", "-ofile"],
    ["convert", "x", "--form", "dot"], ["convert", "x", "-o"], ["convert", "x", "-o", "-"],
    ["convert", "x", "--to", "-h"],
    ["measure", "--", "a"], ["measure", "-"], ["measure", "-a"], ["measure", "a", "b"], ["measure", "a", ""],
    ["equiv", "a.json"], ["equiv", "a.json", "b.json", "c.json"],
    ["toregex", "a.json", "--order", "-x"], ["toregex", "a.json", "--method", "bogus"],
    ["toregex", "a.json", "--no-simplify=1"], ["toregex", "a.json", "--no"],
    ["rank", "a.json", "--bud", "5"], ["rank", "a.json", "--budget"], ["rank", "a.json", "--budget", "x"],
    ["rank", "a.json", "--budget", "7.5"], ["rank", "a.json", "--budget", "-1"], ["rank", "a.json", "--budget", ""],
    ["bench", "bogus"], ["bench", "orderings", "--n", "two"],
]


def _argparse_result(argv, capsys):
    try:
        result = vars(_build_parser().parse_args(argv))
    except SystemExit:
        result = None  # a usage error or help
    capsys.readouterr()
    return result


class TestDirectReader:
    """`_read_direct` returns what argparse returns, or None to leave the
    command line to argparse."""

    @pytest.mark.parametrize("argv", WORKLOAD_ARGVS + DIRECT_ARGVS, ids=repr)
    def test_reads_directly_what_argparse_reads(self, argv, capsys):
        direct = _read_direct(argv)
        assert direct is not None
        assert vars(direct) == _argparse_result(argv, capsys)

    @pytest.mark.parametrize("argv", DECLINED_ARGVS, ids=repr)
    def test_declines_the_rest(self, argv, capsys):
        assert _read_direct(argv) is None
        _argparse_result(argv, capsys)  # argparse reads it without a traceback

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["refa", "rank", "a.json"])
        assert vars(_read_direct(None)) == {"command": "rank", "automaton": "a.json", "budget": 18}
        monkeypatch.setattr(sys, "argv", ["refa"])
        assert _read_direct(None) is None


class TestRank:
    """`refa rank` prints the star height from the cycle rank it already has
    when minimisation only renames the states, and computes it otherwise."""

    @pytest.mark.parametrize(
        "aut,out,ranks",
        [
            (torus_dfa(4, 4), "cycle rank: 4\nstar height: 4\n", 1),
            # all final: the minimal DFA is one state with two loops
            (Automaton.make(range(3), "ab", 0, range(3),
                            [(0, "a", 1), (0, "b", 2), (1, "a", 0), (1, "b", 2), (2, "a", 2), (2, "b", 1)]),
             "cycle rank: 2\nstar height: 1\n", 2),
            # over the budget of 18, yet the minimal DFA has one state
            (Automaton.make(range(20), "a", 0, range(20), [(i, "a", (i + 1) % 20) for i in range(20)]),
             "cycle rank upper bound: 1\nstar height: 1\n", 2),
            (Automaton.make([0], "a", 0, [], [(0, "a", 0)]),
             "cycle rank: 1\nstar height: undetermined (not bideterministic)\n", 1),
        ],
        ids=["torus4x4-reused", "all-final-recomputed", "over-budget-recomputed", "non-final-loop"],
    )
    def test_star_height(self, tmp_path, capsys, monkeypatch, aut, out, ranks):
        path = tmp_path / "aut.json"
        path.write_text(to_json(aut))
        calls = []
        exact = digraphs.cycle_rank
        monkeypatch.setattr(digraphs, "cycle_rank", lambda *a: calls.append(a) or exact(*a))
        assert main(["rank", str(path)]) == 0
        assert capsys.readouterr().out == out
        assert len(calls) == ranks

    @pytest.mark.parametrize(
        "flags,value",
        [(["--budget", "-1"], -1), (["--budget=-3"], -3), (["--budget", " -2 "], -2)],
        ids=["argparse-space", "argparse-equals", "direct"],
    )
    def test_negative_budget_is_rejected(self, tmp_path, capsys, flags, value):
        path = tmp_path / "aut.json"
        path.write_text(to_json(torus_dfa(2, 2)))
        assert main(["rank", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --budget must be >= 0, not {value}\n"

    def test_zero_budget_is_valid(self, tmp_path, capsys):
        path = tmp_path / "aut.json"
        path.write_text(to_json(torus_dfa(2, 2)))
        assert main(["rank", str(path), "--budget", "0"]) == 0
        assert capsys.readouterr().out == "cycle rank upper bound: 2\nstar height: not computed (exact cycle rank over budget)\n"


STAR_TOWER = "(" * 3000 + "a" + ")*" * 3000


@pytest.fixture
def buffer_text(monkeypatch):
    """perfbench's buffer_regex(n) text, built without refa."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads").buffer_text


class TestDeepInputs:
    """Nesting far past the recursion limit: the walks over whole trees take
    any depth, and the per-term walks that recurse end in a one-line error."""

    def test_gen_buffer_regex(self, capsys, buffer_text):
        assert main(["gen", "buffer", "2000", "--regex"]) == 0
        # text, not trees: the dataclass == recurses
        assert capsys.readouterr().out == buffer_text(2000) + "\n"

    @pytest.mark.parametrize("flags", [[], ["--no-simplify"]], ids=["simplify", "no-simplify"])
    def test_toregex_buffer_round_trip(self, tmp_path, capsys, flags):
        dfa, back = tmp_path / "b600.json", tmp_path / "back.json"
        assert main(["gen", "buffer", "600", "-o", str(dfa)]) == 0
        assert main(["toregex", str(dfa), *flags]) == 0
        text = capsys.readouterr().out.strip()
        assert main(["convert", text, "--to", "follow", "-o", str(back)]) == 0
        assert main(["equiv", str(back), str(dfa)]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    @pytest.mark.parametrize("route", [None, "of", "follow", "pos"], ids=["measure", "of", "follow", "pos"])
    @pytest.mark.parametrize("deep", ["buffer", "tower"])
    def test_walks_take_any_depth(self, capsys, buffer_text, route, deep):
        text = buffer_text(3000) if deep == "buffer" else STAR_TOWER
        assert main(["measure", text] if route is None else ["convert", text, "--to", route]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("route", ["pd", "bdfa"])
    def test_recursive_routes_end_in_one_line(self, route):
        src = str(Path(refa.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "refa.cli", "convert", STAR_TOWER, "--to", route],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert run.returncode == 1 and run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")

    def test_state_cap_ends_in_one_line(self, monkeypatch, capsys):
        # construct reads the module's constructions when called, so a small
        # cap reaches convert without building 10**6 states
        capped = functools.partial(constructions.construct_brzozowski, cap=5)
        monkeypatch.setattr(constructions, "construct_brzozowski", capped)
        assert main(["convert", "(a+b)*a(a+b)(a+b)", "--to", "bdfa"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: derivative DFA exceeds 5 states\n"
        assert main(["convert", "(a+b)*a", "--to", "bdfa"]) == 0
