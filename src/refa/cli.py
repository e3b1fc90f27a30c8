"""Command line interface.

Subcommands: convert (regex to automaton), toregex (automaton to regex),
measure, equiv, gen (witness families), bench, rank (cycle rank and star
height).  Exit code 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import automata, bench, digraphs, elimination, expressions, families
from .constructions import CONSTRUCTION_NAMES, ConstructionError, construct

# the largest `toregex` output printed, by `measures(...).size`: about 5·10⁷
# characters, far above the tests' and benchmark cases' largest, 1.3·10⁶
MAX_RENDER_SIZE = 10**8


@functools.cache  # one parser per process: building it costs more than a small command
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="refa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="build an automaton from a regular expression")
    p.add_argument("regex")
    p.add_argument("--to", choices=sorted(CONSTRUCTION_NAMES), default="pos")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output")

    p = sub.add_parser("toregex", help="convert an automaton file to a regular expression")
    p.add_argument("automaton")
    p.add_argument("--method", choices=("eliminate", "arden", "mny"), default="eliminate")
    p.add_argument("--order", default="greedy", help="strategy name or fixed:<comma list>")
    p.add_argument("--no-simplify", action="store_true", help="skip per-step simplification")
    p.add_argument("--unicode", action="store_true", help="print λ and ∅ instead of & and #")

    p = sub.add_parser("measure", help="size measures of a regular expression")
    p.add_argument("regex")

    p = sub.add_parser("equiv", help="decide language equality of two automaton files")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("gen", help="generate a witness family or a random DFA")
    p.add_argument("family", choices=families.FAMILIES + ("random",))
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--regex", action="store_true", help="emit the expression, not the automaton")
    p.add_argument("--seed", type=int, help="default: $REFA_SEED, else 1")
    p.add_argument("-o", "--output")

    p = sub.add_parser("bench", help="benchmark constructions or elimination orderings")
    p.add_argument("what", choices=("constructions", "orderings"))
    p.add_argument("--families", default="buffer=1,2,4,8;options=4,8,16", help="name=n1,n2;...")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, help="default: $REFA_SEED, else 1")
    p.add_argument("-o", "--output")

    p = sub.add_parser("rank", help="cycle rank and, when defined, star height")
    p.add_argument("automaton")
    p.add_argument("--budget", type=int, default=18)
    return parser


@functools.cache  # read off the built sub-parsers on the first call
def _direct_table() -> dict[str, tuple[dict, list, dict]]:
    """Per subcommand whose arguments each take one value or none: its
    options by option string, its positionals and its starting values."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        if not all(
            isinstance(a, argparse._StoreConstAction) or type(a) is argparse._StoreAction and a.nargs is None
            for a in actions
        ):
            continue  # gen: its params take several values
        options = {s: a for a in actions for s in a.option_strings}
        starts = {"command": name, **{a.dest: a.default for a in actions}}
        table[name] = (options, [a for a in actions if not a.option_strings], starts)
    return table


def _read_direct(argv) -> argparse.Namespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns when argv
    is plain and well formed, else None.  Plain: each token that starts with
    ``-`` is one of the subcommand's option strings, not ``-h``/``--help``;
    an option's value is the next token and does not start with ``-``."""
    argv = sys.argv[1:] if argv is None else argv
    entry = _direct_table().get(argv[0]) if argv else None
    if entry is None:
        return None
    options, positionals, starts = entry
    values, pending, tokens = dict(starts), iter(positionals), iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            action = options.get(token)
            if action is None:
                return None
            if isinstance(action, argparse._StoreConstAction):
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")  # a missing value declines like a dash
            if token.startswith("-"):
                return None
        else:
            action = next(pending, None)
            if action is None:  # one positional too many
                return None
        try:
            value = action.type(token) if action.type else token
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value  # a repeated option keeps its last value
    return None if next(pending, None) else argparse.Namespace(**values)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _is_int_text(text: str) -> bool:
    """Whether a `fixed:` entry names an int state: at most one leading
    ``-``, then one or more ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _parse_order(spec: str):
    if spec.startswith("fixed:"):
        return [int(s) if _is_int_text(s) else s for s in spec[len("fixed:") :].split(",")]
    if spec in elimination.STRATEGIES:
        return spec
    raise ValueError(f"unknown order {spec!r}")


def _cmd_convert(args) -> int:
    aut = construct(args.to, args.regex)
    if args.format == "dot":
        _emit(automata.to_dot(aut), args.output)
    else:
        _emit(automata.to_json(aut), args.output)
    return 0


def _cmd_toregex(args) -> int:
    aut = automata.load(args.automaton)
    order = _parse_order(args.order)  # arden takes none, mny only a fixed one
    simplify_steps = not args.no_simplify
    if args.method == "eliminate":
        expr = elimination.state_elimination(aut, order, simplify_steps)
    elif args.method == "arden":
        expr = elimination.arden_solve(automata.remove_lambda(aut), simplify_steps)
    else:
        ranking = order if isinstance(order, list) else None
        expr = elimination.mcnaughton_yamada(automata.remove_lambda(aut), ranking, simplify_steps)
    # each elimination step or matrix round makes labels of size ≤ 4m + 12 from
    # labels of size ≤ m; the label is walked only where that bound passes the cap
    n, cap = len(aut.states), MAX_RENDER_SIZE
    if (n + 1) * 4**n * (4 * len(aut.alphabet) + 5) > cap and expressions.measures(expr).size > cap:
        raise ValueError(f"expression size {expressions.measures(expr).size} is over the cap of {cap}; not printed")
    print(expressions.render(expr, unicode=args.unicode))
    return 0


def _cmd_measure(args) -> int:
    report = expressions.measures(args.regex)
    for field in ("size", "rpn", "awidth", "height"):
        print(f"{field}: {getattr(report, field)}")
    return 0


def _cmd_equiv(args) -> int:
    left = automata.load(args.left)
    right = automata.load(args.right)
    witness = automata.distinguishing_word(left, right)
    if witness is None:
        print("equivalent")
    else:
        # witnesses are reported only after both automata confirm them, over
        # the union alphabet the witness was found in
        sigma = left.alphabet | right.alphabet
        assert automata.accepts(automata._widen(left, sigma), witness) != automata.accepts(
            automata._widen(right, sigma), witness
        )
        print(f"inequivalent: {''.join(witness) or '&'}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "random":
        if len(args.params) != 2:
            raise ValueError("family random takes 2 parameter(s)")
        n, k = args.params
        aut = families.random_dfa(n, k, args.seed)
        artifact = families.FamilyArtifact("random", (n, k), None, aut)
    else:
        artifact = families.gen_family(args.family, *args.params)
    if args.regex:
        if artifact.regex is None:
            raise ValueError(f"family {args.family} has no expression form")
        _emit(expressions.render(artifact.regex) + "\n", args.output)
        return 0
    if artifact.automaton is None:
        raise ValueError(f"family {args.family} has no automaton form; use --regex")
    _emit(automata.to_json(artifact.automaton), args.output)
    return 0


def _cmd_bench(args) -> int:
    if args.what == "constructions":
        runs: dict[str, list[int]] = {}
        for part in args.families.split(";"):
            name, _, sizes = part.partition("=")
            runs[name.strip()] = [int(s) for s in sizes.split(",")]
        records = bench.bench_constructions(runs)
    else:
        if args.samples < 0:
            raise ValueError(f"--samples must be >= 0, not {args.samples}")
        records = bench.bench_orderings(
            n=args.n, alphabet_size=args.alphabet, samples=args.samples, seed=args.seed
        )
    _emit(bench.to_csv(records), args.output)
    if args.what == "orderings":
        for method, median in bench.summarize_orderings(records):
            print(f"median awidth {method}: {median:g}", file=sys.stderr)
    return 0


def _cmd_rank(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, not {args.budget}")
    aut = automata.load(args.automaton)
    dg = digraphs.underlying_digraph(aut)
    rank = None
    try:
        rank = digraphs.cycle_rank(dg, args.budget)
        print(f"cycle rank: {rank}")
    except digraphs.CycleRankBudgetError:
        print(f"cycle rank upper bound: {digraphs.cycle_rank_upper(dg)}")
    try:
        # when minimisation only renamed the states, the star height is `rank`
        minimal = automata.minimize(aut, "partial")
        if not automata.is_bideterministic(minimal):
            raise digraphs.NotBideterministicError
        if rank is None or automata.fa_measures(minimal) != automata.fa_measures(aut):
            rank = digraphs.cycle_rank(digraphs.underlying_digraph(minimal), args.budget)
        print(f"star height: {rank}")
    except (digraphs.NotBideterministicError, automata.NotDeterministicError):
        print("star height: undetermined (not bideterministic)")
    except digraphs.CycleRankBudgetError:
        print("star height: not computed (exact cycle rank over budget)")
    return 0


_COMMANDS = {
    "convert": _cmd_convert,
    "toregex": _cmd_toregex,
    "measure": _cmd_measure,
    "equiv": _cmd_equiv,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "rank": _cmd_rank,
}


def main(argv=None) -> int:
    try:
        args = _read_direct(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text = os.environ.get("REFA_SEED", "1")
        try:
            seed = int(text)  # as argparse reads --seed
        except ValueError:
            raise ValueError(f"REFA_SEED must be an integer, not {text!r}") from None
        if getattr(args, "seed", 0) is None:  # a --seed option left unset
            args.seed = seed
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, RecursionError, ConstructionError) as exc:
        # RecursionError: the per-term walks recurse, so nesting deeper than
        # the recursion limit is a domain error too, as is passing a state cap
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
