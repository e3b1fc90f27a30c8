"""Differential properties drawn by Hypothesis.

* `to_json` writes exactly what ``json.dumps(to_dict(a), indent=2)`` writes,
  on automata with int and string states (quotes, backslashes, control and
  non-ASCII characters), λ labels, and empty alphabets, finals and
  transitions; and both keep the order of the keyed sort they replaced, on
  int, string, mixed and bool states.
* JSON is a round trip: `from_dict` reads back what `to_json` wrote.
* `render` text is a fixpoint of ``render∘parse``, and ``parse∘render`` is
  the identity on trees already in the parser's left-nested form (not on
  every tree: `render` drops the brackets of nested unions and
  concatenations, which `parse` then nests to the left).
* The derivatives that one term table, shared across calls as in
  `construct_brzozowski`, builds in normal form for every iterated
  derivative of a tree equal the raw derivatives normalised afterwards.
* The derivative DFA, whose table orders union branches by identity, is
  the reference automaton built from text-ordered normal forms.
* `minimize` is canonical under renaming: a random DFA, complete or
  partial, with its states renamed by a seeded bijection onto ints or
  strings minimizes to the same automaton, in both modes.
* `simplify` and `ssnf` never grow and are idempotent, and `simplify`,
  built on one label table, gives the text of the earlier rewrite of the
  tree, also on trees that hold union-commuted copies of their subterms.
* On DFAs of 2-5 states, state elimination under every ordering,
  `arden_solve` and `mcnaughton_yamada`, simplified and raw, give
  expressions whose follow automata are equivalent to the input.
* The survey's size bounds hold on random and λ-heavy trees: the position
  automaton has awidth + 1 states and at most awidth·(awidth + 1)
  transitions (Glushkov 1961); the follow automaton (Ilie & Yu 2003) and
  the partial-derivative automaton (Antimirov 1996; Champarnaud & Ziadi
  2001) have no more states and no more transitions than it;
  `construct_of` has at most 2·size states; the five constructions
  accept the same language; and `minimize` of the derivative DFA has no
  more states and no more transitions than it.
* The C10 bound: on random DFAs of n states over Σ, every ordering of
  state elimination, `arden_solve` and `mcnaughton_yamada`, simplified
  and raw, give awidth at most |Σ|·4ⁿ; on any automaton with λ and
  parallel arcs, their size is at most (n + 1)·4ⁿ·(4·|Σ| + 5), the bound
  below which `refa toregex` skips the walk that checks its size cap.
* On digraphs of up to 7 vertices, `cycle_rank` equals the unmemoized
  deletion recursion, deleting any one vertex lowers it by at most one and
  never raises it (the floor its search relies on), and `sccs` agrees with
  networkx where networkx is installed.
* The CLI keeps its exit contract on mutated input, from a fixed seed: an
  expression text with characters inserted, deleted or replaced, through
  every `convert` route (the derivative DFA also under a small state cap)
  and `measure`, and an automaton file with fields set, deleted, extended
  or cut short, through `equiv`, `rank` and every `toregex` method.  The
  exit code is 0, 1 or 2; exit 1 prints one `error: ` line and nothing
  else; exit 0 prints no error, `convert`'s JSON loads back through `load`
  to the same text, and `toregex`'s text denotes the file's language.

Skipped where Hypothesis is not installed.
"""

import contextlib
import copy
import functools
import io
import json
import os
import random
import tempfile
from itertools import combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import refa.constructions as constructions
from refa.automata import Automaton, equivalent, from_dict, load, minimize, remove_lambda, to_dict, to_json
from refa.cli import main
from refa.constructions import (
    CONSTRUCTION_NAMES,
    _AciTerms,
    construct,
    construct_brzozowski,
    construct_follow,
    construct_of,
    construct_pd,
    construct_position,
)
from refa.digraphs import Digraph, cycle_rank, sccs
from refa.elimination import STRATEGIES, arden_solve, mcnaughton_yamada, simplify, state_elimination
from refa.expressions import EMPTY, measures, parse, random_expr, render, ssnf
from refa.families import buffer_dfa, random_dfa

from conftest import (
    commuted_duplicates_tree,
    lambda_heavy_tree,
    naive_cycle_rank,
    rebuild,
    reference_aci,
    reference_brzozowski,
    reference_derivative,
    reference_simplify,
    reference_to_dict,
    relabel,
    state_names,
)

NAMES = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x7fé€ 𝄞'), max_size=4) | st.text(max_size=4)
INTS = st.integers(-(10**12), 10**12)
STATES = INTS | NAMES
# bools alone, and mixed with the ints they equal
STATE_KINDS = {"int": INTS, "str": NAMES, "mixed": STATES, "bool": st.booleans() | st.integers(-2, 2)}


@st.composite
def automata(draw, states=STATES, letters=NAMES) -> Automaton:
    states = draw(st.lists(states, min_size=1, max_size=8, unique=True))
    # "" is no symbol: JSON writes λ as ""
    alphabet = draw(st.lists(letters.filter(bool), max_size=4, unique=True))
    state = st.sampled_from(states)
    arc = st.tuples(state, st.sampled_from([None, *alphabet]), state)
    return Automaton.make(
        states,
        alphabet,
        draw(state),
        draw(st.lists(state, max_size=len(states))),
        draw(st.lists(arc, max_size=24)),
    )


@settings(max_examples=100, deadline=None)
@given(automata())
def test_to_json_is_json_dumps_with_indent(aut):
    assert to_json(aut) == json.dumps(to_dict(aut), indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(automata())
def test_json_round_trip(aut):
    assert from_dict(json.loads(to_json(aut))) == aut


@pytest.mark.parametrize("kind", sorted(STATE_KINDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_serialized_order_is_the_keyed_sort(kind, data):
    # compared as JSON text, where a bool state and the int it equals differ
    aut = data.draw(automata(STATE_KINDS[kind]))
    reference = json.dumps(reference_to_dict(aut), indent=2)
    assert json.dumps(to_dict(aut), indent=2) == reference
    assert to_json(aut) == reference + "\n"


TREES = st.builds(
    lambda awidth, seed: random_expr(awidth, ["a", "b"], seed), st.integers(1, 10), st.integers(0, 10**6)
) | st.builds(lambda seed: lambda_heavy_tree(random.Random(seed), 6), st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_render_parse_round_trip(tree):
    text = render(tree)
    left_nested = parse(text)
    assert render(left_nested) == text
    assert parse(render(left_nested)) == left_nested


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_shared_memo_derivatives_equal_unmemoised_ones(tree):
    terms = _AciTerms()
    start = terms.intern(tree)
    assert start == reference_aci(rebuild(tree))
    seen = {id(start)}
    queue = [start]
    while queue and len(seen) < 60:
        term = queue.pop(0)
        for a in ("a", "b"):
            d = terms.table(term).get(a, EMPTY)
            fresh = reference_derivative(rebuild(term), a)
            assert d == fresh and render(d) == render(fresh)
            if id(d) not in seen:
                seen.add(id(d))
                queue.append(d)


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_derivative_dfa_is_the_reference_automaton(tree):
    assert to_dict(construct_brzozowski(tree)) == to_dict(reference_brzozowski(tree))


@pytest.mark.parametrize("rewrite", [simplify, ssnf], ids=["simplify", "ssnf"])
@settings(max_examples=100, deadline=None)
@given(TREES)
def test_rewrites_never_grow_and_are_idempotent(rewrite, tree):
    once = rewrite(tree)
    assert measures(once).size <= measures(tree).size
    assert rewrite(once) == once


@settings(max_examples=100, deadline=None)
@given(TREES | st.builds(lambda seed, depth: commuted_duplicates_tree(random.Random(seed), depth),
                         st.integers(0, 10**6), st.integers(1, 4)))
def test_simplify_is_the_reference_rewrite(tree):
    assert render(simplify(tree)) == render(reference_simplify(rebuild(tree)))


# awidth 1-12 over two or four letters, and λ-heavy trees
BOUND_TREES = st.builds(
    lambda awidth, letters, seed: random_expr(awidth, ["a", "b", "c", "d"][:letters], seed),
    st.integers(1, 12),
    st.sampled_from([2, 4]),
    st.integers(0, 10**6),
) | st.builds(lambda seed: lambda_heavy_tree(random.Random(seed), 6), st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(BOUND_TREES)
def test_size_bounds_of_the_constructions(tree):
    awidth, size = measures(tree).awidth, measures(tree).size
    pos = construct_position(tree)
    assert len(pos.states) == awidth + 1
    assert len(pos.transitions) <= awidth * (awidth + 1)
    for smaller in (construct_follow(tree), construct_pd(tree)):
        assert len(smaller.states) <= len(pos.states)
        assert len(smaller.transitions) <= len(pos.transitions)
    assert len(construct_of(tree).states) <= 2 * size


@settings(max_examples=100, deadline=None)
@given(BOUND_TREES)
def test_the_five_constructions_are_equivalent(tree):
    built = [construct(name, tree) for name in CONSTRUCTION_NAMES]
    for left, right in combinations(built, 2):
        assert equivalent(left, right)


@settings(max_examples=100, deadline=None)
@given(awidth=st.integers(1, 12), letters=st.sampled_from([2, 4]), seed=st.integers(0, 10**6))
def test_minimize_never_grows_the_derivative_dfa(awidth, letters, seed):
    dfa = construct_brzozowski(random_expr(awidth, ["a", "b", "c", "d"][:letters], seed))
    smaller = minimize(dfa)
    assert len(smaller.states) <= len(dfa.states)
    assert len(smaller.transitions) <= len(dfa.transitions)


def every_conversion(aut):
    """Each ordering of state elimination, `arden_solve` and
    `mcnaughton_yamada` (on the λ-free equal), simplified and raw."""
    plain = remove_lambda(aut)
    for simplify_steps in (True, False):
        yield from (state_elimination(aut, order, simplify_steps) for order in STRATEGIES)
        yield arden_solve(plain, simplify_steps)
        yield mcnaughton_yamada(plain, None, simplify_steps)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), letters=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_conversions_stay_within_the_c10_bound(n, letters, seed):
    aut = random_dfa(n, letters, seed)
    bound = len(aut.alphabet) * 4 ** len(aut.states)
    for expr in every_conversion(aut):
        assert measures(expr).awidth <= bound


@settings(max_examples=100, deadline=None)
@given(automata(st.integers(0, 7), st.sampled_from("abcd")))
def test_conversions_stay_within_the_size_bound_of_the_toregex_cap(aut):
    # each elimination step or matrix round builds labels of size at most
    # 4m + 12 from labels of at most m; the initial ones are at most 4·|Σ| + 1
    n = len(aut.states)
    bound = (n + 1) * 4**n * (4 * len(aut.alphabet) + 5)
    for expr in every_conversion(aut):
        assert measures(expr).size <= bound


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 5), letters=st.integers(1, 2), seed=st.integers(0, 10**6), order=st.sampled_from(STRATEGIES))
def test_converters_give_equivalent_expressions(n, letters, seed, order):
    aut = random_dfa(n, letters, seed)
    for simplify_steps in (True, False):
        for expr in (
            state_elimination(aut, order, simplify_steps),
            arden_solve(aut, simplify_steps),
            mcnaughton_yamada(aut, None, simplify_steps),
        ):
            assert equivalent(construct_follow(expr), aut)


@pytest.mark.parametrize("naming", ["int", "str"])
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    letters=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    partial=st.booleans(),
    renaming=st.integers(0, 10**6),
)
def test_minimize_is_canonical_under_renaming(naming, n, letters, seed, partial, renaming):
    aut = random_dfa(n, letters, seed)
    if partial:
        aut = minimize(aut, "partial")
    renamed = relabel(aut, state_names(naming, random.Random(renaming), len(aut.states)))
    for mode in ("complete", "partial"):
        assert minimize(renamed, mode) == minimize(aut, mode)


@st.composite
def digraphs(draw) -> Digraph:
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    return Digraph.make(range(n), draw(st.sets(st.tuples(vertex, vertex), max_size=n * n)))


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_cycle_rank_is_the_deletion_recursion(dg):
    assert cycle_rank(dg) == naive_cycle_rank(dg.vertices, dg.arcs)


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_cycle_rank_drops_by_at_most_one_per_deleted_vertex(dg):
    rank = cycle_rank(dg)
    for v in dg.vertices:
        rest = Digraph.make(dg.vertices - {v}, [(p, q) for p, q in dg.arcs if v not in (p, q)])
        assert cycle_rank(rest) <= rank <= cycle_rank(rest) + 1


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_sccs_agree_with_networkx(dg):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(dg.vertices)
    graph.add_edges_from(dg.arcs)
    assert set(sccs(dg)) == set(map(frozenset, nx.strongly_connected_components(graph)))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)` in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit_contract(code: int, out: str, err: str):
    assert code in (0, 1, 2), code
    if code == 0:
        assert err == "", err
    elif code == 1:
        assert out == "", out
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


SEED_TEXTS = ["(a+b)*ab", "a?b*+&", "(a1b2)*#", "((a+&)*b?)*", "a·b+c"]
# symbols, operators, brackets, a blank and a newline, an option dash, and
# letters and digits that are no ASCII
TEXT_CHARS = "ab1()+*?&#· \n-é²"


@st.composite
def mutated_texts(draw) -> str:
    """A seed expression text with up to four characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(SEED_TEXTS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        c = "" if edit == "delete" else draw(st.sampled_from(TEXT_CHARS))
        text = text[:i] + c + text[i + (edit != "insert") :]
    return text


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=mutated_texts(), route=st.sampled_from(CONSTRUCTION_NAMES + ("measure",)), cap=st.sampled_from([10**6, 2]))
def test_cli_keeps_its_exit_contract_on_mutated_texts(text, route, cap):
    argv = ["measure", text] if route == "measure" else ["convert", text, "--to", route]
    # under a cap of 2 states the derivative DFA refuses most texts
    capped = functools.partial(construct_brzozowski, cap=cap)
    with mock.patch.object(constructions, "construct_brzozowski", capped):
        code, out, err = run_cli(argv)
    check_exit_contract(code, out, err)
    if code == 0 and route != "measure":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "automaton.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out)
            assert to_json(load(path)) == out


AUTOMATON_FILES = [
    json.loads(to_json(aut))
    for aut in (
        buffer_dfa(2),
        construct_of("(a+&)b*"),  # λ-arcs, written with the label ""
        random_dfa(3, 2, 5),
        Automaton.make([0, "q"], ["a", "b"], 0, ["q"], [(0, "a", "q"), ("q", "b", 0), ("q", "a", "q")]),
    )
]
FIELDS = ("states", "alphabet", "initial", "finals", "transitions")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.just(1.5) | st.sampled_from(["a", "b", "", "q", "a²", "é"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FIELDS[:2]), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated_automaton_files(draw) -> str:
    """The JSON text of a small automaton with up to three of its fields set,
    deleted, extended or changed in one entry, one time in six cut short."""
    data = copy.deepcopy(draw(st.sampled_from(AUTOMATON_FILES)))
    for _ in range(draw(st.integers(0, 3))):
        field, edit = draw(st.sampled_from(FIELDS)), draw(st.sampled_from(("set", "delete", "append", "entry")))
        value = data.get(field)
        if edit == "delete" and field in data:
            del data[field]
        elif edit == "append" and isinstance(value, list):
            value.append(draw(JSON_VALUES))
        elif edit == "entry" and isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            if isinstance(value[i], list) and value[i]:  # one place of a transition
                value = value[i]
                i = draw(st.integers(0, len(value) - 1))
            value[i] = draw(JSON_VALUES)
        else:
            data[field] = draw(JSON_VALUES)
    text = json.dumps(data, indent=2)
    cut = draw(st.sampled_from([False] * 5 + [True]))
    return text[: draw(st.integers(0, len(text) - 1))] if cut else text


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    text=mutated_automaton_files(),
    command=st.sampled_from(["equiv", "rank", "eliminate", "arden", "mny"]),
    other=st.sampled_from(AUTOMATON_FILES),
    swap=st.booleans(),
)
def test_cli_keeps_its_exit_contract_on_mutated_automaton_files(text, command, other, swap):
    with tempfile.TemporaryDirectory() as tmp:
        path, other_path = os.path.join(tmp, "mutated.json"), os.path.join(tmp, "other.json")
        for name, content in ((path, text), (other_path, json.dumps(other))):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(content)
        if command == "equiv":
            argv = ["equiv", *((other_path, path) if swap else (path, other_path))]
        elif command == "rank":
            argv = ["rank", path]
        else:
            argv = ["toregex", path, "--method", command]
        code, out, err = run_cli(argv)
        check_exit_contract(code, out, err)
        if code == 0 and argv[0] == "toregex":
            assert equivalent(construct_follow(out.strip()), load(path)), out
