import contextlib
import gc
import io
import json
import random
import weakref
from dataclasses import astuple
from pathlib import Path

import pytest

import refa.elimination as elimination
from refa.automata import Automaton, _state_key, equivalent, from_dict, load, remove_lambda
from refa.cli import main
from refa.constructions import _AciTerms, construct_brzozowski, construct_follow
from refa.digraphs import _cycles_at, _index, underlying_digraph
from refa.elimination import (
    SINK,
    SOURCE,
    arden_solve,
    augment,
    bridge_states,
    eliminate_state,
    make_ordering,
    mcnaughton_yamada,
    STRATEGIES,
    simplify,
    state_elimination,
)
from refa.expressions import EMPTY, EPSILON, Concat, Star, Sym, Union, measures, parse, render
from refa.families import buffer_dfa, hypercube_dfa, random_dfa, torus_dfa

from conftest import (
    commuted_duplicates_tree,
    corpus,
    eliminate_automata,
    full_mny_matrix,
    lambda_heavy_tree,
    lang,
    path_pairs,
    reference_arden_solve,
    reference_cycles_through,
    reference_labels_union,
    reference_mcnaughton_yamada,
    reference_simplify,
    reference_state_elimination,
    scan_eliminate,
    shared_kid_dags,
)


class TestSimplify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("#+##*#", "#"),
            ("&a", "a"),
            ("(a*)*", "a*"),
            ("a&", "a"),
            ("a#", "#"),
            ("#*", "&"),
            ("&*", "&"),
            ("a+#", "a"),
            ("a+a", "a"),
            ("a+b+a", "a+b"),
            ("ab+ba+ab", "ab+ba"),
            ("&+aa*", "a*"),
            ("&+a*a", "a*"),
            ("aa*+&", "a*"),
            ("b+&+aa*", "b+a*"),
        ],
    )
    def test_rules(self, text, expected):
        assert render(simplify(parse(text))) == expected

    def test_union_dedup_modulo_commutativity(self):
        assert render(simplify(parse("(a+b)c+(b+a)c"))) == "(a+b)c"

    def test_idempotent(self, small_corpus):
        for r in small_corpus:
            assert simplify(simplify(r)) == simplify(r)

    def test_size_nonincreasing(self, small_corpus):
        for r in small_corpus:
            assert measures(simplify(r)).size <= measures(r).size

    def test_concatenations_keep_their_nesting(self):
        # the label table interns a chain pair by pair; the derivative DFA's
        # table, which takes it whole, right-associates it
        assert simplify(parse("abc")) == Concat(Concat(Sym("a"), Sym("b")), Sym("c"))
        assert simplify(parse("a(bc)")) == Concat(Sym("a"), Concat(Sym("b"), Sym("c")))
        assert simplify(parse("(&a)(b&)c")) == Concat(Concat(Sym("a"), Sym("b")), Sym("c"))

    def test_language_preserved(self):
        for r in corpus(80, seed=7700, max_awidth=6):
            assert lang(simplify(r), 5) == lang(r, 5)


class TestLabelUnionChains:
    """`_Labels.union` extends the chain of a union passed first; it must
    give what gathering every branch afresh gave, on a twin table."""

    LEAVES = [Sym("a"), Sym("b"), Sym("c"), Sym("d"), Sym("a", 1), EPSILON, EMPTY]

    def branch(self, rng, depth=2):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(self.LEAVES)
        x = self.branch(rng, depth - 1)
        if roll < 0.55:
            return Concat(x, Star(x)) if rng.random() < 0.5 else Concat(Star(x), x)
        if roll < 0.7:
            return Star(x)
        if roll < 0.85:
            return Concat(x, self.branch(rng, depth - 1))
        return Union(x, self.branch(rng, depth - 1))  # a union as a later argument

    @staticmethod
    def grow(table, union, recipes) -> list:
        """The text and branch texts of each step's label, for a union that
        grows by one recipe a step, built on `table` with `union`."""

        def build(r):
            if isinstance(r, Union):
                return union(table, [build(r.left), build(r.right)])
            if isinstance(r, Concat):
                return table.cat(build(r.left), build(r.right))
            if isinstance(r, Star):
                return table.star(build(r.inner))
            return table.intern(r)  # `a1` is a second term of the class of `a`

        def seen(t):
            return render(t), [render(b) for b in table.unions[id(t)].values()] if id(t) in table.unions else None

        acc = build(recipes[0])
        out = [seen(acc)]
        for i in range(1, len(recipes)):
            parts = [acc, build(recipes[i])]
            if i % 7 == 3:
                parts.append(build(recipes[i // 2]))  # a class met before
            acc = union(table, parts)
            out.append(seen(acc))
        return out

    def test_growing_chains_match_the_reference(self):
        rng = random.Random(2810)
        for trial in range(60):
            recipes = [self.branch(rng) for _ in range(rng.randint(1, 300))]
            lam = trial % 3  # λ first, λ last, or only where a branch brings it
            if lam == 0:
                recipes.insert(0, EPSILON)
            elif lam == 1:
                recipes.append(EPSILON)
            got = self.grow(elimination._Labels(), elimination._Labels.union, recipes)
            assert got == self.grow(elimination._Labels(), reference_labels_union, recipes), trial


    def test_classed_symbols_are_held(self):
        # a class is filed under the symbol's id, so the table must hold the
        # symbol: a freed one could hand its class to a node that reuses the id
        table = elimination._Labels()
        b = Sym("b")
        table.union([b, EMPTY])  # b is classed, and built into no node
        held = weakref.ref(b)
        del b
        gc.collect()
        assert held() is not None

    def test_a_node_united_with_itself_is_the_node(self, monkeypatch):
        # x+x is x: each union of this DAG, 20 deep, hands its table's
        # `union` two terms; collected by occurrence, the root handed 2 097 152
        longest = [0]
        for cls in (_AciTerms, elimination._Labels):

            def counted(table, terms, union=cls.union):
                longest[0] = max(longest[0], len(terms))
                return union(table, terms)

            monkeypatch.setattr(cls, "union", counted)
        x = Union(Sym("a"), Sym("b"))
        for _ in range(20):
            x = Union(x, x)
        assert len(construct_brzozowski(x).states) == 3
        assert render(simplify(x)) == "a+b"
        assert longest[0] == 2


class TestAugment:
    def test_self_loop_automaton(self):
        aut = Automaton.make([0], {"a"}, 0, {0}, [(0, "a", 0)])
        ext = augment(aut)
        assert ext.label(SOURCE, 0) == EPSILON
        assert ext.label(0, SINK) == EPSILON
        assert ext.label(0, 0) == Sym("a")

    def test_buffer_node_count(self):
        ext = augment(buffer_dfa(2))
        assert len(ext.states) == 5

    def test_parallel_arcs_fold(self):
        aut = Automaton.make([0, 1], {"a", "b"}, 0, {1}, [(0, "a", 1), (0, "b", 1)])
        assert render(augment(aut).label(0, 1)) == "a+b"


class TestEliminateState:
    def test_loop_between_source_and_sink(self):
        aut = Automaton.make([0], {"a"}, 0, {0}, [(0, "a", 0)])
        ext = eliminate_state(augment(aut), 0)
        assert render(ext.label(SOURCE, SINK)) == "a*"

    def test_middle_of_chain(self):
        aut = Automaton.make([0, 1, 2], {"a", "b"}, 0, {2}, [(0, "a", 1), (1, "b", 2)])
        ext = eliminate_state(augment(aut), 1)
        assert render(ext.label(0, 2)) == "ab"

    def test_buffer_one_two_steps(self):
        ext = augment(buffer_dfa(1))
        ext = eliminate_state(ext, 1)
        ext = eliminate_state(ext, 0)
        assert render(ext.label(SOURCE, SINK)) == "(ab)*"

    def test_rejects_endpoints(self):
        ext = augment(buffer_dfa(1))
        with pytest.raises(ValueError):
            eliminate_state(ext, SOURCE)


    def test_leaves_its_argument_unchanged(self):
        # the step rewrites rows in place, so eliminate_state must copy each
        # row it touches; labels are compared by identity
        def snapshot(ext):
            rows = [[(p, [(k, id(e)) for k, e in row.items()]) for p, row in side.items()] for side in (ext.out, ext.into)]
            return ext.states, rows

        auts = [random_dfa(n, k, seed=6300 + 10 * n + k) for n in range(1, 8) for k in (1, 2)]
        for aut in [*auts, buffer_dfa(8), torus_dfa(3, 3)]:
            for simplify_labels in (True, False):
                ext = augment(aut)
                for q in sorted(aut.states, key=_state_key):
                    before = snapshot(ext)
                    for other in ext.states - {SOURCE, SINK}:
                        eliminate_state(ext, other, simplify_labels)
                        assert snapshot(ext) == before, (aut, other)
                    ext = eliminate_state(ext, q, simplify_labels)


class TestLabelTables:
    """A `_Labels` table belongs to the run that fills it: a run with
    simplified labels makes one, a raw run and a bare carrier none."""

    def test_only_simplified_runs_make_a_table(self, monkeypatch):
        made = [0]
        init = elimination._Labels.__init__

        def counted(self):
            init(self)
            made[0] += 1

        def tables(run, *args):
            made[0] = 0
            run(*args)
            return made[0]

        monkeypatch.setattr(elimination._Labels, "__init__", counted)
        for aut in eliminate_automata():
            assert tables(augment, aut) == 0
            assert tables(bridge_states, aut) == 0
            for simplify_labels in (True, False):
                ext = augment(aut)
                for q in sorted(aut.states, key=_state_key):
                    assert tables(eliminate_state, ext, q, simplify_labels) == simplify_labels
                    ext = eliminate_state(ext, q, simplify_labels)
                assert tables(arden_solve, aut, simplify_labels) == simplify_labels
                assert tables(mcnaughton_yamada, aut, None, simplify_labels) == simplify_labels
            fixed = sorted(aut.states, key=_state_key, reverse=True)
            for order in (*STRATEGIES, fixed):
                # a raw run of a dynamic order takes it from a simplified pass
                dynamic = order in ("greedy", "dm", "indep", "bridge")
                assert tables(state_elimination, aut, order) == 1, order
                assert tables(state_elimination, aut, order, False) == dynamic, order


class TestStateElimination:
    def test_buffer6_descending_order(self):
        got = state_elimination(buffer_dfa(6), [6, 5, 4, 3, 2, 1, 0])
        assert render(got) == "(a(a(a(a(a(ab)*b)*b)*b)*b)*b)*"

    def test_buffer6_alternating_order(self):
        got = state_elimination(buffer_dfa(6), [0, 2, 4, 6, 1, 5, 3])
        assert measures(got).height == 2
        assert equivalent(construct_follow(got), buffer_dfa(6))

    def test_no_final_state(self):
        aut = Automaton.make([0], {"a"}, 0, [], [(0, "a", 0)])
        assert render(state_elimination(aut, [0])) == "#"

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            state_elimination(buffer_dfa(2), [0, 1])

    def test_all_strategies_equivalent(self):
        # raw outputs keep λ and ∅ terms that the follow automaton must handle
        for i in range(6):
            aut = random_dfa(5, 2, seed=880 + i)
            for strategy in ("id", "greedy", "dm", "cycles", "indep", "bridge"):
                for simplify_steps in (True, False):
                    expr = state_elimination(aut, strategy, simplify_steps)
                    assert equivalent(construct_follow(expr), aut), (i, strategy, simplify_steps)

    def test_awidth_bound(self):
        for i in range(8):
            aut = random_dfa(6, 2, seed=900 + i)
            bound = 2 * 4 ** len(aut.states)
            for strategy in ("id", "greedy", "dm", "cycles", "indep", "bridge"):
                assert measures(state_elimination(aut, strategy)).awidth <= bound

    def test_dynamic_orders_eliminate_each_state_once(self, monkeypatch):
        # the order is chosen while eliminating: no separate simulation pass
        import refa.elimination as elimination

        calls = []
        step = elimination._step

        def counted(out, into, q, terms):
            calls.append(q)
            return step(out, into, q, terms)

        monkeypatch.setattr(elimination, "_step", counted)
        for aut in (hypercube_dfa(3), buffer_dfa(6), random_dfa(7, 2, seed=31)):
            for strategy in ("greedy", "dm", "indep", "bridge"):
                calls.clear()
                state_elimination(aut, strategy)
                assert sorted(calls) == sorted(aut.states), strategy

    def test_matches_arden_on_buffer_family(self):
        # same substitution order: both produce the same expression text
        for n in (1, 3, 6):
            aut = buffer_dfa(n)
            by_elimination = state_elimination(aut, list(range(n, -1, -1)))
            by_equations = arden_solve(aut)
            assert render(by_elimination) == render(by_equations)


class TestOrderings:
    def test_fixed_on_chain_greedy(self):
        assert make_ordering(buffer_dfa(2), "greedy") == [2, 1, 0]

    def test_hypercube_independent_first(self):
        order = make_ordering(hypercube_dfa(3), "indep")
        assert order[:4] == [0, 3, 5, 6]  # the even-parity vertices

    def test_dag_cycles_falls_back_to_id(self):
        dag = Automaton.make([0, 1, 2], {"a"}, 0, {2}, [(0, "a", 1), (1, "a", 2)])
        assert make_ordering(dag, "cycles") == [0, 1, 2]

    def test_cycles_counts_every_state_from_one_index(self):
        # and a chain of 301 states
        for aut in [*eliminate_automata(), buffer_dfa(300)]:
            dg = underlying_digraph(aut)
            vertices, succ, _ = _index(dg)
            counts = {q: reference_cycles_through(dg, q, 10**5) for q in aut.states}
            for i, q in enumerate(vertices):
                assert astuple(_cycles_at(succ, i, 10**5)) == counts[q]
            assert make_ordering(aut, "cycles") == sorted(aut.states, key=lambda q: (counts[q][0], _state_key(q)))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_ordering(buffer_dfa(1), "nope")

    def test_bridge_detection(self):
        # two loops joined by a mandatory pass-through state 2
        aut = Automaton.make(
            [0, 1, 2, 3, 4],
            {"a", "b"},
            0,
            {4},
            [
                (0, "a", 1), (1, "b", 0), (1, "a", 2),
                (2, "a", 3), (3, "a", 4), (4, "b", 3),
            ],
        )
        assert bridge_states(aut) == frozenset({2})
        order = make_ordering(aut, "bridge")
        assert order[-1] == 2

    def test_bridge_states_by_brute_force(self):
        # a bridge lies on no cycle, and deleting it cuts every path from
        # the initial state to a final one
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            arcs = {
                (rng.randrange(n), rng.choice(["a", "b", None]), rng.randrange(n))
                for _ in range(rng.randint(0, 2 * n))
            }
            finals = {q for q in range(n) if rng.random() < 0.3}
            aut = Automaton.make(range(n), {"a", "b"}, 0, finals, arcs)
            pairs = [("S", 0)] + [(p, q) for p, _, q in arcs] + [(f, "T") for f in finals]
            cyclic = path_pairs(range(n), pairs)
            expected = {
                q
                for q in range(n)
                if (q, q) not in cyclic
                and ("S", "T") not in path_pairs(
                    [v for v in ["S", "T", *range(n)] if v != q],
                    [(u, v) for u, v in pairs if q not in (u, v)],
                )
            }
            assert bridge_states(aut) == expected, seed

    def test_independent_first_beats_worst_fixed_on_hypercube(self):
        import random as rnd

        aut = hypercube_dfa(3)
        indep = measures(state_elimination(aut, "indep")).awidth
        rng = rnd.Random(123)
        states = sorted(aut.states)
        worst = 0
        for _ in range(20):
            perm = states[:]
            rng.shuffle(perm)
            worst = max(worst, measures(state_elimination(aut, perm)).awidth)
        assert indep < worst


class TestArden:
    def test_buffer_one(self):
        assert render(arden_solve(buffer_dfa(1))) == "(ab)*"

    def test_buffer_six(self):
        assert render(arden_solve(buffer_dfa(6))) == "(a(a(a(a(a(ab)*b)*b)*b)*b)*b)*"

    def test_single_dead_state(self):
        aut = Automaton.make([0], {"a"}, 0, [], [])
        assert render(arden_solve(aut)) == "#"

    def test_rejects_lambda(self):
        aut = Automaton.make([0, 1], {"a"}, 0, {1}, [(0, None, 1)])
        with pytest.raises(ValueError):
            arden_solve(aut)

    def test_equivalent_on_random_dfas(self):
        for i in range(6):
            aut = random_dfa(5, 2, seed=950 + i)
            for simplify_steps in (True, False):
                assert equivalent(construct_follow(arden_solve(aut, simplify_steps)), aut)


class TestMcNaughtonYamada:
    def test_buffer_three_exact(self):
        got = mcnaughton_yamada(buffer_dfa(3), [3, 2, 1, 0])
        assert render(got, unicode=True) == "λ+(a(a(ab)*b)*b)*a(a(ab)*b)*b"

    def test_intermediate_matrices(self):
        from refa.elimination import _Labels, _mny_matrix

        aut = buffer_dfa(3)
        first = _mny_matrix(aut, [3], _Labels(), aut.states, aut.states)
        second = _mny_matrix(aut, [3, 2], _Labels(), aut.states, aut.states)
        assert render(first[(2, 2)]) == "ab"
        assert render(first[(3, 2)]) == "b"
        assert render(first[(2, 3)]) == "a"
        assert render(second[(1, 1)]) == "a(ab)*b"
        assert render(second[(2, 2)]) == "(ab)*ab"
        assert render(second[(1, 2)]) == "a(ab)*"
        assert render(second[(3, 1)]) == "b(ab)*b"

    def test_buffer_one(self):
        got = mcnaughton_yamada(buffer_dfa(1), [1, 0])
        assert render(got, unicode=True) == "λ+(ab)*ab"

    def test_single_state_loop(self):
        aut = Automaton.make([0], {"a"}, 0, {0}, [(0, "a", 0)])
        raw = mcnaughton_yamada(aut)
        assert render(raw) == "&+a*a"
        assert render(simplify(raw)) == "a*"

    def test_ranking_validation(self):
        with pytest.raises(ValueError):
            mcnaughton_yamada(buffer_dfa(2), [0, 1])

    def test_equivalent_on_random_dfas(self):
        for i in range(6):
            aut = random_dfa(5, 2, seed=970 + i)
            for simplify_steps in (True, False):
                expr = mcnaughton_yamada(aut, None, simplify_steps)
                assert equivalent(construct_follow(expr), aut)


def golden_automata(folder) -> dict:
    """The automata that `toregex_golden.json` converts, by name."""
    golden = json.loads((Path(__file__).parent / "toregex_golden.json").read_text(encoding="utf-8"))
    auts = {}
    for name, spec in golden["inputs"]:
        if isinstance(spec, dict):
            auts[name] = from_dict(spec)
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*spec, "-o", str(folder / f"{name}.json")]) == 0
            auts[name] = load(folder / f"{name}.json")
    return auts


def assert_converters_match_reference(aut, orders):
    """Equal text from the label table and the reference rewrite, for the
    given orders and both methods, simplified and raw."""
    plain = remove_lambda(aut)
    for simplify_steps in (True, False):
        for order in orders:
            got = state_elimination(aut, order, simplify_steps)
            assert render(got) == render(reference_state_elimination(aut, order, simplify_steps)), order
        got = arden_solve(plain, simplify_steps)
        assert render(got) == render(reference_arden_solve(plain, simplify_steps))
        got = mcnaughton_yamada(plain, None, simplify_steps)
        assert render(got) == render(reference_mcnaughton_yamada(plain, None, simplify_steps))


class TestAgainstReference:
    """The label table gives the text that the rewrite of each raw label
    by the earlier simplifier gave."""

    def test_witness_and_random_dfas(self):
        witnesses = [buffer_dfa(3), buffer_dfa(6), torus_dfa(2, 2), torus_dfa(2, 3), torus_dfa(3, 3), hypercube_dfa(3)]
        for aut in witnesses:
            assert_converters_match_reference(aut, STRATEGIES)
        for seed in range(40):
            aut = random_dfa(2 + seed % 6, 1 + seed % 3, seed=4400 + seed)
            assert_converters_match_reference(aut, STRATEGIES)

    def test_golden_inputs(self, tmp_path):
        for name, aut in golden_automata(tmp_path).items():
            descending = sorted(aut.states, key=_state_key, reverse=True)
            assert_converters_match_reference(aut, [*STRATEGIES, descending])
            plain = remove_lambda(aut)
            for simplify_steps in (True, False):
                ranking = sorted(plain.states, key=_state_key)
                got = mcnaughton_yamada(plain, ranking, simplify_steps)
                assert render(got) == render(reference_mcnaughton_yamada(plain, ranking, simplify_steps)), name

    def test_initial_state_not_the_least(self):
        # arden solves for the initial state last, wherever its key falls;
        # every other input here starts at 0, the least key
        rng = random.Random(4500)
        for seed in range(8):
            n = 3 + seed % 4
            moves = [(p, a, q) for p in range(n) for a in ("a", "b", None) for q in range(n) if rng.random() < 0.25]
            lam = Automaton.make(range(n), "ab", 1 + seed % (n - 1), rng.sample(range(n), 1 + seed % 2), moves)
            assert not lam.is_lambda_free()
            assert_converters_match_reference(lam, STRATEGIES)
        named = Automaton.make(
            ["x", "b", "q", "a"], "ab", "q", ["a", "x"],
            [("q", "a", "b"), ("b", "b", "x"), ("x", "a", "q"), ("b", "a", "a"),
             ("a", "b", "q"), ("a", "a", "a"), ("x", "b", "b")],
        )
        assert_converters_match_reference(named, STRATEGIES)

    def test_simplify_on_commuted_duplicates(self):
        texts = ["(a+b)c+(b+a)c", "((a+b)c+(b+a)c)*d((b+a)c+(a+b)c)", "&+(a+b)(b+a)*"]
        for r in [*map(parse, texts), *shared_kid_dags()]:
            assert render(simplify(r)) == render(reference_simplify(r))
        for seed in range(400):
            r = commuted_duplicates_tree(random.Random(seed), 1 + seed % 4)
            assert render(simplify(r)) == render(reference_simplify(r)), seed

    def test_simplify_on_random_trees(self):
        for r in corpus(200, seed=4500, max_awidth=12):
            assert render(simplify(r)) == render(reference_simplify(r))
        for seed in range(300):
            r = lambda_heavy_tree(random.Random(seed), 6)
            assert render(simplify(r)) == render(reference_simplify(r))


def on_package_and_reference(monkeypatch, run):
    """run() on the package, then with `scan_eliminate` and
    `full_mny_matrix` in place of `_eliminate` and `_mny_matrix`."""
    got = run()
    with monkeypatch.context() as patched:
        patched.setattr(elimination, "_eliminate", scan_eliminate)
        patched.setattr(elimination, "_mny_matrix", full_mny_matrix)
        return got, run()


def random_dfas(seeds):
    """Random DFAs of 1-9 states over 1-3 letters, `seeds` of each size."""
    return [random_dfa(n, k, seed=5000 + 100 * n + 10 * k + i) for n in range(1, 10) for k in (1, 2, 3) for i in range(seeds)]


class TestScoreHeapAndNeededEntries:
    """Dynamic orders from the score heap, and McNaughton-Yamada on the
    entries that reach the answer, give what the scan over every
    remaining state and every entry of every round gave."""

    def test_dynamic_orders_match_the_scan(self, monkeypatch):
        tori = [torus_dfa(m, n) for n in range(1, 5) for m in range(1, min(n, 3) + 1)]
        witnesses = [*(buffer_dfa(n) for n in range(1, 13)), *tori, hypercube_dfa(3), hypercube_dfa(4)]
        for aut in random_dfas(14) + witnesses:
            raw = len(aut.states) < 12

            def run():
                return [
                    (make_ordering(aut, order), render(state_elimination(aut, order)),
                     raw and render(state_elimination(aut, order, False)))
                    for order in ("greedy", "dm", "indep", "bridge")
                ]

            got, want = on_package_and_reference(monkeypatch, run)
            assert got == want, aut

    def test_mcnaughton_yamada_matches_every_entry(self, monkeypatch):
        small = [*(buffer_dfa(n) for n in range(1, 9)), torus_dfa(2, 4), torus_dfa(3, 3), hypercube_dfa(3)]
        for seed, aut in enumerate(random_dfas(26) + small):
            rng = random.Random(seed)
            states = sorted(aut.states, key=_state_key)
            rankings = [None, *(rng.sample(states, len(states)) for _ in range(2))]

            def run():
                return [render(mcnaughton_yamada(aut, r, s)) for r in rankings for s in (True, False)]

            got, want = on_package_and_reference(monkeypatch, run)
            assert got == want, (seed, aut)
