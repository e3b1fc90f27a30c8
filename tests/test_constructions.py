import contextlib
import gc
import importlib
import io
import random
import sys
import weakref
from collections import Counter, deque
from pathlib import Path

import pytest

import refa
import refa.constructions as constructions
from refa.automata import (
    Automaton,
    accepts,
    equivalent,
    fa_measures,
    minimize,
    remove_lambda,
    subset_construction,
    to_dict,
    to_json,
)
from refa.cli import main
from refa.constructions import (
    ConstructionError,
    _AciTerms,
    _FollowBuilder,
    _Terms,
    construct_brzozowski,
    construct_follow,
    construct_of,
    construct_pd,
    construct_position,
    derivative,
    partial_derivatives,
    position_sets,
)
from refa.elimination import STRATEGIES, arden_solve, mcnaughton_yamada, simplify, state_elimination
from refa.expressions import (
    EMPTY,
    EPSILON,
    Concat,
    Empty,
    Epsilon,
    Option,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    _postorder,
    mark,
    measures,
    nullable,
    parse,
    random_expr,
    render,
)
from refa.families import buffer_regex, options_regex, row1_regex, row2_regex, row3_regex, torus_dfa

from conftest import (
    ReferenceTerms,
    canonical,
    corpus,
    eliminate_automata,
    follow_quotient,
    lambda_heavy_tree,
    lang,
    letters_of,
    pd_term_orders,
    prefix_intern,
    rebuild,
    reference_aci,
    reference_brzozowski,
    reference_cat,
    reference_construct_follow,
    reference_construct_of,
    reference_construct_pd,
    reference_construct_position,
    reference_derivative,
    reference_nullable,
    reference_parse,
    reference_position_sets,
    shared_kid_dags,
    words_upto,
)
from test_expressions import SYNTAX_ERRORS


@pytest.fixture
def round_trip_texts(tmp_path, monkeypatch):
    """The 75 labels that perfbench's seed-1 eliminate workload converts
    back with `convert --to follow`, up to 2 539 symbols wide."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.chdir(tmp_path)
    workload = importlib.import_module("workloads").build("eliminate", 1, refa, tmp_path / "eliminate", tmp_path)
    texts = []
    for first, *round_trip in workload.units:
        if round_trip:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(first.argv) == 0
            texts.append(out.getvalue().strip())
    assert len(texts) == 75
    return texts


class TestOttFeinstein:
    def test_single_symbol(self):
        aut = construct_of(parse("a"))
        assert len(aut.states) == 2
        assert len(aut.transitions) == 1

    def test_empty_set(self):
        aut = construct_of(parse("#"))
        assert len(aut.states) == 2
        assert not aut.transitions

    def test_ab_star_equivalent_and_linear(self):
        r = parse("(ab)*")
        aut = construct_of(r)
        assert equivalent(aut, construct_position(r))
        assert fa_measures(aut).size <= 22 / 5 * measures(r).awidth

    def test_size_bound_on_buffer_family(self):
        for n in range(1, 8):
            r = buffer_regex(n)
            size = fa_measures(construct_of(r)).size
            assert size <= 22 / 5 * measures(r).awidth

    def test_size_linear_on_corpus(self, small_corpus):
        # the tight awidth bound needs normal form; raw trees still stay
        # linear in the bracketed expression size
        for r in small_corpus:
            assert fa_measures(construct_of(r)).size <= 22 / 5 * measures(r).size

    def test_language_by_enumeration(self):
        for r in corpus(40, seed=800, max_awidth=6):
            aut = construct_of(r)
            reference = lang(r, 4)
            for w in words_upto(aut.alphabet, 4):
                assert accepts(aut, list(w)) == (w in reference)


class TestFollow:
    def test_buffer_two_is_exact_chain(self):
        aut = construct_follow(buffer_regex(2))
        assert aut.initial == 0
        assert aut.finals == frozenset({0})
        assert aut.transitions == frozenset(
            {(0, "a", 1), (1, "a", 2), (2, "b", 1), (1, "b", 0)}
        )

    def test_single_symbol(self):
        aut = construct_follow(parse("a"))
        assert len(aut.states) == 2
        assert len(aut.transitions) == 1

    def test_lambda_free_always(self, small_corpus):
        for r in small_corpus:
            assert construct_follow(r).is_lambda_free()

    def test_never_larger_than_position(self, small_corpus):
        for r in small_corpus:
            assert len(construct_follow(r).states) <= len(construct_position(r).states)

    def test_agrees_on_lambda_heavy_trees(self):
        # merging both λ-arcs of && made its entry its exit, and the union
        # in &&+a then turned a into a self-loop that accepted aa
        fixed = [parse(t) for t in ("&&+a", "a+&&", "(&&+a)b", "(&&+a)*", "&#+a")]
        trees = [lambda_heavy_tree(random.Random(seed), 5) for seed in range(600)]
        for r in fixed + trees:
            follow = construct_follow(r)
            assert equivalent(follow, construct_of(r)), render(r)
            assert equivalent(follow, construct_position(r)), render(r)

    @pytest.fixture(scope="class")
    def builder_inputs(self):
        """The λ-merging shapes, corpus, trees, families and elimination
        labels that the follow builder is checked on."""
        from refa.elimination import STRATEGIES, arden_solve, mcnaughton_yamada, state_elimination
        from refa.families import buffer_dfa, hypercube_dfa, random_dfa, torus_dfa

        fixed = [parse(t) for t in ("&&+a", "a+&&", "(&&+a)b", "(&&+a)*", "&#+a", "(#a)*", "((&)*a)*")]
        trees = [lambda_heavy_tree(random.Random(seed), 5) for seed in range(600)]
        families = [options_regex(n) for n in (1, 2, 7, 48)] + [buffer_regex(n) for n in (1, 2, 9, 200)]
        labels = [
            state_elimination(aut, order, simplify_steps)
            for aut in (torus_dfa(2, 3), buffer_dfa(6), hypercube_dfa(3), random_dfa(5, 2, 3), random_dfa(6, 3, 8))
            for order in STRATEGIES
            for simplify_steps in (True, False)
        ]
        # but not the id and cycles labels of hypercube_dfa(3), 23 456 symbols
        # wide, whose checks take seconds
        labels = [r for r in labels if measures(r).awidth < 10**4]
        # the 14 labels of torus_dfa(3, 3), 116-2 539 symbols wide, and their
        # parsed renderings, which the eliminate workload's slowest round trips
        # convert back
        torus = torus_dfa(3, 3)
        heavy = [state_elimination(torus, order, simplify_steps) for order in STRATEGIES for simplify_steps in (True, False)]
        heavy += [arden_solve(torus), mcnaughton_yamada(torus)]
        heavy += [parse(render(r)) for r in heavy]
        return fixed + corpus(200, seed=1500) + trees + families + labels + heavy

    def test_equals_the_reference_builder(self, builder_inputs):
        # the builder re-points arcs in place, tests uniqueness by set size
        # and keeps the repr-least eligible λ-arc from one scan; not one
        # state id may move
        for r in builder_inputs:
            assert to_json(construct_follow(r)) == to_json(reference_construct_follow(r)), render(r)
            assert to_json(construct_of(r)) == to_json(reference_construct_of(r)), render(r)

    def test_contract_takes_the_repr_least_eligible_arc(self):
        # six λ-arcs leave the start state 0, each the only arc into its
        # target, so all are eligible, and each merge hands the rest to the
        # survivor; (0, None, 1) is the least by repr, but 1 has a second
        # in-arc, so it waits until it is the only arc out of its source.
        # The merges follow repr order, which is neither numeric nor set order
        merges = []

        class RecordingFollowBuilder(_FollowBuilder):
            def merge(self, old, new):
                merges.append((old, new))
                super().merge(old, new)

        builder = RecordingFollowBuilder()
        for q in (7, 10, 12, 30, 100, 200, 1):
            builder.arc(0, None, q)
        builder.arc(2, "a", 1)
        assert builder._contract((0, 1), 0, enclosed=False) == (1, 1)
        assert merges == [(0, 10), (10, 100), (100, 12), (12, 200), (200, 30), (30, 7), (7, 1)]

    def test_fragments_keep_entry_and_exit_bare(self, builder_inputs):
        # plain state sharing at fragment endpoints, and so the guards of
        # `_contract` and the concatenation's merge of b's entry as a rename
        # of its out-arcs, need that no arc enters a fragment's entry and none
        # leaves its exit
        class CheckedFollowBuilder(_FollowBuilder):
            def _bare(self, frag):
                i, f = frag
                assert not self.inn.get(i), f"arcs enter the entry: {sorted(self.inn[i], key=repr)}"
                assert not self.out.get(f), f"arcs leave the exit: {sorted(self.out[f], key=repr)}"
                return frag

            def concat(self, a, b):
                return self._bare(super().concat(a, b))

            def star(self, a):
                return self._bare(super().star(a))

        for r in builder_inputs:
            CheckedFollowBuilder().build(r)
            CheckedFollowBuilder().build(render(r))

    def test_against_quotient_oracle(self):
        # the quotient by equal follow sets is the coarsest valid merge; the
        # inductive construction reaches it exactly on normalized inputs and
        # stays between it and the position automaton otherwise
        from refa.expressions import ssnf

        for r in corpus(80, seed=801, max_awidth=8):
            follow = construct_follow(r)
            quotient = follow_quotient(r)
            assert len(quotient.states) <= len(follow.states)
            assert len(follow.states) <= len(construct_position(r).states)
            assert equivalent(follow, quotient)
            normal = ssnf(r)
            assert len(construct_follow(normal).states) == len(follow_quotient(normal).states)

    def test_buffer_quotient_merges_mirror_states(self):
        # merging position states i and 2n-i yields the follow automaton,
        # state for state and arc for arc
        from refa.automata import Automaton

        for n in (1, 2, 3, 4, 5):
            pos = construct_position(buffer_regex(n))
            rep = lambda i: min(i, 2 * n - i)
            merged = Automaton.make(
                {rep(i) for i in pos.states},
                pos.alphabet,
                rep(pos.initial),
                {rep(f) for f in pos.finals},
                {(rep(p), a, rep(q)) for p, a, q in pos.transitions},
            )
            assert merged == construct_follow(buffer_regex(n))


class TestTextRoute:
    """Every construction and `measures` read a text straight into their
    makers: the automaton or report, or the syntax error, is the one the
    reference builders (for `of` and `follow`) or the same function give on
    the reference parser's tree."""

    def test_equals_the_reference_on_the_parsed_tree(self, round_trip_texts):
        def outcome(read, text):
            try:
                out = read(text)
            except RegexSyntaxError as err:
                return str(err), err.offset
            return to_json(out) if isinstance(out, Automaton) else out

        families = [(options_regex, (1, 8, 40, 200)), (buffer_regex, (1, 8, 64, 300))]
        families += [(row, (1, 4, 8)) for row in (row1_regex, row2_regex, row3_regex)]
        texts = round_trip_texts + [render(family(n)) for family, sizes in families for n in sizes]
        texts += ["&&+a", "a?*", "·", "#", "&", " a ", "a · b", " ( a+& )* ", "a+&&", "(&&+a)*", "(#a)*", "((&)*a)*"]
        texts += [text for text, _, _ in SYNTAX_ERRORS]
        # rendered trees, then the same texts with spaces and `·` put
        # anywhere, which also makes syntax errors
        rng = random.Random(43)
        for seed in range(2000):
            if seed % 3:
                tree = random_expr(1 + seed % 12, ["a", "b", "a1"], seed)
            else:
                tree = lambda_heavy_tree(random.Random(seed), 4)
            text = render(tree)
            texts.append(text)
            texts.append("".join(c + rng.choice(["", "", "", " ", "·"]) for c in text))
        assert len(texts) >= 4000
        routes = [(construct_of, reference_construct_of), (construct_follow, reference_construct_follow)]
        routes += [(route, route) for route in (construct_position, construct_pd, construct_brzozowski, measures)]
        for text in texts:
            for route, on_tree in routes:
                want = outcome(lambda t: on_tree(reference_parse(t)), text)
                assert outcome(route, text) == want, (route.__name__, text)


class TestPositionSets:
    def test_buffer_closed_form(self):
        for n in range(1, 11):
            sets = position_sets(mark(buffer_regex(n)))
            chain = {(i, i + 1) for i in range(1, 2 * n)}
            mirror = {(i, 2 * n - i + 1) for i in range(1, n + 1)}
            mirror |= {(2 * n - i + 1, i) for i in range(1, n + 1)}
            assert sets.first == frozenset({1})
            assert sets.last == frozenset({2 * n})
            assert sets.follow == frozenset(chain | mirror)
            assert sets.positions == frozenset(range(1, 2 * n + 1))

    def test_two_letter_word(self):
        sets = position_sets(mark(parse("ab")))
        assert (sets.first, sets.last, sets.follow) == (
            frozenset({1}),
            frozenset({2}),
            frozenset({(1, 2)}),
        )

    def test_two_options(self):
        sets = position_sets(mark(parse("(a+&)(a+&)")))
        assert sets.first == frozenset({1, 2})
        assert sets.last == frozenset({1, 2})
        assert sets.follow == frozenset({(1, 2)})

    def test_equal_to_the_reference(self):
        # the sets merged in place equal new frozensets built at every node
        rng = random.Random(41)
        trees = [random_expr(1 + i % 15, ["a", "b"], 900 + i) for i in range(150)]
        trees += [lambda_heavy_tree(rng, 6) for _ in range(150)]
        for r in trees:
            assert position_sets(mark(r)) == reference_position_sets(r)[0], render(r)

    def test_left_union_chain(self):
        # 10^4 unions, each merging one position into the set built so far
        r = EPSILON
        for i in range(1, 10**4 + 1):
            r = Union(r, Sym(f"a{i}"))
        aut = construct_position(r)
        assert (len(aut.states), len(aut.transitions), aut.finals) == (10**4 + 1, 10**4, aut.states)

    def test_requires_marked_expression(self):
        from refa.expressions import MarkedRegEx

        with pytest.raises(ValueError):
            position_sets(MarkedRegEx(parse("a"), parse("a")))


class TestPositionAutomaton:
    def test_equals_the_marked_construction(self):
        # positions numbered as the walk meets them, follow pairs made as
        # transitions: the automaton mark(r) and its follow pairs gave
        rng = random.Random(43)
        trees = [random_expr(1 + i % 12, ["a", "b", "c", "d"][: 2 + 2 * (i % 2)], 1300 + i) for i in range(150)]
        trees += [lambda_heavy_tree(rng, 6) for _ in range(150)]
        trees += [f(n) for f in (options_regex, buffer_regex) for n in (1, 2, 3, 7, 50, 200)]
        trees += [row1_regex(n) for n in range(1, 8)]
        trees += [f(n) for f in (row2_regex, row3_regex) for n in (1, 2, 4, 8, 16)]
        for r in trees:
            assert to_json(construct_position(r)) == to_json(reference_construct_position(r)), render(r)

    def test_left_union_chain_equals_the_marked_construction(self):
        r = EPSILON
        for i in range(1, 10**4 + 1):
            r = Union(r, Sym(f"a{i}"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10**4 + 1000)  # the reference recurses once per union
        try:
            reference = reference_construct_position(r)
        finally:
            sys.setrecursionlimit(limit)
        assert to_json(construct_position(r)) == to_json(reference)

    def test_ab_star_shape(self):
        aut = construct_position(parse("(ab)*"))
        assert aut.transitions == frozenset({(0, "a", 1), (1, "b", 2), (2, "a", 1)})
        assert aut.finals == frozenset({0, 2})

    def test_buffer_structure(self):
        for n in (1, 2, 4):
            aut = construct_position(buffer_regex(n))
            assert len(aut.states) == 2 * n + 1
            assert aut.finals == frozenset({0, 2 * n})

    def test_always_awidth_plus_one(self, small_corpus):
        for r in small_corpus:
            assert len(construct_position(r).states) == measures(r).awidth + 1

    def test_options_family_transition_count(self):
        for n in range(1, 13):
            aut = construct_position(options_regex(n))
            assert len(aut.states) == n + 1
            assert len(aut.transitions) == n * (n + 1) // 2

    def test_options_five_matches_brute_force(self):
        # every follow pair of the marked expression comes from some word
        r = options_regex(5)
        marked_words = lang(mark(r).tree, 5)
        first = {w[0] for w in marked_words if w}
        follow = {(u, v) for w in marked_words for u, v in zip(w, w[1:])}
        aut = construct_position(r)
        assert len(aut.transitions) == len(first) + len(follow) == 15


class TestPartialDerivatives:
    def test_ab_star(self):
        got = partial_derivatives(parse("(ab)*"), "a")
        assert got == frozenset([Concat(Sym("b"), Star(Concat(Sym("a"), Sym("b"))))])
        assert len(construct_pd(parse("(ab)*")).states) == 2

    def test_no_derivative(self):
        assert partial_derivatives(parse("b"), "a") == frozenset()

    def test_symbol_derivative(self):
        assert partial_derivatives(parse("a"), "a") == frozenset([EPSILON])

    def test_row3_family_two_states(self):
        for n in (1, 2, 4, 8):
            assert len(construct_pd(row3_regex(n)).states) == 2

    def test_never_larger_than_position(self, small_corpus):
        for r in small_corpus:
            assert len(construct_pd(r).states) <= len(construct_position(r).states)


def reference_partial_derivatives(r, a):
    """The per-letter recursion that the one-walk linear form replaced."""
    if isinstance(r, (Empty, Epsilon)):
        return frozenset()
    if isinstance(r, Sym):
        return frozenset([EPSILON]) if r.name == a else frozenset()
    if isinstance(r, Union):
        return reference_partial_derivatives(r.left, a) | reference_partial_derivatives(r.right, a)
    if isinstance(r, Option):
        return reference_partial_derivatives(r.inner, a)
    if isinstance(r, Star):
        return frozenset(
            reference_cat(t, r) for t in reference_partial_derivatives(r.inner, a) if not isinstance(t, Empty)
        )
    out = {reference_cat(t, r.right) for t in reference_partial_derivatives(r.left, a)}
    if nullable(r.left):
        out |= reference_partial_derivatives(r.right, a)
    return frozenset(t for t in out if not isinstance(t, Empty))


class TestPartialDerivativeWalk:
    """One walk per term gives every letter's set, equal to the per-letter recursion."""

    LETTERS = ("a", "b", "c")

    def assert_agrees(self, r):
        for a in self.LETTERS:
            assert partial_derivatives(r, a) == reference_partial_derivatives(r, a)

    def test_random_trees_and_their_derived_terms(self):
        for seed in range(300):
            r = random_expr(1 + seed % 10, list(self.LETTERS[: 2 + seed % 2]), seed=9100 + seed)
            self.assert_agrees(r)
            for a in self.LETTERS:
                for d in reference_partial_derivatives(r, a):
                    self.assert_agrees(d)

    def test_lambda_and_empty_heavy_trees(self):
        for seed in range(400):
            r = lambda_heavy_tree(random.Random(9500 + seed), 6)
            self.assert_agrees(r)
            for a in self.LETTERS:
                for d in reference_partial_derivatives(r, a):
                    self.assert_agrees(d)

    def test_star_keeps_an_empty_term(self):
        # ∅ is dropped before a star's inner terms are extended, but the
        # extension itself can give ∅: that term stays, as a dead state
        r = parse("(a(#b))*")
        assert partial_derivatives(r, "a") == frozenset([EMPTY]) == reference_partial_derivatives(r, "a")
        assert len(construct_pd(r).states) == 2
        # ... and an enclosing star or concatenation drops it again
        for text in ("((a(#b))*)*", "((a(#b))*+b)*", "((a(#b))*)?*", "(a(#b))*c"):
            r = parse(text)
            assert partial_derivatives(r, "a") == frozenset() == reference_partial_derivatives(r, "a")


def reference_pd_automaton(r):
    """The partial derivative automaton built from the per-letter recursion,
    with terms compared structurally: BFS order, successors by letter, then
    by text."""
    letters = sorted(letters_of(r))
    ids = {r: 0}
    queue = deque([r])
    transitions = set()
    while queue:
        term = queue.popleft()
        for a in letters:
            for d in sorted(reference_partial_derivatives(term, a), key=render):
                if d not in ids:
                    ids[d] = len(ids)
                    queue.append(d)
                transitions.add((ids[term], a, ids[d]))
    finals = {i for term, i in ids.items() if nullable(term)}
    return Automaton.make(range(len(ids)), letters, 0, finals, transitions)


class TestTermTable:
    """construct_pd on one term table builds the reference automaton, state
    order included, and holds each term once."""

    WITNESSES = (
        [options_regex(n) for n in (1, 2, 5, 12)]
        + [buffer_regex(n) for n in (1, 2, 4)]
        + [row1_regex(n) for n in (1, 2, 3)]
        + [row2_regex(n) for n in (1, 2, 3)]
        + [row3_regex(n) for n in (1, 2, 4)]
        + [parse(text) for text in ("(a(#b))*", "(a(#b))*c", "((a+&)(b+&))*(a+b)", "#", "&", "a#b*")]
        + shared_kid_dags()
    )

    def test_equals_the_reference_automaton(self):
        exprs = [random_expr(1 + seed % 12, ["a", "b", "c"][: 1 + seed % 3], seed=8800 + seed) for seed in range(200)]
        for r in exprs + self.WITNESSES:
            assert to_dict(construct_pd(r)) == to_dict(reference_pd_automaton(r)), render(r)

    def test_equal_terms_are_one_object(self):
        terms = _Terms()
        r = parse("(ab+ab)(ab)*((ab)*+b)")
        term = terms.intern(r)
        assert term is terms.intern(rebuild(r)) and term == r
        union, star, tail = term.left.left, term.left.right, term.right
        assert union.left is union.right is star.inner and tail.left is star
        # every term reached by the construction's walk is held once
        seen, queue = {id(term)}, [term]
        for t in queue:
            for derived in terms.form(t).values():
                for d in derived.values():
                    if id(d) not in seen:
                        seen.add(id(d))
                        queue.append(d)
        assert len(queue) == len(construct_pd(r).states)
        nodes = list(terms.nodes.values())
        assert len(set(nodes)) == len(nodes)  # no two distinct nodes are equal
        # _cat right-associates the parsed (ab)(ab)* onto one chain of terms
        chain = terms.cat(term.left.left.left, star)
        assert chain is terms.make(Concat, star.inner.left, terms.make(Concat, star.inner.right, star))
        assert chain is terms.cat(star.inner, star) and chain == Concat(Sym("a"), Concat(Sym("b"), star))


def right_options(n: int):
    """options_regex(n) with its concatenations nested to the right."""
    out = Union(Sym(f"a{n}"), EPSILON)
    for i in range(n - 1, 0, -1):
        out = Concat(Union(Sym(f"a{i}"), EPSILON), out)
    return out


class TestLeftNestedChains:
    """A left-nested concatenation takes the linear form of its right-associated
    equal, which gives the same derived terms in the same order: the automaton
    is byte for byte the one built by extending one prefix at a time."""

    TEXTS = (
        "(a#)b",
        "(&a)b",
        "a##",
        "a#",
        "a#+b",
        "(ab+ac)*c",
        "a(bc)d",
        "((ab)(cd))e",
        "(abc)*",
        "(abc)?",
        "((ab)c)*d",
        "((ab)c)?(ab)c",
        "(a?b?c?)*",
        "(ab*c?)*(a+b)c",
        "(a(#b))*",
        "a*bc",
        "a*(bc)",
    )

    def assert_agrees(self, r):
        assert to_json(construct_pd(r)) == to_json(reference_construct_pd(r)), render(r)
        assert pd_term_orders(_Terms(), r) == pd_term_orders(ReferenceTerms(), r), render(r)

    def test_random_trees(self):
        for seed in range(240):
            self.assert_agrees(random_expr(1 + seed % 12, ["a", "b", "c"][: 1 + seed % 3], seed=9900 + seed))

    def test_lambda_and_empty_heavy_trees(self):
        for seed in range(200):
            self.assert_agrees(lambda_heavy_tree(random.Random(9700 + seed), 6))

    def test_chains_and_witnesses(self):
        for text in self.TEXTS:
            self.assert_agrees(parse(text))
        for r in TestTermTable.WITNESSES + [right_options(n) for n in (1, 2, 5, 12)]:
            self.assert_agrees(r)

    def test_text_tied_twins_keep_their_state_counts(self):
        # the input term stays the initial state, so (a*b)c and its derivative
        # by a, the same term right-associated, are still two states
        assert len(construct_pd(parse("a*bc")).states) == 4
        assert len(construct_pd(parse("a*(bc)")).states) == 3

    def test_options_chain_table_is_linear(self):
        # extending each prefix of the chain built a right-associated copy per
        # prefix and derived term: 20 300 nodes for 201 states at n = 200
        n = 200
        terms = _Terms()
        states, _ = pd_term_orders(terms, options_regex(n))
        assert len(states) == n + 1
        assert len(terms.nodes) <= 5 * n


class TestBrzozowski:
    def test_ab_star_three_states(self):
        dfa = construct_brzozowski(parse("(ab)*"))
        assert len(dfa.states) == 3
        assert dfa.is_complete_dfa()

    def test_single_symbol(self):
        dfa = construct_brzozowski(parse("a"))
        assert len(dfa.states) == 3
        assert dfa.is_complete_dfa()

    def test_derivative_examples(self):
        assert render(derivative(parse("(ab)*"), "a")) == "b(ab)*"
        assert render(derivative(parse("(ab)*"), "b")) == "#"
        assert render(derivative(parse("a"), "a")) == "&"

    def test_cap(self):
        with pytest.raises(ConstructionError):
            construct_brzozowski(buffer_regex(4), cap=2)
        # the error comes exactly when more than cap states appear
        n = len(construct_brzozowski(buffer_regex(4)).states)
        assert len(construct_brzozowski(buffer_regex(4), cap=n).states) == n
        with pytest.raises(ConstructionError, match=f"^derivative DFA exceeds {n - 1} states$"):
            construct_brzozowski(buffer_regex(4), cap=n - 1)

    def test_agrees_with_subset_route(self):
        for r in corpus(40, seed=802, max_awidth=7):
            via_subset = subset_construction(remove_lambda(construct_of(r)))
            assert equivalent(construct_brzozowski(r), via_subset)

    def test_equals_the_reference_automaton(self):
        # states built in normal form on one term table are the raw
        # derivatives normalised afterwards, in the same order
        exprs = [random_expr(1 + seed % 12, ["a", "b", "c"][: 1 + seed % 3], seed=7700 + seed) for seed in range(200)]
        exprs += [lambda_heavy_tree(random.Random(7900 + seed), 6) for seed in range(100)]
        for r in exprs + list(TestTermTable.WITNESSES):
            assert to_dict(construct_brzozowski(r)) == to_dict(reference_brzozowski(r)), render(r)

    # one derivative table per term serves every letter, so the risk lies in
    # wide alphabets: up to 40 letters here, against 3 above
    WIDE = (
        [options_regex(n) for n in range(1, 41)]
        + [row1_regex(n) for n in range(1, 6)]
        + [row2_regex(8, 8), row3_regex(16)]
        + [random_expr(1 + seed % 12, list("abcdefgh")[: 2 + seed % 7], seed=6600 + seed) for seed in range(300)]
    )

    def test_wide_alphabets_equal_the_reference_automaton(self):
        for r in self.WIDE:
            assert to_dict(construct_brzozowski(r)) == to_dict(reference_brzozowski(r)), render(r)

    def test_wide_alphabet_derivatives_equal_the_reference(self):
        # derivative takes the derivative of r's normal form
        for r in self.WIDE:
            normal = reference_aci(rebuild(r))
            for a in sorted(letters_of(r)) + ["z"]:
                d, fresh = derivative(r, a), reference_derivative(normal, a)
                assert d == fresh and render(d) == render(fresh), (render(r), a)

    def test_equal_states_are_one_object(self):
        terms = _AciTerms()
        r = parse("(b+a+#+a)((ab)*&+b)")
        term = terms.intern(r)
        assert term is terms.intern(rebuild(r)) and render(term) == "(a+b)((ab)*+b)"
        d = terms.table(term).get("a", EMPTY)
        assert d is terms.table(term).get("b", EMPTY) and render(d) == "(ab)*+b"
        d_a = terms.table(d).get("a", EMPTY)
        assert terms.table(d_a).get("b", EMPTY) is terms.intern(parse("(ab)*")) is term.right.left
        assert terms.intern(parse("(#+&)*(a?)")) is terms.make(Option, terms.intern(Sym("a")))


class TestIdentityOrder:
    """construct_brzozowski's table orders union branches by identity and
    interns a concatenation chain whole; the terms are the ones a text-ordered
    table builds prefix by prefix, and no term is rendered."""

    INPUTS = (
        TestBrzozowski.WIDE[:47]
        + TestTermTable.WITNESSES
        + [parse(text) for text in TestLeftNestedChains.TEXTS]
        + [right_options(n) for n in (1, 2, 5, 12)]
        + [lambda_heavy_tree(random.Random(5100 + seed), 6) for seed in range(100)]
        + [mark(random_expr(1 + seed % 8, ["a", "b"], seed=5300 + seed)).tree for seed in range(100)]
    )

    def test_chains_interned_whole_are_the_prefix_by_prefix_terms(self):
        for r in self.INPUTS:
            for key in (None, id):
                terms = _AciTerms(key)
                assert terms.intern(r) is prefix_intern(terms, r), render(r)
            # texts only in text order: an order by identity differs between tables
            assert render(_AciTerms().intern(r)) == render(prefix_intern(_AciTerms(), r)), render(r)

    def test_each_node_reaches_its_maker_once(self):
        # on a tree each distinct union and concatenation is taken to its
        # maker once, however many parents share it: abc+abd makes 4 calls,
        # not one per occurrence of ab
        for r in [options_regex(60), *shared_kid_dags()]:
            terms, calls = _AciTerms(id), Counter()
            leaf, star, option, concat, union = terms.makers()

            def counted(cls, maker):
                def call(left, right):
                    calls[cls] += 1
                    return maker(left, right)

                return call

            terms.makers = lambda: (leaf, star, option, counted(Concat, concat), counted(Union, union))
            terms.intern(r)
            distinct = {id(node): type(node) for node in _postorder(r)}
            assert calls == Counter(c for c in distinct.values() if c is Union or c is Concat), render(r)

    def test_options_chain_table_is_small(self):
        # one prefix at a time left 1 890 nodes for this input of 180 distinct nodes
        prefixes, terms = _AciTerms(), _AciTerms(id)
        prefix_intern(prefixes, options_regex(60))
        assert len(prefixes.nodes) == 1890
        terms.intern(options_regex(60))
        assert len(terms.nodes) <= 179
        # read from the text, each chain is collected whole before it is folded
        terms = _AciTerms(id)
        terms.intern(render(options_regex(60)))
        assert len(terms.nodes) <= 179

    def test_no_term_is_rendered(self, monkeypatch):
        def refuse(r):
            raise AssertionError(f"rendered {r!r}")

        monkeypatch.setattr(constructions, "_render", refuse)
        for r in TestBrzozowski.WIDE:
            construct_brzozowski(r)

    def test_positioned_symbols_are_taken_modulo_aci(self):
        # `a1` and `a2` both render as `a`: a text order kept tied branches in
        # the order they were met, so one set of branches could make two
        # states, and this tree had 7
        t = mark(random_expr(6, ["a", "b"], 70220)).tree
        assert render(t) == "b?a*?+b*+b+b*?a*?"
        dfa = construct_brzozowski(t)
        assert len(dfa.states) == 6
        assert equivalent(dfa, reference_brzozowski(t))
        assert equivalent(dfa, subset_construction(remove_lambda(construct_of(t))))
        assert len(minimize(dfa).states) == 3


class TestAllConstructionsAgree:
    def test_pairwise_equivalent(self, small_corpus):
        for r in small_corpus:
            sigma = frozenset().union(
                *[construct_position(r).alphabet]
            ) or frozenset({"a"})
            auts = [
                construct_of(r),
                construct_follow(r),
                construct_position(r),
                construct_pd(r),
                construct_brzozowski(r),
            ]
            canons = [canonical(a, sigma) for a in auts]
            assert all(c == canons[0] for c in canons), render(r)


def record_tables(monkeypatch, keep) -> list:
    """A list that gets keep(table) for each term table made from now on:
    `_AciTerms` and `_Labels` tables start in `_Terms.__init__` too."""
    made = []
    init = _Terms.__init__

    def init_and_record(self, *args):
        init(self, *args)
        made.append(keep(self))

    monkeypatch.setattr(_Terms, "__init__", init_and_record)
    return made


class TestTermFacts:
    """The pd, derivative and label tables store each term's nullability
    when they make it, and free themselves when their run returns."""

    def test_every_term_carries_its_nullability(self, monkeypatch, round_trip_texts):
        tables = record_tables(monkeypatch, lambda table: table)
        corpus_texts = [
            render(random_expr(1 + i % 10, ["a", "b"] if i // 10 % 2 == 0 else ["a", "b", "c", "d"], 1405_5594 + i))
            for i in range(120)
        ]
        draws = [random_expr(1 + seed % 12, ["a", "b", "c"][: 1 + seed % 3], seed=9100 + seed) for seed in range(600)]
        labels = [parse(text) for text in round_trip_texts]
        inputs = [*corpus_texts, *draws, *shared_kid_dags(), *labels]
        for r in inputs:
            construct_pd(r)
            construct_brzozowski(r)
            simplify(parse(r) if isinstance(r, str) else r)
        auts = eliminate_automata()
        for aut in auts:
            mcnaughton_yamada(aut)
            for order in STRATEGIES:
                state_elimination(aut, order)
        checked = Counter()
        for table in tables:
            memo: dict = {}
            for term in table.nodes.values():
                assert term._nullable is reference_nullable(term, memo), render(term)
            checked[type(table).__name__] += 1
        assert checked["_Terms"] == len(inputs)
        assert checked["_AciTerms"] == len(inputs)
        # `augment` starts a table of its own too
        assert checked["_Labels"] >= len(inputs) + len(auts) * (1 + len(STRATEGIES))

    def test_tables_are_freed_without_the_collector(self, monkeypatch):
        # no table refers back to itself, so each dies with its last reference
        refs = record_tables(monkeypatch, weakref.ref)
        text = render(options_regex(8))
        runs = [
            lambda: construct_pd(text),
            lambda: construct_pd(parse(text)),
            lambda: construct_brzozowski(text),
            lambda: construct_brzozowski(parse(text)),
            lambda: simplify(parse(text)),
            lambda: arden_solve(torus_dfa(3, 3)),
            lambda: mcnaughton_yamada(torus_dfa(2, 3)),
        ]
        runs += [lambda order=order: state_elimination(torus_dfa(3, 3), order) for order in STRATEGIES]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for run in runs:
                refs.clear()
                run()
                assert refs and all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()
