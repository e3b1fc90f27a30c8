import json
import random

import pytest

from refa.automata import (
    Automaton,
    NotDeterministicError,
    UnknownSymbolError,
    _widen,
    accepts,
    distinguishing_word,
    equivalent,
    fa_measures,
    from_dict,
    is_bideterministic,
    minimize,
    remove_lambda,
    reverse,
    subset_construction,
    to_dict,
    to_dot,
)
from refa.constructions import (
    CONSTRUCTION_NAMES,
    construct,
    construct_brzozowski,
    construct_follow,
    construct_of,
    construct_pd,
    construct_position,
)
from refa.expressions import parse, random_expr, render
from refa.families import buffer_dfa, buffer_regex, torus_dfa

from conftest import (
    canonical,
    corpus,
    lambda_heavy_tree,
    lang,
    path_pairs,
    reference_minimize,
    reference_subset_construction,
    relabel,
    state_names,
    words_upto,
)


class TestAccepts:
    def test_follow_buffer_words(self):
        aut = construct_follow(buffer_regex(2))
        assert accepts(aut, list("aabb"))
        assert accepts(aut, list("abab"))
        assert not accepts(aut, list("ba"))
        assert not accepts(aut, list("aaab"))

    def test_empty_word_uses_closure(self):
        aut = Automaton.make([0, 1], {"a"}, 0, {1}, [(0, None, 1)])
        assert accepts(aut, [])

    def test_unknown_symbol(self):
        aut = buffer_dfa(1)
        with pytest.raises(UnknownSymbolError):
            accepts(aut, ["c"])

    def test_matches_enumeration(self):
        for r in corpus(40, seed=42, max_awidth=6):
            aut = construct_of(r)
            reference = lang(r, 4)
            for w in words_upto(aut.alphabet, 4):
                assert accepts(aut, list(w)) == (w in reference)


class TestRemoveLambda:
    def test_noop_when_lambda_free(self):
        aut = buffer_dfa(2)
        assert remove_lambda(aut) is aut

    def test_hand_example(self):
        # p -λ-> q -a-> q: p gains the a-arc and becomes final via closure
        aut = Automaton.make(["p", "q"], {"a"}, "p", {"q"}, [("p", None, "q"), ("q", "a", "q")])
        out = remove_lambda(aut)
        assert out.states == aut.states
        assert ("p", "a", "q") in out.transitions
        assert out.finals == frozenset({"p", "q"})
        assert out.is_lambda_free()

    def test_of_equivalent_after_removal(self):
        r = parse("(ab)*")
        aut = construct_of(r)
        out = remove_lambda(aut)
        assert out.is_lambda_free()
        assert len(out.states) == len(aut.states)
        assert equivalent(out, aut)

    def test_preserves_language_on_corpus(self):
        for r in corpus(30, seed=90, max_awidth=6):
            aut = construct_of(r)
            assert equivalent(remove_lambda(aut), aut)


class TestSubsetConstruction:
    def test_position_ab_star(self):
        dfa = subset_construction(construct_position(parse("(ab)*")))
        assert len(dfa.states) == 4  # three reachable subsets plus the empty sink
        assert dfa.is_complete_dfa()

    def test_rejects_lambda_input(self):
        aut = construct_of(parse("a*"))
        with pytest.raises(ValueError):
            subset_construction(aut)

    def test_deterministic_input_isomorphic(self):
        aut = torus_dfa(2, 2)
        dfa = subset_construction(aut)
        assert len(dfa.states) == len(aut.states)
        assert equivalent(dfa, aut)

    def test_exponential_bound(self):
        for r in corpus(40, seed=91, max_awidth=8):
            pos = construct_position(r)
            dfa = subset_construction(pos)
            assert len(dfa.states) <= 2 ** len(pos.states) + 1
            assert len(minimize(dfa).states) <= 2 ** len(pos.states)
            assert equivalent(dfa, pos)


class TestMinimize:
    def test_buffer6_partial_has_seven_states(self):
        complete = subset_construction(buffer_dfa(6))
        partial = minimize(complete, "partial")
        assert len(partial.states) == 7
        assert len(minimize(complete, "complete").states) == 8
        assert equivalent(partial, buffer_dfa(6))

    def test_idempotent(self):
        aut = subset_construction(construct_position(buffer_regex(3)))
        once = minimize(aut)
        assert minimize(once) == once

    def test_unreachable_state_dropped(self):
        aut = Automaton.make(
            [0, 1, 9], {"a", "b"}, 0, {0},
            [(0, "a", 1), (1, "b", 0), (9, "a", 9)],
        )
        partial = minimize(aut, "partial")
        assert len(partial.states) == 2
        assert len(minimize(aut, "complete").states) == 3  # sink appears

    def test_requires_deterministic(self):
        aut = construct_position(parse("(a+a)b"))
        with pytest.raises(NotDeterministicError):
            minimize(aut)

    def test_empty_language(self):
        aut = Automaton.make([0], {"a"}, 0, [], [(0, "a", 0)])
        assert len(minimize(aut, "complete").states) == 1
        partial = minimize(aut, "partial")
        assert partial.states == frozenset({0})
        assert not partial.transitions

    def test_partial_keeps_co_reachable_states(self):
        # partial = complete minus every state that reaches no final state,
        # except the initial one; checked on random partial DFAs
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            arcs = [(p, a, rng.randrange(n)) for p in range(n) for a in "ab" if rng.random() < 0.6]
            finals = {q for q in range(n) if rng.random() < 0.4}
            complete = minimize(Automaton.make(range(n), "ab", 0, finals, arcs), "complete")
            pairs = path_pairs(complete.states, [(p, q) for p, _, q in complete.transitions])
            co = {p for p in complete.states if p in complete.finals or any(
                (p, f) in pairs for f in complete.finals
            )}
            expected = Automaton.make(
                co | {0},
                "ab",
                0,
                complete.finals,
                [(p, a, q) for p, a, q in complete.transitions if p in co and q in co],
            )
            assert minimize(complete, "partial") == expected, seed

    def test_never_grows(self):
        for r in corpus(30, seed=92, max_awidth=7):
            dfa = subset_construction(construct_position(r))
            assert len(minimize(dfa).states) <= len(dfa.states)


class TestExplorerReference:
    """subset_construction and minimize number states as the reference BFS
    loops in conftest do, on NFAs from every route with renamed states."""

    @pytest.mark.parametrize("naming", ["int", "str", "mixed"])
    def test_equal_to_the_reference_loops(self, naming):
        rng = random.Random(6100)
        trees = [lambda_heavy_tree(random.Random(6200 + i), 5) for i in range(40)]  # ∅ leaves too
        for r in corpus(60, seed=6100, max_awidth=8) + trees:
            for route in CONSTRUCTION_NAMES:
                nfa = remove_lambda(construct(route, r))
                nfa = relabel(nfa, state_names(naming, rng, len(nfa.states)))
                dfa = subset_construction(nfa)
                assert dfa == reference_subset_construction(nfa), (route, render(r))
                partial = minimize(dfa, "partial")
                for aut in (dfa, partial):
                    aut = relabel(aut, state_names(naming, rng, len(aut.states)))
                    for mode in ("complete", "partial"):
                        assert minimize(aut, mode) == reference_minimize(aut, mode), (route, render(r))


class TestEquivalence:
    def test_pos_vs_follow_buffer(self):
        r = buffer_regex(2)
        assert equivalent(construct_position(r), construct_follow(r))

    def test_ab_vs_ba(self):
        assert not equivalent(
            construct_position(parse("(ab)*")), construct_position(parse("(ba)*"))
        )

    def test_equivalence_relation_spot_checks(self):
        a = construct_position(parse("(ab)*"))
        b = construct_follow(parse("(ab)*"))
        c = construct_of(parse("(ab)*"))
        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)
        assert equivalent(a, b) and equivalent(b, c) and equivalent(a, c)

    def test_distinguishing_word_verified(self):
        a = buffer_dfa(6)
        b = buffer_dfa(3)
        w = distinguishing_word(a, b)
        assert w is not None
        assert accepts(a, w) != accepts(b, w)
        assert distinguishing_word(a, a) is None

    def test_witness_is_shortlex_least(self):
        # 320 seeded pairs of automata of random trees: every route, λ-NFAs
        # (`of`) among them, over equal and differing alphabets
        alphabets = (["a", "b"], ["a", "b", "c"], ["b", "c"], ["a"])
        routes = (
            construct_of, construct_follow, construct_position, construct_pd, construct_brzozowski
        )
        trees = [random_expr(1 + i % 5, alphabets[i % 4], seed=1300 + i) for i in range(64)]
        inequivalent = 0
        for i in range(320):
            r, s = trees[i % 64], trees[(i + i // 64) % 64]
            a, b = routes[i % 5](r), routes[(i // 5 + i) % 5](s)
            sigma = a.alphabet | b.alphabet
            wide_a, wide_b = _widen(a, sigma), _widen(b, sigma)
            brute = next(
                (
                    list(w)
                    for w in words_upto(sigma, 5)
                    if accepts(wide_a, list(w)) != accepts(wide_b, list(w))
                ),
                None,
            )
            got = distinguishing_word(a, b)
            if brute is not None or got is not None:
                inequivalent += 1
                assert got == brute or (
                    brute is None and len(got) > 5 and accepts(wide_a, got) != accepts(wide_b, got)
                ), (i, render(r), render(s))
            assert equivalent(a, b) == (canonical(a, sigma) == canonical(b, sigma)), i
        assert inequivalent >= 100 and 320 - inequivalent >= 60


class TestReverseBideterministic:
    def test_minimal_ab_star_bideterministic(self):
        aut = minimize(subset_construction(construct_position(parse("(ab)*"))), "partial")
        assert is_bideterministic(aut)

    def test_buffer_chain_bideterministic(self):
        assert is_bideterministic(buffer_dfa(4))

    def test_torus_bideterministic(self):
        assert is_bideterministic(torus_dfa(2, 4))

    def test_multiple_finals_not_bideterministic(self):
        aut = construct_position(parse("a?"))
        assert not is_bideterministic(aut)

    def test_reverse_accepts_mirror(self):
        aut = buffer_dfa(2)
        rev = reverse(aut)
        for w in words_upto({"a", "b"}, 4):
            assert accepts(rev, list(reversed(w))) == accepts(aut, list(w))

    def test_reverse_multi_final_folds_fresh_initial(self):
        aut = construct_position(parse("a?"))
        rev = reverse(aut)
        assert len(rev.states) == len(aut.states) + 1
        for w in words_upto({"a"}, 2):
            assert accepts(rev, list(reversed(w))) == accepts(aut, list(w))


class TestMeasuresSerialization:
    def test_follow_buffer_counts(self):
        for n in (1, 2, 4, 6):
            fm = fa_measures(construct_follow(buffer_regex(n)))
            assert (fm.states, fm.transitions) == (n + 1, 2 * n)

    def test_position_buffer_counts(self):
        for n in (1, 2, 4):
            fm = fa_measures(construct_position(buffer_regex(n)))
            assert fm.states == 2 * n + 1

    def test_trivial(self):
        fm = fa_measures(Automaton.make([0], [], 0, [], []))
        assert (fm.states, fm.transitions, fm.size) == (1, 0, 1)

    def test_json_roundtrip(self):
        aut = construct_of(parse("(a+b)*c"))
        data = json.loads(json.dumps(to_dict(aut)))
        assert from_dict(data) == aut

    def test_lambda_encoded_as_empty_string(self):
        aut = Automaton.make([0, 1], {"a"}, 0, {1}, [(0, None, 1)])
        assert [0, "", 1] in to_dict(aut)["transitions"]

    def test_dot_output(self):
        dot = to_dot(Automaton.make([0, 1], {"a"}, 0, {1}, [(0, None, 1)]))
        assert dot.startswith("digraph")
        assert "ε" in dot and "doublecircle" in dot

    def test_validation(self):
        with pytest.raises(ValueError):
            Automaton.make([0], {"a"}, 1, [], [])
        with pytest.raises(ValueError):
            Automaton.make([0], {"a"}, 0, [], [(0, "b", 0)])

    # The exact messages, recorded before the bulk serialization paths went in
    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, [], []), "initial state 2 not a state"),
            ((0, [3], []), "final states must be states"),
            ((0, [1], [(0, "a", 1), (1, "a", 5)]), "transition (1,'a',5) leaves the state set"),
            ((0, [1], [(7, "a", 1)]), "transition (7,'a',1) leaves the state set"),
            ((0, [1], [(0, "b", 1)]), "transition label 'b' not in the alphabet"),
            ((0, [1], [(0, "a")]), "not enough values to unpack (expected 3, got 2)"),
            ((0, [1], [(0, "a", 1, 1)]), "too many values to unpack (expected 3)"),
        ],
    )
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError) as err:
            Automaton.make([0, 1], ["a"], *args)
        assert str(err.value) == message

    GOOD = {"states": [0, 1], "alphabet": ["a"], "initial": 0, "finals": [1], "transitions": [[0, "a", 1], [1, "", 0]]}

    @pytest.mark.parametrize(
        "change, message",
        [
            *[
                ({name: 5}, f"automaton field {name!r} must be a list")
                for name in ("states", "alphabet", "finals", "transitions")
            ],
            ({"states": [0, 1.5]}, "automaton field 'states': state 1.5 is not an int or a string"),
            ({"initial": 1.0}, "automaton field 'initial': state 1.0 is not an int or a string"),
            ({"initial": None}, "automaton field 'initial': state None is not an int or a string"),
            ({"finals": [None]}, "automaton field 'finals': state None is not an int or a string"),
            ({"alphabet": ["a", 3]}, "automaton field 'alphabet': symbol 3 is not a string"),
            *[
                ({"transitions": [[0, "a", 1], t]}, f"automaton field 'transitions': {t!r} is not a [state, label, state] triple")
                for t in ([0, "a"], [0, "a", 1, 1], [0, 3, 1], [0, None, 1], [1.5, "a", 1], (0, "a", 1), "abc")
            ],
            ({"transitions": [[0, "b", 1]]}, "transition label 'b' not in the alphabet"),
            ({"transitions": [[0, "a", 9]]}, "transition (0,'a',9) leaves the state set"),
            ({"alphabet": ["a", ""]}, '"" is not a symbol: the JSON format writes λ as ""'),
        ],
    )
    def test_from_dict_messages(self, change, message):
        with pytest.raises(ValueError) as err:
            from_dict({**self.GOOD, **change})
        assert str(err.value) == message

    @pytest.mark.parametrize("name", sorted(GOOD))
    def test_from_dict_missing_field(self, name):
        with pytest.raises(ValueError) as err:
            from_dict({k: v for k, v in self.GOOD.items() if k != name})
        assert str(err.value) == f"automaton field {name!r} is missing"

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"states": [0, 1, True]}, "automaton field 'states': state True is not an int or a string"),
            ({"initial": True}, "automaton field 'initial': state True is not an int or a string"),
            ({"finals": [False]}, "automaton field 'finals': state False is not an int or a string"),
            *[
                ({"transitions": [t]}, f"automaton field 'transitions': {t!r} is not a [state, label, state] triple")
                for t in ([True, "a", 1], [0, "a", False])
            ],
        ],
    )
    def test_from_dict_rejects_bool_states(self, change, message):
        # a bool is an int in Python, and True equals the state 1
        with pytest.raises(ValueError) as err:
            from_dict({**self.GOOD, **change})
        assert str(err.value) == message

    def test_non_data_is_rejected(self):
        with pytest.raises(ValueError) as err:
            from_dict([1])
        assert str(err.value) == "automaton must be a JSON object, not list"
        with pytest.raises(TypeError):
            Automaton.make([0, 1], ["a"], 0, [1], [5])

    def test_empty_symbol_is_rejected(self):
        # "" is λ in JSON, so a "" symbol would come back from a round trip
        # as a λ-arc and change the language
        with pytest.raises(ValueError) as err:
            Automaton.make([0, 1], [""], 0, [1], [(0, "", 1)])
        assert str(err.value) == '"" is not a symbol: the JSON format writes λ as ""'
