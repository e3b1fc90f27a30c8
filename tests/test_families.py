import pytest

from refa.automata import accepts, equivalent, is_bideterministic, minimize
from refa.constructions import construct_follow
from refa.digraphs import underlying_digraph
from refa.expressions import measures, render
from refa.families import (
    FAMILIES,
    buffer_dfa,
    buffer_regex,
    gen_family,
    hypercube_dfa,
    options_regex,
    random_dfa,
    row1_regex,
    row2_regex,
    row3_regex,
    table1_row,
    torus_dfa,
)


class TestBuffer:
    def test_regex_text(self):
        assert render(buffer_regex(1)) == "(ab)*"
        assert render(buffer_regex(2)) == "(a(ab)*b)*"

    def test_dfa_is_chain_and_minimal(self):
        for n in (1, 2, 5):
            aut = buffer_dfa(n)
            assert len(aut.states) == n + 1
            assert len(aut.transitions) == 2 * n
            assert minimize(aut, "partial") == minimize(minimize(aut, "partial"), "partial")
            assert len(minimize(aut, "partial").states) == n + 1

    def test_regex_matches_dfa(self):
        for n in (1, 2, 3):
            assert equivalent(construct_follow(buffer_regex(n)), buffer_dfa(n))

    def test_semantics(self):
        aut = buffer_dfa(2)
        assert accepts(aut, list("aabb"))
        assert not accepts(aut, list("aaab"))  # overflow
        assert not accepts(aut, list("ab" + "b"))  # underflow


class TestOptionFamily:
    def test_text(self):
        assert render(options_regex(2)) == "(a1+&)(a2+&)"

    def test_awidth(self):
        for n in (1, 4, 9):
            assert measures(options_regex(n)).awidth == n


class TestTable1Rows:
    def test_row1_awidth_doubles(self):
        assert measures(row1_regex(1)).awidth == 1
        assert measures(row1_regex(4)).awidth == 8

    def test_row2_shape(self):
        r = row2_regex(2, 3)
        assert measures(r).awidth == 2 + 2 + 3

    def test_row3_awidth(self):
        for n in (1, 3, 5):
            assert measures(row3_regex(n)).awidth == n * n + n

    def test_dispatcher(self):
        assert table1_row(4, 3) == options_regex(3)
        with pytest.raises(ValueError):
            table1_row(5, 1)


class TestHypercube:
    def test_shape(self):
        aut = hypercube_dfa(3)
        assert len(aut.states) == 8
        assert aut.initial == 0
        assert aut.finals == frozenset({0})
        assert aut.is_partial_dfa()
        assert is_bideterministic(aut)

    def test_underlying_graph_is_cube(self):
        dg = underlying_digraph(hypercube_dfa(3))
        degrees = {v: sum(1 for (u, _) in dg.arcs if u == v) for v in dg.vertices}
        assert all(d == 3 for d in degrees.values())

    def test_semantics(self):
        aut = hypercube_dfa(2)
        assert accepts(aut, ["a1", "a2", "b1", "b2"])
        assert accepts(aut, ["a1", "b1"])
        assert not accepts(aut, ["a1", "a1"])  # bit already set


class TestTorus:
    def test_shape(self):
        aut = torus_dfa(2, 4)
        assert len(aut.states) == 8
        assert aut.is_complete_dfa()
        assert is_bideterministic(aut)

    def test_counting_semantics(self):
        aut = torus_dfa(2, 3)
        assert accepts(aut, list("aabbb"))
        assert not accepts(aut, list("abbb"))
        assert accepts(aut, [])

    def test_parameter_order(self):
        with pytest.raises(ValueError):
            torus_dfa(4, 2)


class TestRandomDfa:
    def test_single_state(self):
        aut = random_dfa(1, 1, seed=3)
        assert len(aut.states) == 1
        assert aut.transitions == frozenset({(0, "a", 0)})

    def test_deterministic_per_seed(self):
        assert random_dfa(8, 2, seed=5) == random_dfa(8, 2, seed=5)
        assert random_dfa(8, 2, seed=5) != random_dfa(8, 2, seed=6)

    def test_complete_and_accessible(self):
        for seed in range(10):
            aut = random_dfa(8, 2, seed=seed)
            assert aut.is_complete_dfa()
            assert aut.finals


class TestGenFamily:
    def test_buffer_has_both_forms(self):
        art = gen_family("buffer", 2)
        assert art.regex == buffer_regex(2)
        assert art.automaton == buffer_dfa(2)

    def test_options_regex_only(self):
        art = gen_family("options", 3)
        assert art.automaton is None and art.regex is not None

    def test_torus(self):
        assert gen_family("torus", 2, 4).automaton == torus_dfa(2, 4)

    def test_unknown(self):
        with pytest.raises(ValueError):
            gen_family("nope", 1)

    def test_one_table_behind_every_dispatcher(self):
        assert FAMILIES == ("buffer", "options", "row1", "row2", "row3", "hypercube", "torus")
        assert gen_family("row2", 3).regex == row2_regex(3, 3) == table1_row(2, 3)
        assert gen_family("row2", 2, 5).regex == table1_row(2, 2, 5)
        for k, kind in enumerate(("row1", "row2", "row3", "options"), start=1):
            assert table1_row(k, 4) == gen_family(kind, 4).regex
        assert gen_family("hypercube", 2).regex is None
        with pytest.raises(ValueError):
            gen_family("buffer", 1, 2)
