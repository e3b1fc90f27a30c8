import math
import random
import sys
from dataclasses import astuple

import pytest

from refa.automata import minimize, subset_construction
from refa.constructions import construct_of, construct_position
from refa.digraphs import (
    CycleCount,
    CycleRankBudgetError,
    Digraph,
    NotBideterministicError,
    cycle_rank,
    cycle_rank_upper,
    cycles_through,
    independent_set,
    sccs,
    star_height_bideterministic,
    symmetrize,
    underlying_digraph,
    undirected_cycle_rank,
)
from refa.expressions import measures, parse
from refa.families import buffer_dfa, hypercube_dfa, torus_dfa

from conftest import (
    _kosaraju,
    corpus,
    eliminate_automata,
    naive_cycle_rank,
    reference_cycle_rank,
    reference_cycle_rank_upper,
    reference_cycles_through,
)


def cycle(n):
    return Digraph.make(range(n), [(i, (i + 1) % n) for i in range(n)])


def bidirectional_path(n_vertices):
    arcs = [(i, i + 1) for i in range(n_vertices - 1)]
    arcs += [(i + 1, i) for i in range(n_vertices - 1)]
    return Digraph.make(range(n_vertices), arcs)


def random_digraph(n, density, seed):
    rng = random.Random(seed)
    arcs = [
        (u, v) for u in range(n) for v in range(n) if rng.random() < density
    ]
    return Digraph.make(range(n), arcs)


def chained_digraph(n, density, seed):
    """A random digraph on n vertices, self-loops included, with about a
    third of its arcs subdivided by a one-in/one-out chain of 1-3 vertices."""
    rng = random.Random(seed)
    arcs, extra = [], n
    for u in range(n):
        for v in range(n):
            if rng.random() >= density:
                continue
            if u == v or rng.random() >= 1 / 3:
                arcs.append((u, v))
                continue
            chain = list(range(extra, extra + rng.randint(1, 3)))
            extra += len(chain)
            path = [u, *chain, v]
            arcs += zip(path, path[1:])
    return Digraph.make(range(extra), arcs)


class TestDigraphExtraction:
    def test_buffer_chain(self):
        dg = underlying_digraph(buffer_dfa(2))
        assert dg.vertices == frozenset({0, 1, 2})
        assert dg.arcs == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})

    def test_hypercube_shape(self):
        dg = underlying_digraph(hypercube_dfa(3))
        assert len(dg.vertices) == 8
        # each arc flips exactly one bit, antiparallel pairs included
        assert len(dg.arcs) == 24
        for u, v in dg.arcs:
            assert bin(u ^ v).count("1") == 1
            assert (v, u) in dg.arcs

    def test_parallel_arcs_collapse(self):
        from refa.automata import Automaton

        aut = Automaton.make([0, 1], {"a", "b"}, 0, {1}, [(0, "a", 1), (0, "b", 1)])
        assert underlying_digraph(aut).arcs == frozenset({(0, 1)})

    def test_arcless(self):
        from refa.automata import Automaton

        dg = underlying_digraph(Automaton.make([0, 1], {"a"}, 0, {1}, []))
        assert dg.arcs == frozenset()


class TestSccs:
    def test_directed_cycle_single_scc(self):
        assert sccs(cycle(5)) == [frozenset(range(5))]

    def test_dag_singletons(self):
        dg = Digraph.make(range(4), [(0, 1), (1, 2), (2, 3)])
        comps = sccs(dg)
        assert sorted(map(len, comps)) == [1, 1, 1, 1]
        # reverse topological: successors first
        order = {next(iter(c)): i for i, c in enumerate(comps)}
        assert order[3] < order[2] < order[1] < order[0]

    def test_torus_single_scc(self):
        dg = underlying_digraph(torus_dfa(2, 4))
        assert sccs(dg) == [frozenset(range(8))]

    def test_random_partition_reverse_topological(self):
        for i in range(20):
            dg = random_digraph(9, 0.2, seed=800 + i)
            comps = sccs(dg)
            assert sorted(map(sorted, comps)) == sorted(map(sorted, _kosaraju(dg.vertices, dg.arcs)))
            where = {v: k for k, comp in enumerate(comps) for v in comp}
            assert all(where[u] >= where[v] for u, v in dg.arcs)

    def test_chains_and_symmetric_reverse_topological(self):
        # sources and sinks split off without a reach
        for i in range(40):
            dg = chained_digraph(7, 0.2, seed=900 + i)
            for g in (dg, symmetrize(dg)):
                comps = sccs(g)
                assert sorted(map(sorted, comps)) == sorted(map(sorted, _kosaraju(g.vertices, g.arcs)))
                where = {v: k for k, comp in enumerate(comps) for v in comp}
                assert all(where[u] >= where[v] for u, v in g.arcs)

    def test_long_chains_either_way(self):
        forward = Digraph.make(range(3000), [(i, i + 1) for i in range(2999)])
        backward = Digraph.make(range(3000), [(i + 1, i) for i in range(2999)])
        assert sccs(forward) == [frozenset({i}) for i in reversed(range(3000))]
        assert sccs(backward) == [frozenset({i}) for i in range(3000)]


class TestCycleRank:
    def test_dag_zero(self):
        assert cycle_rank(Digraph.make(range(4), [(0, 1), (1, 2), (0, 3)])) == 0

    def test_directed_cycle_one(self):
        for n in (1, 2, 5, 9):
            arcs = [(i, (i + 1) % n) for i in range(n)]
            assert cycle_rank(Digraph.make(range(n), arcs)) == 1

    def test_self_loop(self):
        assert cycle_rank(Digraph.make([0], [(0, 0)])) == 1

    @pytest.mark.parametrize("m,n,expected", [(2, 2, 2), (2, 4, 3), (3, 3, 3)])
    def test_torus_values(self, m, n, expected):
        assert cycle_rank(underlying_digraph(torus_dfa(m, n))) == expected

    def test_bidirectional_paths_log_bound(self):
        for n in range(1, 15):
            got = cycle_rank(bidirectional_path(n + 1))
            assert got == int(math.log2(n + 1)), n

    def test_budget_refusal(self):
        with pytest.raises(CycleRankBudgetError):
            cycle_rank(cycle(19), budget=18)
        assert cycle_rank(cycle(19), budget=19) == 1

    def test_disjoint_union_is_max(self):
        left = [(i, (i + 1) % 3) for i in range(3)]
        right = [(3 + i, 3 + (i + 1) % 4) for i in range(4)]
        both = Digraph.make(range(7), left + right)
        assert cycle_rank(both) == 1
        assert cycle_rank(both) == max(
            cycle_rank(Digraph.make(range(3), left)),
            cycle_rank(Digraph.make(range(3, 7), right)),
        )

    def test_zero_iff_acyclic(self):
        for i in range(25):
            dg = random_digraph(6, 0.25, seed=300 + i)
            rank = cycle_rank(dg)
            acyclic = all(len(c) == 1 for c in sccs(dg)) and not any(
                (v, v) in dg.arcs for v in dg.vertices
            )
            assert (rank == 0) == acyclic

    def test_naive_agreement_small(self):
        cases = [cycle(5), bidirectional_path(7), underlying_digraph(torus_dfa(2, 4))]
        cases += [random_digraph(n, d, seed) for n in (4, 6, 8) for d in (0.2, 0.4) for seed in (1, 2)]
        cases += [random_digraph(n, d, seed) for n in (9, 10, 11) for d in (0.2, 0.25) for seed in (1, 2)]
        for dg in cases:
            assert len(dg.vertices) <= 11
            expected = naive_cycle_rank(dg.vertices, dg.arcs)
            assert cycle_rank(dg) == expected
            # mixed int and string ids index the same way
            name = {v: v if v % 2 else f"q{v}" for v in dg.vertices}
            relabelled = Digraph.make(name.values(), [(name[u], name[v]) for u, v in dg.arcs])
            assert cycle_rank(relabelled) == expected

    @pytest.mark.parametrize(
        "aut,expected", [(hypercube_dfa(4), 7), (torus_dfa(4, 4), 4)], ids=["hypercube4", "torus4x4"]
    )
    def test_sixteen_vertex_families(self, aut, expected):
        assert cycle_rank(underlying_digraph(aut)) == expected

    def test_floor_reaching_the_limit_is_returned(self):
        # a child's bound lifts the floor to the limit before the other
        # children are in, so one plus the smallest child so far is no bound
        dg = Digraph.make(range(4), [(0, 0), (0, 1), (0, 3), (1, 2), (2, 0), (2, 2), (2, 3), (3, 2), (3, 3)])
        assert naive_cycle_rank(dg.vertices, dg.arcs) == 2
        assert cycle_rank(dg) == 2


class TestCycleRankUpper:
    def test_dag_zero(self):
        assert cycle_rank_upper(Digraph.make(range(3), [(0, 1)])) == 0

    def test_directed_cycle_one(self):
        assert cycle_rank_upper(cycle(7)) == 1

    def test_upper_bounds_exact(self):
        for i in range(30):
            dg = random_digraph(7, 0.3, seed=400 + i)
            exact = cycle_rank(dg)
            upper = cycle_rank_upper(dg)
            assert exact <= upper <= len(dg.vertices)

    def test_deep_deletions_need_no_recursion(self):
        # the greedy deletions on this chain nest 253 deep
        dg = underlying_digraph(buffer_dfa(600))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert cycle_rank_upper(dg) == 253
        finally:
            sys.setrecursionlimit(limit)

    def test_torus_2x4_band(self):
        upper = cycle_rank_upper(underlying_digraph(torus_dfa(2, 4)))
        assert 3 <= upper <= 4

    # over-budget digraphs on which another tie-break among equal-degree
    # vertices (index order, reversed repr, last vertex) gives another bound
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(((a?*d?*)?+c*?)*((b?+d*?+aa*(a**+c**)*)b*?)**)?*", 4),
            ("(c+(((c**+d*)*+(c**d*?a**)?)c**b*?)*)?+d*?c?*", 3),
            ("((b**+((d*b)?a*?)*)c*?ac?*)*(b**+(c?*a)?)*", 4),
            ("(((a??+d)*a*?bc*?(d??a**)**)*(b?+b*)**)*+a?", 5),
            ("(((a**a*)*?a*a?(b**b?)*)*?+b?*)?(bb)*?", 4),
        ],
    )
    def test_pinned_greedy_victims(self, text, expected):
        dg = underlying_digraph(construct_of(parse(text)))
        with pytest.raises(CycleRankBudgetError):
            cycle_rank(dg)
        assert cycle_rank_upper(dg) == expected


class TestCycleRankRules:
    """Skipping dominated deletions and the forward-backward split keep the
    value of the search that had neither."""

    def test_construct_of_corpus(self):
        for alphabets in ((("a", "b"),), (("a", "b", "c", "d"),)):
            for r in corpus(150, seed=1100, alphabets=alphabets):
                dg = underlying_digraph(construct_of(r))
                budget = len(dg.vertices)
                assert cycle_rank(dg, budget) == reference_cycle_rank(dg), r
                assert cycle_rank_upper(dg) == reference_cycle_rank_upper(dg), r

    def test_families(self):
        auts = [torus_dfa(m, n) for m, n in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))]
        auts += [buffer_dfa(n) for n in (1, 2, 3, 5, 8, 12, 17)] + [hypercube_dfa(3)]
        for aut in auts:
            dg = underlying_digraph(aut)
            assert cycle_rank(dg) == reference_cycle_rank(dg)
            assert cycle_rank_upper(dg) == reference_cycle_rank_upper(dg)

    def test_random_with_loops_and_chains(self):
        for i in range(150):
            dg = chained_digraph(4 + i % 5, (0.15, 0.25, 0.4)[i % 3], seed=1000 + i)
            budget = len(dg.vertices)
            assert cycle_rank(dg, budget) == reference_cycle_rank(dg), sorted(dg.arcs)
            assert cycle_rank_upper(dg) == reference_cycle_rank_upper(dg), sorted(dg.arcs)

    def test_random_symmetric(self):
        for i in range(60):
            dg = symmetrize(chained_digraph(3 + i % 4, (0.15, 0.25, 0.4)[i % 3], seed=1300 + i))
            budget = len(dg.vertices)
            assert cycle_rank(dg, budget) == reference_cycle_rank(dg), sorted(dg.arcs)
            assert cycle_rank_upper(dg) == reference_cycle_rank_upper(dg), sorted(dg.arcs)

    def test_naive_agreement_with_chains(self):
        for i in range(30):
            dg = chained_digraph(5, 0.3, seed=1200 + i)
            assert cycle_rank(dg, 40) == naive_cycle_rank(dg.vertices, dg.arcs)

    def test_looped_vertex_behind_a_full_one(self):
        # 0 has three in- and out-neighbours besides itself; 1, 2 and 3 are
        # looped, and 0 is their only other neighbour, so only 0 is deleted
        arcs = [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3)]
        dg = Digraph.make(range(4), arcs)
        assert cycle_rank(dg) == naive_cycle_rank(dg.vertices, dg.arcs) == 2

    def test_looped_vertex_behind_a_vertex_with_one_way_out(self):
        # 1's only other in-neighbour 0 has two in-neighbours but one
        # out-neighbour, so it is not full: deleting 1 leaves no cycle,
        # and deleting 0 leaves 1's loop, so 1 must be tried
        arcs = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 0), (3, 0)]
        dg = Digraph.make(range(4), arcs)
        assert cycle_rank(dg) == naive_cycle_rank(dg.vertices, dg.arcs) == 1

    def test_cycles_keep_every_vertex(self):
        # no vertex of a cycle is full, so none is skipped
        for n in (2, 3, 5):
            ring = [(i, (i + 1) % n) for i in range(n)]
            assert cycle_rank(Digraph.make(range(n), ring)) == 1
            looped = Digraph.make(range(n), ring + [(i, i) for i in range(n)])
            assert cycle_rank(looped) == naive_cycle_rank(looped.vertices, looped.arcs) == 2

    def test_nothing_left(self):
        assert sccs(Digraph.make([], [])) == []
        assert cycle_rank(Digraph.make([], [])) == 0
        assert cycle_rank(Digraph.make([0], [])) == 0
        assert cycle_rank_upper(Digraph.make([], [])) == 0


class TestUndirectedCycleRank:
    def test_single_vertex(self):
        assert undirected_cycle_rank(Digraph.make([0], [])) == 0

    def test_path_of_seven(self):
        one_way = Digraph.make(range(7), [(i, i + 1) for i in range(6)])
        assert undirected_cycle_rank(one_way) == 2

    def test_triangle(self):
        assert undirected_cycle_rank(cycle(3)) == 2

    def test_at_least_directed(self):
        for i in range(20):
            dg = random_digraph(6, 0.3, seed=500 + i)
            assert undirected_cycle_rank(dg) >= cycle_rank(dg)

    def test_symmetrize_keeps_vertices(self):
        dg = symmetrize(cycle(4))
        assert dg.vertices == frozenset(range(4))
        assert (1, 0) in dg.arcs and (0, 1) in dg.arcs


class TestIndependentSet:
    def test_hypercube_parity_class(self):
        for d in (2, 3, 4):
            dg = underlying_digraph(hypercube_dfa(d))
            chosen = independent_set(dg)
            assert len(chosen) >= 2 ** (d - 1)
            for v in chosen:
                for w in chosen:
                    assert v == w or (v, w) not in dg.arcs

    def test_complete_graph_singleton(self):
        k4 = Digraph.make(range(4), [(u, v) for u in range(4) for v in range(4) if u != v])
        assert len(independent_set(k4)) == 1

    def test_arcless_all(self):
        dg = Digraph.make(range(5), [])
        assert independent_set(dg) == frozenset(range(5))

    def test_independent_and_maximal(self):
        for i in range(12):
            dg = random_digraph(8, 0.3, seed=600 + i)
            chosen = independent_set(dg)
            sym = symmetrize(dg)
            looped = {u for u, v in dg.arcs if u == v}
            assert not chosen & looped
            for v in chosen:
                for w in chosen:
                    assert v == w or (v, w) not in sym.arcs
            for v in set(dg.vertices) - chosen - looped:
                assert any((v, w) in sym.arcs for w in chosen), (i, v)

    def test_self_loops_excluded(self):
        dg = Digraph.make([0, 1], [(0, 0)])
        assert independent_set(dg) == frozenset({1})


class TestCyclesThrough:
    def test_directed_cycle(self):
        assert cycles_through(cycle(6), 0).count == 1

    def test_dag(self):
        dg = Digraph.make(range(3), [(0, 1), (1, 2)])
        assert cycles_through(dg, 1).count == 0

    def test_two_triangles_sharing_vertex(self):
        arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
        dg = Digraph.make(range(5), arcs)
        assert cycles_through(dg, 0).count == 2
        assert cycles_through(dg, 1).count == 1

    def test_saturation(self):
        k5 = Digraph.make(range(5), [(u, v) for u in range(5) for v in range(5) if u != v])
        out = cycles_through(k5, 0, cap=3)
        assert out.saturated and out.count == 3

    @pytest.mark.parametrize("cap", [7, 10**5])
    def test_equals_the_recursive_reference(self, cap):
        # the nine automata of the eliminate workload, unrelabelled, and the
        # 4-cube, each of whose vertices lies on 23 080 cycles; the cap of 7
        # stops most walks early
        auts = [*eliminate_automata(), hypercube_dfa(3), hypercube_dfa(4)]
        digraphs = [underlying_digraph(aut) for aut in auts]
        digraphs += [random_digraph(n, 0.35, seed) for seed, n in enumerate([1, 3, 6, 8, 10] * 4)]
        for dg in digraphs:
            for v in dg.vertices:
                assert astuple(cycles_through(dg, v, cap)) == reference_cycles_through(dg, v, cap)

    def test_a_chain_longer_than_the_recursion_limit(self):
        dg = underlying_digraph(buffer_dfa(1500))
        assert cycles_through(dg, 0) == CycleCount(1, False)
        assert cycles_through(dg, 700) == CycleCount(2, False)


class TestStarHeight:
    def test_ab_star(self):
        aut = minimize(subset_construction(construct_position(parse("(ab)*"))), "partial")
        assert star_height_bideterministic(aut) == 1

    def test_buffer_six(self):
        assert star_height_bideterministic(buffer_dfa(6)) == 2

    def test_torus_2x4(self):
        assert star_height_bideterministic(torus_dfa(2, 4)) == 3

    def test_refuses_non_bideterministic(self):
        aut = subset_construction(construct_position(parse("a?")))
        with pytest.raises(NotBideterministicError):
            star_height_bideterministic(aut)

    def test_eggan_proxy_on_corpus(self):
        for r in corpus(60, seed=700, max_awidth=8):
            dg = underlying_digraph(construct_of(r))
            assert cycle_rank(dg, budget=60) <= measures(r).height
