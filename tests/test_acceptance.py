"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline); the corpora are deterministic, so failures reproduce.
"""

import math
import random
import time
from contextlib import contextmanager

from refa.automata import (
    equivalent,
    is_bideterministic,
    minimize,
    subset_construction,
)
from refa.constructions import (
    construct_brzozowski,
    construct_follow,
    construct_of,
    construct_pd,
    construct_position,
    position_sets,
)
from refa.digraphs import (
    Digraph,
    cycle_rank,
    star_height_bideterministic,
    underlying_digraph,
)
from refa.elimination import arden_solve, mcnaughton_yamada, simplify, state_elimination
from refa.expressions import mark, measures, parse, random_expr, render, ssnf
from refa.families import (
    buffer_dfa,
    buffer_regex,
    hypercube_dfa,
    options_regex,
    random_dfa,
    row3_regex,
    torus_dfa,
)

from conftest import canonical, naive_cycle_rank


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


def _corpus_500():
    out = []
    for i in range(500):
        alpha = ["a", "b"] if i % 2 == 0 else ["a", "b", "c", "d"]
        out.append(random_expr(1 + i % 12, alpha, seed=41000 + i))
    return out


def test_c01_worked_example_fidelity():
    with criterion(1, "worked-example fidelity"):
        target = "(a(a(a(a(a(ab)*b)*b)*b)*b)*b)*"
        start = time.perf_counter()
        assert render(state_elimination(buffer_dfa(6), [6, 5, 4, 3, 2, 1, 0])) == target
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        assert render(arden_solve(buffer_dfa(6))) == target
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        got = mcnaughton_yamada(buffer_dfa(3), [3, 2, 1, 0])
        assert render(got, unicode=True) == "λ+(a(a(ab)*b)*b)*a(a(ab)*b)*b"
        assert time.perf_counter() - start < 1.0


def test_c02_elimination_order_sensitivity():
    with criterion(2, "elimination-order sensitivity"):
        short = state_elimination(buffer_dfa(6), [6, 5, 4, 3, 2, 1, 0])
        low = state_elimination(buffer_dfa(6), [0, 2, 4, 6, 1, 5, 3])
        assert equivalent(construct_follow(low), buffer_dfa(6))
        assert measures(low).height == 2
        assert measures(short).height == 6


def test_c03_position_set_fidelity():
    with criterion(3, "position-set fidelity"):
        for n in range(1, 11):
            sets = position_sets(mark(buffer_regex(n)))
            chain = {(i, i + 1) for i in range(1, 2 * n)}
            mirror = {(i, 2 * n - i + 1) for i in range(1, n + 1)}
            mirror |= {(2 * n - i + 1, i) for i in range(1, n + 1)}
            assert sets.first == frozenset({1})
            assert sets.last == frozenset({2 * n})
            assert sets.follow == frozenset(chain | mirror)


def test_c04_position_automaton_counts():
    with criterion(4, "position-automaton counts"):
        for i in range(1000):
            r = random_expr(1 + i % 12, ["a", "b", "c"], seed=52000 + i)
            assert len(construct_position(r).states) == measures(r).awidth + 1
        for n in range(1, 13):
            aut = construct_position(options_regex(n))
            assert len(aut.transitions) == n * (n + 1) // 2
        assert len(construct_position(options_regex(5)).transitions) == 15


CORPUS = _corpus_500()


def test_c05_construction_equivalence():
    with criterion(5, "construction equivalence"):
        start = time.perf_counter()
        for r in CORPUS:
            sigma = frozenset({"a", "b", "c", "d"})
            canons = [
                canonical(build(r), sigma)
                for build in (
                    construct_of,
                    construct_follow,
                    construct_position,
                    construct_pd,
                    construct_brzozowski,
                )
            ]
            assert all(c == canons[0] for c in canons), render(r)
        assert time.perf_counter() - start < 120.0


def test_c06_determinization_bound():
    with criterion(6, "determinization bound"):
        for r in CORPUS:
            pos = construct_position(r)
            dfa = minimize(subset_construction(pos), "complete")
            assert len(dfa.states) <= 2 ** measures(r).awidth + 1


def _suite_digraphs():
    dags = [
        Digraph.make(range(4), [(0, 1), (1, 2), (0, 3)]),
        Digraph.make(range(6), [(i, j) for i in range(6) for j in range(i + 1, 6)]),
        Digraph.make(range(3), []),
    ]
    cycles = [
        Digraph.make(range(n), [(i, (i + 1) % n) for i in range(n)]) for n in (1, 2, 5, 9)
    ]
    paths = []
    for n in range(1, 15):
        arcs = [(i, i + 1) for i in range(n)] + [(i + 1, i) for i in range(n)]
        paths.append(Digraph.make(range(n + 1), arcs))
    rng = random.Random(77)
    randoms = []
    for _ in range(20):
        n = rng.randint(3, 10)
        arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3]
        randoms.append(Digraph.make(range(n), arcs))
    return dags, cycles, paths, randoms


def test_c07_cycle_rank():
    with criterion(7, "cycle rank"):
        dags, cycles, paths, randoms = _suite_digraphs()
        for dg in dags:
            assert cycle_rank(dg) == 0
        for dg in cycles:
            assert cycle_rank(dg) == 1
        assert cycle_rank(underlying_digraph(torus_dfa(2, 2))) == 2
        assert cycle_rank(underlying_digraph(torus_dfa(2, 4))) == 3
        assert cycle_rank(underlying_digraph(torus_dfa(3, 3))) == 3
        for n, dg in enumerate(paths, start=1):
            assert cycle_rank(dg) == int(math.log2(n + 1)), n
        small = [dg for dg in dags + cycles + paths + randoms if len(dg.vertices) <= 10]
        small.append(underlying_digraph(torus_dfa(2, 4)))
        small.append(underlying_digraph(torus_dfa(3, 3)))
        assert small
        for dg in small:
            assert cycle_rank(dg) == naive_cycle_rank(dg.vertices, dg.arcs)


def test_c08_star_height_mcnaughton():
    with criterion(8, "star height via bideterminism"):
        ab = minimize(subset_construction(construct_position(parse("(ab)*"))), "partial")
        cases = [(ab, 1), (buffer_dfa(6), 2), (torus_dfa(2, 4), 3)]
        for aut, expected in cases:
            assert is_bideterministic(minimize(aut, "partial"))
            assert star_height_bideterministic(aut) == expected


def test_c09_table1_trends():
    with criterion(9, "table-1 growth trends"):
        def size(aut):
            return len(aut.states) + len(aut.transitions)

        for n in (8, 16, 32):
            ratio = size(construct_position(options_regex(2 * n))) / size(
                construct_position(options_regex(n))
            )
            assert abs(ratio - 4.0) <= 0.8, ratio
            ratio = size(construct_pd(row3_regex(2 * n))) / size(construct_pd(row3_regex(n)))
            assert abs(ratio - 2.0) <= 0.4, ratio
            ratio = size(construct_position(row3_regex(2 * n))) / size(
                construct_position(row3_regex(n))
            )
            assert abs(ratio - 8.0) <= 1.6, ratio
        for n in (1, 2, 4, 8, 16, 32):
            assert len(construct_pd(row3_regex(n)).states) == 2


def test_c10_state_elimination_bound():
    with criterion(10, "state-elimination width bound"):
        strategies = ("id", "greedy", "dm", "cycles", "indep", "bridge")
        for i in range(20):
            aut = random_dfa(6, 2, seed=61000 + i)
            bound = len(aut.alphabet) * 4 ** len(aut.states)
            for strategy in strategies:
                expr = state_elimination(aut, strategy)
                assert measures(expr).awidth <= bound

        cube = hypercube_dfa(3)
        via_indep = measures(state_elimination(cube, "indep")).awidth
        rng = random.Random(97)
        states = sorted(cube.states)
        worst = 0
        for _ in range(20):
            perm = states[:]
            rng.shuffle(perm)
            worst = max(worst, measures(state_elimination(cube, perm)).awidth)
        assert via_indep < worst


def test_c11_simplifier_and_ssnf():
    with criterion(11, "simplifier and star normal form"):
        for i in range(1000):
            alpha = ["a", "b"] if i % 2 == 0 else ["a", "b", "c", "d"]
            r = random_expr(1 + i % 8, alpha, seed=71000 + i)
            s = simplify(r)
            t = ssnf(r)
            assert simplify(s) == s
            assert ssnf(t) == t
            before = measures(r)
            after = measures(t)
            assert after.size <= before.size
            assert after.rpn <= before.rpn
            assert after.awidth <= before.awidth
            assert after.height <= before.height
            if i % 4 == 0:  # oracle equivalence on a quarter of the corpus
                assert equivalent(construct_position(r), construct_position(s))
                assert equivalent(construct_position(r), construct_position(t))


def test_c12_eggan_proxy():
    with criterion(12, "Eggan star-height proxy"):
        for r in CORPUS:
            dg = underlying_digraph(construct_of(r))
            assert cycle_rank(dg, budget=120) <= measures(r).height
