"""Values computed once per expression node must equal those computed afresh.

A warm tree (one whose nodes already hold their hash, text, nullability
and measures, shared with its derivatives and its simplified form) must
give the same answers as an equal tree built from new nodes, and the
stored values must stay invisible to equality, repr, the dataclass fields,
copies and pickles.
"""

import copy
import functools
import pickle
import random
import threading
from dataclasses import astuple

import pytest

from refa.constructions import (
    construct,
    construct_brzozowski,
    construct_follow,
    construct_of,
    construct_pd,
    construct_position,
    derivative,
    partial_derivatives,
)
from refa.elimination import simplify
from refa.expressions import (
    EMPTY,
    EPSILON,
    Concat,
    MarkedRegEx,
    MeasureReport,
    Option,
    Star,
    Sym,
    Union,
    mark,
    measures,
    nullable,
    parse,
    random_expr,
    render,
    ssnf,
    unmark,
)
from refa.families import buffer_regex, options_regex

from conftest import _aci, lambda_heavy_tree, rebuild

LETTERS = ("a", "b")


class Hashed:
    """Stands in for a node whose hash is already known."""

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def reference_hash(r) -> int:
    """The dataclass hash of the fields, recomputed without any node's __hash__."""
    if isinstance(r, (Union, Concat)):
        return hash((Hashed(reference_hash(r.left)), Hashed(reference_hash(r.right))))
    if isinstance(r, (Star, Option)):
        return hash((Hashed(reference_hash(r.inner)),))
    if isinstance(r, Sym):
        return hash((r.name, r.pos))
    return hash(())


def derived(r) -> tuple:
    """Every memoised value of r, plus the derivatives that build on them."""
    return (
        render(r),
        render(r, unicode=True),
        nullable(r),
        hash(r),
        render(_aci(r)),
        _aci(r),
        render(simplify(r)),
        simplify(r),
        measures(r),
        tuple(derivative(r, a) for a in LETTERS),
        tuple(frozenset(partial_derivatives(r, a)) for a in LETTERS),
    )


def sample_trees() -> list:
    trees = [random_expr(w, list(LETTERS), seed) for seed, w in enumerate([1, 2, 3, 5, 8, 13] * 10)]
    trees += [lambda_heavy_tree(random.Random(seed), 5) for seed in range(120)]
    return trees


class TestWarmAgreesWithFresh:
    def test_random_trees_and_their_derivatives(self):
        for t in sample_trees():
            fresh = rebuild(t)
            cold = derived(fresh)
            assert derived(t) == cold
            assert derived(t) == cold  # now served from the stored values
            assert hash(t) == reference_hash(t)
            # derivatives share subterms with t, which are warm by now
            for d in {derivative(t, a) for a in LETTERS} | set().union(*(partial_derivatives(t, a) for a in LETTERS)):
                assert derived(d) == derived(rebuild(d))
                assert hash(d) == reference_hash(d)

    def test_parse_of_render_is_an_equal_fresh_tree(self):
        for t in sample_trees()[:60]:  # random_expr trees round-trip exactly
            warm = derived(t)
            again = parse(render(t))
            assert again == t
            assert derived(again) == warm

    def test_marked_and_unmarked_symbols_stay_apart(self):
        plain = Star(Concat(Sym("a"), Sym("b")))
        marked = mark(plain).tree
        assert marked == Star(Concat(Sym("a", 1), Sym("b", 2)))
        derived(marked)
        assert hash(plain) == reference_hash(plain)
        assert hash(marked) == reference_hash(marked)
        assert len({plain, marked, Sym("a", 1), Sym("a")}) == 4
        assert _aci(plain) == plain and _aci(marked) == marked
        assert simplify(plain) == plain and simplify(marked) == marked
        assert render(plain) == render(marked) == "(ab)*"

    def test_unicode_text_after_ascii_text(self):
        t = Union(EPSILON, Concat(Sym("a"), Star(Option(EMPTY))))
        assert render(t) == "&+a#?*"
        assert render(t, unicode=True) == "λ+a∅?*"
        assert str(t) == render(t) == "&+a#?*"
        assert render(Star(t), unicode=True) == "(λ+a∅?*)*"


class TestStoredValuesAreInvisible:
    @pytest.mark.parametrize("seed", range(20))
    def test_equality_repr_fields_copies_and_pickles(self, seed):
        t = random_expr(9, list(LETTERS), seed)
        twin = rebuild(t)
        before = (repr(t), astuple(t), pickle.dumps(t))
        derived(t)
        assert t == twin and hash(t) == hash(twin)
        assert (repr(t), astuple(t), pickle.dumps(t)) == before
        assert pickle.dumps(t) == pickle.dumps(twin)
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert clone == t
            assert derived(clone) == derived(twin)

    def test_pickle_leaves_the_hash_behind(self):
        # str hashes differ between processes, so a stored hash must not travel
        t = Star(Union(Sym("a"), Sym("b")))
        hash(t)
        render(t)
        state = t.__reduce_ex__(2)[2]
        assert state == {"inner": t.inner}


def star_chain(n: int):
    r = Sym("a")
    for _ in range(n):
        r = Concat(Star(r), Sym("b"))
    return r


def option_chain(n: int):
    r = Sym("a")
    for _ in range(n):
        r = Concat(Option(Sym("b")), r)
    return r


def union_chain(n: int):
    r = Sym("a")
    for _ in range(n):
        r = Union(r, Sym("b"))
    return Union(r, EPSILON)


# The deepest input each walk handled before it stored its results on the
# nodes, bisected in a fresh thread under the default recursion limit of
# 1000 (CPython 3.11); storing values must not cost stack frames.
DEPTH_BEFORE_MEMO = [
    ("render", render, star_chain, 331),
    ("nullable", nullable, option_chain, 994),
    ("simplify", simplify, star_chain, 496),
    ("_aci", _aci, star_chain, 496),
]


def pd_a(r):
    return partial_derivatives(r, "a")


def pd_b(r):
    return partial_derivatives(r, "b")


# The deepest input construct_of and construct_follow handled before they
# built into one arc store, and partial_derivatives before it became one
# linear-form walk, bisected the same way after a warm-up call.  On star chains the letter
# `a` runs deepest (its terms grow longest) and costs 0.3 s; `b` reached
# 249 both before and after, but one such run builds cubically many terms
# and takes about 40 s.
DEPTH_BEFORE_ARC_STORE = [
    ("construct_of-star", construct_of, star_chain, 496),
    ("construct_of-buffer", construct_of, buffer_regex, 331),
    ("construct_of-option", construct_of, option_chain, 991),
    ("construct_follow-star", construct_follow, star_chain, 495),
    ("construct_follow-buffer", construct_follow, buffer_regex, 330),
    ("construct_follow-option", construct_follow, option_chain, 989),
    ("partial_derivatives-a-star", pd_a, star_chain, 247),
    ("partial_derivatives-b-option", pd_b, option_chain, 495),
]


def derivative_a(r):
    return derivative(r, "a")


def derivative_b(r):
    return derivative(r, "b")


# The deepest input derivative handled before it shared one memo of raw
# derivatives across a construction, bisected the same way.
DEPTH_BEFORE_DERIVATIVE_MEMO = [
    ("derivative-a-star", derivative_a, star_chain, 247),
    ("derivative-b-star", derivative_b, star_chain, 329),
    ("derivative-a-option", derivative_a, option_chain, 989),
    ("derivative-b-option", derivative_b, option_chain, 495),
    ("derivative-a-buffer", derivative_a, buffer_regex, 330),
    ("derivative-b-buffer", derivative_b, buffer_regex, 330),
]
# partial_derivatives on one term table: `b` on star chains reached 249
# before it too, but took about 40 s there; it must now end within the
# thread timeout below.
DEPTH_AFTER_TERM_TABLE = [("partial_derivatives-b-star", pd_b, star_chain, 249)]


def a_chain(n: int):
    return parse("a" * n)  # n symbols, concatenated to the left


# The deepest left-nested chains construct_pd handled while the linear form of
# `(L)·x` extended the form of L by x, bisected the same way; it now takes the
# form of the right-associated equal, which reached 989 on both.
DEPTH_BEFORE_LINEAR_CHAINS = [
    ("construct_pd-a-chain", construct_pd, a_chain, 987),
    ("construct_pd-options", construct_pd, options_regex, 987),
]
# The deepest input construct_brzozowski handled while it derived each term
# by one letter at a time, bisected the same way, was 330 deep on star chains
# and 987 on option chains; on one derivative table per term it reached 494
# and 988, and buffer_regex reached 1500 on both.  The deepest input it
# handles with union branches ordered by identity and concatenation chains
# interned whole, bisected the same way, is below; these rows are deeper on
# the same chains, so they also check the earlier limits.
DEPTH_AFTER_IDENTITY_ORDER = [
    ("construct_brzozowski-star-identity-order", construct_brzozowski, star_chain, 494),
    ("construct_brzozowski-option-identity-order", construct_brzozowski, option_chain, 989),
]
# _aci and simplify rebuild their input through the constructors of a term
# table on an explicit stack, so they take any depth.
DEPTH_AFTER_NORMAL_TERMS = [
    ("_aci-any-depth", _aci, star_chain, 10**4),
    ("simplify-any-depth", simplify, star_chain, 10**4),
]
# The walks over whole trees are loops over one post-order generator, so
# they take any depth.  render stops at 3000: the texts kept on the nested
# stars of buffer_regex(n) add up to quadratic length.
DEPTH_AFTER_POSTORDER = [
    ("construct_of-any-depth", construct_of, buffer_regex, 10**4),
    ("construct_follow-any-depth", construct_follow, buffer_regex, 10**4),
    ("nullable-any-depth", nullable, union_chain, 10**5),
    ("ssnf-any-depth", ssnf, star_chain, 10**4),
    ("render-any-depth", render, buffer_regex, 3000),
]


def star_text(n: int) -> str:
    return render(star_chain(n))


def option_text(n: int) -> str:
    return render(option_chain(n))


# The deepest text `construct` took on pd and bdfa, bisected the same way,
# both while it parsed the text first and now that each route reads the
# text into its term table (the same depths on both).
DEPTH_TEXT_ROUTES = [
    ("construct-pd-star-text", functools.partial(construct, "pd"), star_text, 492),
    ("construct-pd-option-text", functools.partial(construct, "pd"), option_text, 987),
    ("construct-bdfa-star-text", functools.partial(construct, "bdfa"), star_text, 494),
    ("construct-bdfa-option-text", functools.partial(construct, "bdfa"), option_text, 988),
]
DEPTH_CASES = (
    DEPTH_BEFORE_MEMO
    + DEPTH_BEFORE_ARC_STORE
    + DEPTH_BEFORE_DERIVATIVE_MEMO
    + DEPTH_AFTER_TERM_TABLE
    + DEPTH_BEFORE_LINEAR_CHAINS
    + DEPTH_AFTER_IDENTITY_ORDER
    + DEPTH_AFTER_NORMAL_TERMS
    + DEPTH_AFTER_POSTORDER
    + DEPTH_TEXT_ROUTES
)


@pytest.mark.parametrize(
    "fn,build,depth", [case[1:] for case in DEPTH_CASES], ids=[case[0] for case in DEPTH_CASES]
)
def test_walks_are_no_shallower_than_before(fn, build, depth):
    fn(build(2))  # the limits were bisected with the code warm
    tree = build(depth)
    outcome = []

    def run():
        try:
            fn(tree)
            outcome.append("ok")
        except RecursionError:
            outcome.append("RecursionError")

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert outcome == ["ok"]


def test_measures_walks_any_depth():
    # a walk on an explicit stack: 10^5 levels, far past the recursion limit
    n = 10**5
    assert measures(star_chain(n)) == MeasureReport(7 * n + 1, 3 * n + 1, n + 1, n)
    assert measures(parse("a" * 1000)) == MeasureReport(3997, 1999, 1000, 0)


def test_mark_and_unmark_walk_any_depth():
    # the same 10^5 levels, checked level by level from the outside in:
    # == on the whole tree would recurse
    n = 10**5
    chain = star_chain(n)
    marked = mark(chain).tree
    plain = unmark(MarkedRegEx(marked, chain))
    for tree, pos in ((marked, lambda k: k), (plain, lambda k: None)):
        node = tree
        for level in range(n, 0, -1):
            assert type(node) is Concat and type(node.left) is Star
            assert node.right == Sym("b", pos(level + 1))
            node = node.left.inner
        assert node == Sym("a", pos(1))


def test_position_walks_any_depth():
    # position_sets runs on an explicit stack and takes nullability bottom-up.
    # The star and option chains have quadratically many follow pairs
    # (5*10^7 at 10^4 levels), so they are taken only past the recursion
    # limit; the buffer (nested stars) and the union chain (a nullable test
    # that recursed through every level) stay linear in size.
    assert len(construct_position(star_chain(600)).transitions) == 181501
    aut = construct_position(buffer_regex(10**4))
    assert len(aut.states) == 2 * 10**4 + 1 and aut.finals == {0, 2 * 10**4}
    aut = construct_position(union_chain(3000))
    assert len(aut.transitions) == 3001 and 0 in aut.finals


def test_stored_value_walks_visit_each_distinct_node_once():
    # 61 distinct nodes, 2**61 - 1 occurrences: a walk per occurrence never ends
    x = Sym("a")
    for _ in range(60):
        x = Union(x, x)
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append((measures(x).awidth, nullable(x))), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert outcome == [(2**60, False)]


def test_tree_walks_visit_each_occurrence():
    # one subtree object three times over: every occurrence gets its own
    # states and positions, as in an equal tree of new nodes
    s = parse("(a+b)*c")
    t = Concat(Union(s, Star(s)), s)
    fresh = rebuild(t)
    for build in (construct_of, construct_follow, construct_position):
        assert build(t) == build(fresh)
    assert mark(t).tree == mark(fresh).tree
    assert len(construct_position(t).states) == 10
