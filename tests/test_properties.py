"""Differential properties drawn by Hypothesis.

* `to_json` writes exactly what ``json.dumps(to_dict(a), indent=2)`` writes,
  on automata with int and string states (quotes, backslashes, control and
  non-ASCII characters), λ labels, and empty alphabets, finals and
  transitions.
* The derivatives that one memo, shared across calls as in
  `construct_brzozowski`, gives for every iterated derivative of a tree
  equal the derivatives of the unmemoised recursion.

Skipped where Hypothesis is not installed.
"""

import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from refa.automata import Automaton, to_dict, to_json
from refa.constructions import _aci, derivative
from refa.expressions import (
    EMPTY,
    EPSILON,
    Concat,
    Empty,
    Epsilon,
    Option,
    Star,
    Sym,
    Union,
    nullable,
    random_expr,
    render,
)

from conftest import lambda_heavy_tree, rebuild

NAMES = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x7fé€ 𝄞'), max_size=4) | st.text(max_size=4)
STATES = st.integers(-(10**12), 10**12) | NAMES


@st.composite
def automata(draw) -> Automaton:
    states = draw(st.lists(STATES, min_size=1, max_size=8, unique=True))
    alphabet = draw(st.lists(NAMES, max_size=4, unique=True))
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


def reference_derivative(r, a):
    """The per-call recursion without a memo, in ACI normal form."""

    def go(node):
        if isinstance(node, (Empty, Epsilon)):
            return EMPTY
        if isinstance(node, Sym):
            return EPSILON if node.name == a else EMPTY
        if isinstance(node, Union):
            return Union(go(node.left), go(node.right))
        if isinstance(node, Option):
            return go(node.inner)
        if isinstance(node, Star):
            return Concat(go(node.inner), node)
        head = Concat(go(node.left), node.right)
        return Union(head, go(node.right)) if nullable(node.left) else head

    return _aci(go(r))


TREES = st.builds(
    lambda awidth, seed: random_expr(awidth, ["a", "b"], seed), st.integers(1, 10), st.integers(0, 10**6)
) | st.builds(lambda seed: lambda_heavy_tree(random.Random(seed), 6), st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_shared_memo_derivatives_equal_unmemoised_ones(tree):
    memo: dict = {}
    start = _aci(tree)
    seen = {start}
    queue = [start]
    while queue and len(seen) < 60:
        term = queue.pop(0)
        for a in ("a", "b"):
            d = derivative(term, a, memo)
            fresh = reference_derivative(rebuild(term), a)
            assert d == fresh and render(d) == render(fresh)
            if d not in seen:
                seen.add(d)
                queue.append(d)
