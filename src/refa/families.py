"""Witness families and random automata used throughout the benchmarks.

The buffer family describes action sequences of a bounded buffer (push a,
pop b) that return to empty without overflowing; its minimal DFA is a
chain.  The option family chains optional letters and blows the position
automaton up quadratically.  The hypercube automaton interleaves d
independent ab-loops; the torus automaton counts two letters modulo m and
n simultaneously.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .automata import Automaton, _explore
from .expressions import EPSILON, Concat, RegEx, Star, Sym, Union, _rewrite_symbols

__all__ = [
    "FamilyArtifact",
    "buffer_regex",
    "buffer_dfa",
    "options_regex",
    "row1_regex",
    "row2_regex",
    "row3_regex",
    "table1_row",
    "hypercube_dfa",
    "torus_dfa",
    "random_dfa",
    "gen_family",
    "FAMILIES",
]


@dataclass(frozen=True)
class FamilyArtifact:
    regex: RegEx | None
    automaton: Automaton | None


def _check(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def buffer_regex(n: int) -> RegEx:
    """(ab)*, then (a·r·b)* nested n-1 more times."""
    _check(n >= 1, "buffer capacity must be >= 1")
    r: RegEx = Star(Concat(Sym("a"), Sym("b")))
    for _ in range(n - 1):
        r = Star(Concat(Concat(Sym("a"), r), Sym("b")))
    return r


def buffer_dfa(n: int) -> Automaton:
    """Minimal DFA of the capacity-n buffer language: a chain of n+1 states."""
    _check(n >= 1, "buffer capacity must be >= 1")
    transitions = [(i, "a", i + 1) for i in range(n)]
    transitions += [(i + 1, "b", i) for i in range(n)]
    return Automaton.make(range(n + 1), {"a", "b"}, 0, {0}, transitions)


def options_regex(n: int) -> RegEx:
    """(a1+λ)(a2+λ)···(an+λ)."""
    _check(n >= 1, "n must be >= 1")
    out: RegEx = Union(Sym("a1"), EPSILON)
    for i in range(2, n + 1):
        out = Concat(out, Union(Sym(f"a{i}"), EPSILON))
    return out


def row1_regex(n: int) -> RegEx:
    """r1 = (a1+λ)*, r_{k+1} = (r_k + shifted copy)*; awidth 2^(n-1)."""
    _check(n >= 1, "n must be >= 1")
    r: RegEx = Star(Union(Sym("a1"), EPSILON))
    for k in range(1, n):
        shifted = _rewrite_symbols(r, lambda name: Sym(f"a{int(name[1:]) + 2 ** (k - 1)}"))
        r = Star(Union(r, shifted))
    return r


def _sym_sum(prefix: str, n: int) -> RegEx:
    out: RegEx = Sym(f"{prefix}1")
    for i in range(2, n + 1):
        out = Union(out, Sym(f"{prefix}{i}"))
    return out


def row2_regex(n: int, m: int | None = None) -> RegEx:
    """(a1+..+an)(a1+..+an+b1+..+bm)*; m defaults to n."""
    m = n if m is None else m
    _check(n >= 1 and m >= 1, "parameters must be >= 1")
    return Concat(_sym_sum("a", n), Star(Union(_sym_sum("a", n), _sym_sum("b", m))))


def row3_regex(n: int) -> RegEx:
    """a1·B* + a2·B* + ... + an·B* with B = b1+..+bn; awidth n²+n."""
    _check(n >= 1, "n must be >= 1")
    terms = [Concat(Sym(f"a{i}"), Star(_sym_sum("b", n))) for i in range(1, n + 1)]
    out: RegEx = terms[0]
    for t in terms[1:]:
        out = Union(out, t)
    return out


def table1_row(k: int, n: int, m: int | None = None) -> RegEx:
    """Expression of Table 1, row k: row1, row2, row3, then options."""
    _check(1 <= k <= 4, "table row must be 1..4")
    params = (n,) if m is None else (n, m)
    return gen_family(("row1", "row2", "row3", "options")[k - 1], *params).regex


def hypercube_dfa(d: int) -> Automaton:
    """Partial DFA on bit vectors: a_i sets bit i, b_i clears it.

    States are the integers 0..2^d-1; initial and single final state is 0,
    so the underlying graph is the d-dimensional hypercube.
    """
    _check(d >= 1, "dimension must be >= 1")
    alphabet = [f"a{i}" for i in range(1, d + 1)] + [f"b{i}" for i in range(1, d + 1)]
    transitions = []
    for state in range(2**d):
        for i in range(1, d + 1):
            bit = 1 << (i - 1)
            if state & bit:
                transitions.append((state, f"b{i}", state & ~bit))
            else:
                transitions.append((state, f"a{i}", state | bit))
    return Automaton.make(range(2**d), alphabet, 0, {0}, transitions)


def torus_dfa(m: int, n: int) -> Automaton:
    """Product of two cycle counters: a modulo m, b modulo n.

    The underlying digraph is the directed (m×n)-torus; state (i,j) is
    encoded as i·n+j, initial and single final state is (0,0).
    """
    _check(1 <= m <= n, "torus needs 1 <= m <= n")
    transitions = []
    for i in range(m):
        for j in range(n):
            transitions.append((i * n + j, "a", ((i + 1) % m) * n + j))
            transitions.append((i * n + j, "b", i * n + (j + 1) % n))
    return Automaton.make(range(m * n), {"a", "b"}, 0, {0}, transitions)


def random_dfa(n: int, alphabet_size: int, seed: int) -> Automaton:
    """Uniform random complete DFA, restricted to its accessible part and
    numbered by :func:`_explore` over its letters.

    Transition targets are uniform, each state is final with probability
    one half (at least one final enforced); deterministic per seed.
    """
    _check(n >= 1, "state count must be >= 1")
    _check(alphabet_size >= 1, "alphabet size must be >= 1")
    if alphabet_size <= 26:
        letters = [chr(ord("a") + i) for i in range(alphabet_size)]
    else:
        letters = [f"a{i}" for i in range(1, alphabet_size + 1)]
    rng = random.Random(seed)
    delta = {(q, a): rng.randrange(n) for q in range(n) for a in letters}
    finals = {q for q in range(n) if rng.random() < 0.5}
    if not finals:
        finals = {rng.randrange(n)}

    reached, transitions = _explore(0, lambda q: [(a, delta[(q, a)]) for a in letters])
    return Automaton.make(
        range(len(reached)),
        letters,
        0,
        [i for i, q in enumerate(reached) if q in finals],
        transitions,
    )


class _Family(NamedTuple):
    regex: Callable[..., RegEx] | None
    automaton: Callable[..., Automaton] | None
    arity: tuple[int, ...]  # the accepted parameter counts


_FAMILY_TABLE = {
    "buffer": _Family(buffer_regex, buffer_dfa, (1,)),
    "options": _Family(options_regex, None, (1,)),
    "row1": _Family(row1_regex, None, (1,)),
    "row2": _Family(row2_regex, None, (1, 2)),
    "row3": _Family(row3_regex, None, (1,)),
    "hypercube": _Family(None, hypercube_dfa, (1,)),
    "torus": _Family(None, torus_dfa, (2,)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def gen_family(kind: str, *params: int) -> FamilyArtifact:
    """Family dispatcher; returns the expression and/or automaton available."""
    if kind not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {kind!r}")
    family = _FAMILY_TABLE[kind]
    counts = " or ".join(map(str, family.arity))
    _check(len(params) in family.arity, f"family {kind} takes {counts} parameter(s)")
    return FamilyArtifact(
        family.regex(*params) if family.regex else None,
        family.automaton(*params) if family.automaton else None,
    )
