"""Constructions turning regular expressions into finite automata.

Five routes with very different size behaviour:

* ``construct_of`` — the classic inductive λ-NFA (shared end states for
  union, a shared middle state for concatenation, a looped middle state
  for star); linear size.
* ``construct_follow`` — the same recursion with eager λ-merging plus a
  final λ-elimination; a λ-free NFA that is never larger than the position
  automaton.
* ``construct_position`` — the position (Glushkov) automaton from the
  first/last/follow sets of the marked expression; always awidth+1 states.
* ``construct_pd`` — the partial derivative (Antimirov) automaton.
* ``construct_brzozowski`` — the derivative DFA, complete by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Automaton, _adjacency, _reach, _reachable, _restrict, remove_lambda
from .expressions import (
    EMPTY,
    EPSILON,
    Concat,
    Empty,
    Epsilon,
    MarkedRegEx,
    Option,
    RegEx,
    Star,
    Sym,
    Union,
    _render,
    _set,
    _union_of,
    mark,
    nullable,
    symbols_of,
)

__all__ = [
    "PositionSets",
    "ConstructionError",
    "CONSTRUCTION_NAMES",
    "construct",
    "construct_of",
    "construct_follow",
    "position_sets",
    "construct_position",
    "partial_derivatives",
    "construct_pd",
    "derivative",
    "construct_brzozowski",
]


class ConstructionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Ott-Feinstein λ-NFA and the follow automaton


class _Frag:
    """Sub-automaton under construction: one entry, one exit, loose arcs.

    The recursion maintains that no arc enters `init` and none leaves `fin`;
    this is what makes plain state sharing at the endpoints sound.
    """

    __slots__ = ("init", "fin", "trans")

    def __init__(self, init: int, fin: int, trans: set):
        self.init = init
        self.fin = fin
        self.trans = trans


def _replace(trans: set, old: int, new: int) -> set:
    return {
        (new if p == old else p, a, new if q == old else q) for p, a, q in trans
    }


class _InductiveNfaBuilder:
    def __init__(self, improve: bool):
        self.improve = improve
        self.n = 0

    def fresh(self) -> int:
        self.n += 1
        return self.n - 1

    def build(self, r: RegEx) -> _Frag:
        if isinstance(r, Empty):
            return _Frag(self.fresh(), self.fresh(), set())
        if isinstance(r, Epsilon):
            i, f = self.fresh(), self.fresh()
            return _Frag(i, f, {(i, None, f)})
        if isinstance(r, Sym):
            i, f = self.fresh(), self.fresh()
            return _Frag(i, f, {(i, r.name, f)})
        if isinstance(r, Union):
            return self._union(self.build(r.left), self.build(r.right))
        if isinstance(r, Option):
            frag = self.build(r.inner)
            frag.trans.add((frag.init, None, frag.fin))  # union with λ
            return frag
        if isinstance(r, Concat):
            return self._concat(self.build(r.left), self.build(r.right))
        return self._star(self.build(r.inner))

    def _union(self, a: _Frag, b: _Frag) -> _Frag:
        trans = _replace(_replace(b.trans, b.init, a.init), b.fin, a.fin)
        return _Frag(a.init, a.fin, a.trans | trans)

    def _concat(self, a: _Frag, b: _Frag) -> _Frag:
        m = a.fin
        frag = _Frag(a.init, b.fin, a.trans | _replace(b.trans, b.init, m))
        if self.improve:
            self._contract_around(frag, m)
        return frag

    def _star(self, a: _Frag) -> _Frag:
        m = a.init
        trans = _replace(a.trans, a.fin, m)
        if self.improve:
            trans, m = self._collapse_lambda_cycle(trans, m)
        i, f = self.fresh(), self.fresh()
        trans |= {(i, None, m), (m, None, f)}
        return _Frag(i, f, trans)

    # -- λ merging ----------------------------------------------------------

    def _contract_around(self, frag: _Frag, m: int):
        # a λ-arc into or out of the shared middle state is contracted when
        # it is the only arc out of its source or the only arc into its
        # target; when the absorbed state is the fragment's entry (exit) the
        # uniqueness must hold on the middle state's side, otherwise the
        # entry would acquire incoming arcs (the exit outgoing ones) and the
        # plain state sharing of enclosing operators would become unsound
        changed = True
        while changed:
            changed = False
            for p, a, q in sorted(frag.trans, key=repr):
                if a is not None or m not in (p, q) or p == q:
                    continue
                arc = (p, a, q)
                out_unique = all(t == arc for t in frag.trans if t[0] == p)
                in_unique = all(t == arc for t in frag.trans if t[2] == q)
                # forward merge needs a non-accepting source: a final p keeps
                # words alive that q alone would not accept
                if not (in_unique or (out_unique and p != frag.fin)):
                    continue
                if p == frag.init and not in_unique:
                    continue
                if q == frag.fin and not out_unique:
                    continue
                # an entry-to-exit arc stays: merging would make the entry the
                # exit, and an enclosing union would then loop its other branch
                if p == frag.init and q == frag.fin:
                    continue
                absorbed = p + q - m
                frag.trans.discard(arc)
                frag.trans = _replace(frag.trans, absorbed, m)
                if frag.init == absorbed:
                    frag.init = m
                if frag.fin == absorbed:
                    frag.fin = m
                changed = True
                break

    @staticmethod
    def _collapse_lambda_cycle(trans: set, m: int) -> tuple[set, int]:
        lam = {(p, q) for p, a, q in trans if a is None}
        cycle = _reach(_adjacency(lam), [m]) & _reach(_adjacency((q, p) for p, q in lam), [m])
        if len(cycle) == 1 and (m, m) not in lam:
            return trans, m
        trans = {
            (p, a, q)
            for p, a, q in trans
            if not (a is None and p in cycle and q in cycle)
        }
        for c in cycle - {m}:
            trans = _replace(trans, c, m)
        return trans, m


def _frag_automaton(frag: _Frag, alphabet) -> Automaton:
    states = {frag.init, frag.fin} | {p for p, _, _ in frag.trans} | {q for _, _, q in frag.trans}
    return Automaton.make(states, alphabet, frag.init, {frag.fin}, frag.trans)


def _relabel_bfs(aut: Automaton) -> Automaton:
    """Renumber 0,1,... in BFS order over arcs sorted by (label, target), λ
    first; unreachable states follow in increasing order."""
    arcs: dict[int, list[tuple[str, int]]] = {}
    for p, a, q in aut.transitions:
        arcs.setdefault(p, []).append(("" if a is None else a, q))
    order = {aut.initial: 0}
    queue = deque([aut.initial])
    while queue:
        for _, q in sorted(arcs.get(queue.popleft(), ())):
            if q not in order:
                order[q] = len(order)
                queue.append(q)
    for p in sorted(aut.states):
        if p not in order:
            order[p] = len(order)
    return Automaton.make(
        order.values(),
        aut.alphabet,
        0,
        (order[f] for f in aut.finals),
        ((order[p], a, order[q]) for p, a, q in aut.transitions),
    )


def construct_of(r: RegEx) -> Automaton:
    """Inductive λ-NFA; linear in the size of the expression."""
    frag = _InductiveNfaBuilder(improve=False).build(r)
    return _relabel_bfs(_frag_automaton(frag, symbols_of(r)))


def construct_follow(r: RegEx) -> Automaton:
    """Follow automaton: λ-free, at most as many states as positions."""
    builder = _InductiveNfaBuilder(improve=True)
    frag = builder.build(r)

    # a λ-arc leaving the start state is contracted once construction is done
    changed = True
    while changed:
        changed = False
        for p, a, q in sorted(frag.trans, key=repr):
            if a is not None or p != frag.init or p == q:
                continue
            arc = (p, a, q)
            out_unique = all(t == arc for t in frag.trans if t[0] == p)
            in_unique = all(t == arc for t in frag.trans if t[2] == q)
            if not (in_unique or (out_unique and p != frag.fin)):
                continue
            frag.trans.discard(arc)
            frag.trans = _replace(frag.trans, p, q)
            frag.init = q
            if frag.fin == p:
                frag.fin = q
            changed = True
            break

    aut = remove_lambda(_frag_automaton(frag, symbols_of(r)))
    return _relabel_bfs(_restrict(aut, _reachable(aut)))


# ---------------------------------------------------------------------------
# Position (Glushkov) automaton


@dataclass(frozen=True)
class PositionSets:
    """first/last/follow of a marked expression over positions 1..awidth."""

    first: frozenset[int]
    last: frozenset[int]
    follow: frozenset[tuple[int, int]]
    positions: frozenset[int]


def position_sets(marked: MarkedRegEx) -> PositionSets:
    def go(node: RegEx) -> tuple[frozenset, frozenset, frozenset]:
        if isinstance(node, (Empty, Epsilon)):
            return frozenset(), frozenset(), frozenset()
        if isinstance(node, Sym):
            if node.pos is None:
                raise ValueError("position_sets expects a marked expression")
            return frozenset([node.pos]), frozenset([node.pos]), frozenset()
        if isinstance(node, Union):
            f1, l1, w1 = go(node.left)
            f2, l2, w2 = go(node.right)
            return f1 | f2, l1 | l2, w1 | w2
        if isinstance(node, Concat):
            f1, l1, w1 = go(node.left)
            f2, l2, w2 = go(node.right)
            first = f1 | f2 if nullable(node.left) else f1
            last = l1 | l2 if nullable(node.right) else l2
            follow = w1 | w2 | frozenset((i, j) for i in l1 for j in f2)
            return first, last, follow
        f1, l1, w1 = go(node.inner)
        if isinstance(node, Star):
            w1 = w1 | frozenset((i, j) for i in l1 for j in f1)
        return f1, l1, w1

    first, last, follow = go(marked.tree)
    positions = frozenset(_position_letters(marked.tree))
    return PositionSets(first, last, follow, positions)


def _position_letters(tree: RegEx) -> dict[int, str]:
    letters: dict[int, str] = {}

    def walk(node: RegEx):
        if isinstance(node, Sym):
            letters[node.pos] = node.name
        elif isinstance(node, (Union, Concat)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Star, Option)):
            walk(node.inner)

    walk(tree)
    return letters


def construct_position(r: RegEx) -> Automaton:
    """Glushkov automaton: state 0 plus one state per symbol occurrence."""
    marked = mark(r)
    sets = position_sets(marked)
    letters = _position_letters(marked.tree)
    transitions = {(0, letters[j], j) for j in sets.first}
    transitions |= {(i, letters[j], j) for i, j in sets.follow}
    finals = set(sets.last)
    if nullable(r):
        finals.add(0)
    states = set(range(len(letters) + 1))
    return Automaton.make(states, symbols_of(r), 0, finals, transitions)


# ---------------------------------------------------------------------------
# Partial derivatives (Antimirov)


def _cat(left: RegEx, right: RegEx) -> RegEx:
    """Right-associated concatenation with λ-units dropped, ∅ annihilating."""
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    if isinstance(left, Concat):
        return _cat(left.left, _cat(left.right, right))
    return Concat(left, right)


def partial_derivatives(r: RegEx, a: str) -> frozenset[RegEx]:
    """Antimirov's set of partial derivatives of r with respect to symbol a."""
    if isinstance(r, (Empty, Epsilon)):
        return frozenset()
    if isinstance(r, Sym):
        return frozenset([EPSILON]) if r.name == a else frozenset()
    if isinstance(r, Union):
        return partial_derivatives(r.left, a) | partial_derivatives(r.right, a)
    if isinstance(r, Option):
        return partial_derivatives(r.inner, a)
    if isinstance(r, Star):
        return frozenset(
            _cat(t, r) for t in partial_derivatives(r.inner, a) if not isinstance(t, Empty)
        )
    out = {_cat(t, r.right) for t in partial_derivatives(r.left, a)}
    if nullable(r.left):
        out |= partial_derivatives(r.right, a)
    return frozenset(t for t in out if not isinstance(t, Empty))


def construct_pd(r: RegEx) -> Automaton:
    """Partial derivative automaton; states are the iterated derived terms."""
    letters = sorted(symbols_of(r))
    ids: dict[RegEx, int] = {r: 0}
    queue = deque([r])
    transitions = set()
    while queue:
        term = queue.popleft()
        for a in letters:
            for d in sorted(partial_derivatives(term, a), key=_render):
                if d not in ids:
                    ids[d] = len(ids)
                    queue.append(d)
                transitions.add((ids[term], a, ids[d]))
    finals = {i for term, i in ids.items() if nullable(term)}
    return Automaton.make(range(len(ids)), letters, 0, finals, transitions)


# ---------------------------------------------------------------------------
# Brzozowski derivatives


def _aci(r: RegEx) -> RegEx:
    """Normal form under +-associativity/commutativity/idempotence and the
    unit/zero laws; keeps the iterated derivatives finitely many."""
    if isinstance(r, (Empty, Epsilon, Sym)):
        return r
    out = r._aci
    if out is not None:
        return r if out is True else out
    if isinstance(r, Union):
        branches: list[RegEx] = []
        seen = set()
        stack = [r]
        while stack:
            node = stack.pop()
            if isinstance(node, Union):
                stack.append(node.right)
                stack.append(node.left)
            else:
                node = _aci(node)
                if isinstance(node, Union):
                    stack.append(node)
                    continue
                if not isinstance(node, Empty) and node not in seen:
                    seen.add(node)
                    branches.append(node)
        branches.sort(key=_render)
        out = _union_of(branches, r) if branches else EMPTY
    elif isinstance(r, Concat):
        out = _cat(_aci(r.left), _aci(r.right))
        if isinstance(out, Concat) and out.left is r.left and out.right is r.right:
            out = r
    elif isinstance(r, Star):
        inner = _aci(r.inner)
        if isinstance(inner, (Empty, Epsilon)):
            out = EPSILON
        else:
            out = r if inner is r.inner else Star(inner)
    else:
        inner = _aci(r.inner)
        out = r if inner is r.inner else Option(inner)
    _set(r, "_aci", True if out is r else out)
    return out


def derivative(r: RegEx, a: str) -> RegEx:
    """Brzozowski derivative, returned in ACI normal form."""

    def go(node: RegEx) -> RegEx:
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
        if nullable(node.left):
            return Union(head, go(node.right))
        return head

    return _aci(go(r))


CONSTRUCTION_NAMES = ("of", "follow", "pos", "pd", "bdfa")


def construct(name: str, r: RegEx) -> Automaton:
    """Dispatch on a construction name from CONSTRUCTION_NAMES."""
    table = {
        "of": construct_of,
        "follow": construct_follow,
        "pos": construct_position,
        "pd": construct_pd,
        "bdfa": construct_brzozowski,
    }
    if name not in table:
        raise ValueError(f"unknown construction {name!r}")
    return table[name](r)


def construct_brzozowski(r: RegEx, cap: int = 10**6) -> Automaton:
    """Complete DFA whose states are derivatives modulo ACI.

    Raises :class:`ConstructionError` when more than `cap` states appear.
    """
    letters = sorted(symbols_of(r))
    start = _aci(r)
    ids: dict[RegEx, int] = {start: 0}
    queue = deque([start])
    transitions = set()
    while queue:
        term = queue.popleft()
        for a in letters:
            d = derivative(term, a)
            if d not in ids:
                if len(ids) >= cap:
                    raise ConstructionError(f"derivative DFA exceeds {cap} states")
                ids[d] = len(ids)
                queue.append(d)
            transitions.add((ids[term], a, ids[d]))
    finals = {i for term, i in ids.items() if nullable(term)}
    return Automaton.make(range(len(ids)), letters, 0, finals, transitions)
