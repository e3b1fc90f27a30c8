"""Constructions turning regular expressions into finite automata.

Five routes with very different size behaviour:

* ``construct_of`` — the classic inductive λ-NFA (shared end states for
  union, a shared middle state for concatenation, a looped middle state
  for star); linear size.
* ``construct_follow`` — the same recursion with eager λ-merging plus a
  final λ-elimination; a λ-free NFA that is never larger than the position
  automaton.
* ``construct_position`` — the position (Glushkov) automaton from one walk
  that numbers the leaves as it meets them; always awidth+1 states.
* ``construct_pd`` — the partial derivative (Antimirov) automaton.
* ``construct_brzozowski`` — the derivative DFA, complete by construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable

from .automata import Automaton, _explore, _reach
from .expressions import (
    EMPTY,
    EPSILON,
    Concat,
    MarkedRegEx,
    Option,
    RegEx,
    Star,
    Sym,
    Union,
    _ATOMS,
    _fold,
    _read,
    _render,
    _set,
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


class ConstructionError(ValueError):
    """A construction was refused because its result exceeds a state cap."""


def _walk(r: RegEx | str, leaf, star, option, concat, union):
    """The makers called kids first on the text r by `_read`, or on each
    occurrence of a node of the tree r by `_fold`, `leaf` on a leaf's text."""
    makers = star, option, concat, union
    return _read(r, leaf, *makers) if isinstance(r, str) else _fold(r, lambda node: leaf(node._text), *makers)


# ---------------------------------------------------------------------------
# Ott-Feinstein λ-NFA and the follow automaton


class _InductiveNfaBuilder:
    """Builds the inductive λ-NFA into one arc store.

    A fragment is its (entry, exit) pair of states.  The recursion maintains
    that no arc enters the entry and none leaves the exit; this is what makes
    plain state sharing at the endpoints sound.  Arcs go to one list, and a
    merge of state `old` into `new` is an entry in a union-find alias map
    that `automaton` resolves once.  The makers `leaf`, `star`, `option`,
    `concat` and `union` build both automata, kids first: a leaf writes its
    arc at once, a union merges its right operand's entry and exit into the
    left one's, and a concatenation merges its right operand's entry into
    the left one's exit.
    """

    def __init__(self):
        self.n = 0  # the next fresh state id; ids are taken two at a time
        self.arcs: list[tuple] = []
        self.alias: dict[int, int] = {}
        self.letters: set[str] = set()  # the symbols built so far

    def arc(self, p: int, a, q: int):
        self.arcs.append((p, a, q))

    def merge(self, old: int, new: int):
        self.alias[old] = new

    def build(self, r: RegEx | str) -> tuple[int, int]:
        """The fragment of r, which `_walk` reads into the makers below."""
        return _walk(r, self.leaf, self.star, self.option, self.concat, self.union)

    def leaf(self, name: str) -> tuple[int, int]:
        """The fragment of a symbol, `#` or `&`: one arc, none for `#`."""
        i = self.n
        self.n += 2
        if name != "#":
            if name != "&":
                self.letters.add(name)
            self.arc(i, None if name == "&" else name, i + 1)
        return i, i + 1

    def union(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        self.merge(b[0], a[0])
        self.merge(b[1], a[1])
        return a

    def concat(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        self.merge(b[0], a[1])
        return a[0], b[1]

    def option(self, a: tuple[int, int]) -> tuple[int, int]:
        self.arc(a[0], None, a[1])  # union with λ
        return a

    def star(self, a: tuple[int, int]) -> tuple[int, int]:
        m = a[0]
        self.merge(a[1], m)
        i, f = self.n, self.n + 1
        self.n += 2
        self.arc(i, None, m)
        self.arc(m, None, f)
        return i, f

    def automaton(self, frag: tuple[int, int], alphabet) -> Automaton:
        """The automaton from frag[0] to frag[1], numbered by :func:`_explore`
        over each state's arcs sorted by (label, target), λ first; unreachable
        states follow in increasing order, with their arcs."""
        # a merge's target was a surviving state when it was recorded, so any
        # later merge of that target comes later in the map: resolving the
        # map backwards finds every target already resolved
        alias = self.alias
        for p in reversed(alias):
            alias[p] = alias.get(alias[p], alias[p])
        rows: dict[int, list[tuple[str, int]]] = {frag[0]: [], frag[1]: []}
        for p, a, q in self.arcs:  # a λ label is "" here, so that it sorts first
            rows.setdefault(alias.get(p, p), []).append((a or "", alias.get(q, q)))
            rows.setdefault(alias.get(q, q), [])
        reached, arcs = _explore(frag[0], lambda p: sorted(rows[p]))
        unreached = sorted(set(rows).difference(reached))
        order = {p: i for i, p in enumerate(reached + unreached)}
        arcs += [(order[p], a, order[q]) for p in unreached for a, q in rows[p]]
        arcs = ((p, a or None, q) for p, a, q in arcs)
        return Automaton.make(order.values(), alphabet, 0, [order[frag[1]]], arcs)


class _FollowBuilder(_InductiveNfaBuilder):
    """The same recursion with eager λ-merging, over an indexed arc store.

    `out[p]` and `inn[q]` hold the arcs leaving p and entering q, every arc
    in both: an arc is the only one into q when `inn[q]` has size 1, and a
    merge re-points each arc of the merged state in place in the other
    endpoint's set, at the cost of its degree.  Each concatenation then
    contracts the λ-arcs at its middle state.
    """

    def __init__(self):
        super().__init__()
        self.out: defaultdict[int, set] = defaultdict(set)
        self.inn: defaultdict[int, set] = defaultdict(set)

    def arc(self, p: int, a, q: int):
        arc = (p, a, q)
        self.out[p].add(arc)
        self.inn[q].add(arc)

    def _drop(self, arc: tuple):
        self.out[arc[0]].discard(arc)
        self.inn[arc[2]].discard(arc)

    def merge(self, old: int, new: int):
        out, inn = self.out, self.inn
        arcs = out.pop(old, None)
        if arcs:
            new_out = out[new]
            for arc in arcs:
                _, a, q = arc
                inn[q].discard(arc)  # old's self-loop leaves inn[old] too: it moves once
                arc = (new, a, new if q == old else q)
                new_out.add(arc)
                inn[arc[2]].add(arc)
        arcs = inn.pop(old, None)
        if arcs:
            new_inn = inn[new]
            for arc in arcs:
                p_out = out[arc[0]]
                p_out.discard(arc)
                arc = (arc[0], arc[1], new)
                p_out.add(arc)
                new_inn.add(arc)

    def concat(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return self._contract(super().concat(a, b), a[1], enclosed=True)

    def star(self, a: tuple[int, int]) -> tuple[int, int]:
        frag = super().star(a)
        self._collapse_lambda_cycle(a[0], frag[0])
        return frag

    # -- λ merging ----------------------------------------------------------

    def _contract(self, frag: tuple[int, int], m: int, enclosed: bool) -> tuple[int, int]:
        """Contract λ-arcs at state m, smallest `repr` first, until none can
        be; returns the fragment's new (entry, exit).

        A λ-arc is contracted when it is the only arc out of its source or
        the only arc into its target.  Inside an enclosing operator m is a
        shared middle state, the arcs into and out of it are tried and m
        survives; when the absorbed state is the fragment's entry (exit) the
        uniqueness must hold on the middle state's side, otherwise the entry
        would acquire incoming arcs (the exit outgoing ones) and the plain
        state sharing of enclosing operators would become unsound.  On the
        finished automaton m is the start state, the arcs out of it are
        tried, and their target survives as the new start state.  With no
        eligible λ-arc at m the fragment comes back unchanged.
        """
        init, fin = frag
        out, inn = self.out, self.inn
        while True:
            # one scan keeps the repr-least eligible λ-arc; an arc in both of
            # m's sets is a self-loop, which is never tried
            best = None
            for arcs in (out.get(m, ()), inn.get(m, ())) if enclosed else (out.get(m, ()),):
                for arc in arcs:
                    p, a, q = arc
                    if a is not None or p == q:
                        continue
                    in_unique = len(inn[q]) == 1
                    out_unique = len(out[p]) == 1
                    # forward merge needs a non-accepting source: a final p keeps
                    # words alive that q alone would not accept
                    if not (in_unique or (out_unique and p != fin)):
                        continue
                    if enclosed and (
                        (p == init and not in_unique)
                        or (q == fin and not out_unique)
                        # an entry-to-exit arc stays: merging would make the entry
                        # the exit, and an enclosing union would then loop its
                        # other branch
                        or (p == init and q == fin)
                    ):
                        continue
                    if best is None or repr(arc) < repr(best):
                        best = arc
            if best is None:
                return init, fin
            p, _, q = best
            keep = m if enclosed else q
            gone = p + q - keep
            self._drop(best)
            self.merge(gone, keep)
            init = keep if init == gone else init
            fin = keep if fin == gone else fin
            m = keep

    def _collapse_lambda_cycle(self, m: int, entry: int):
        """Merge the λ-cycles through m into m; the star's new entry lies on none."""
        for p, a, _ in self.inn[m]:
            if a is None and p != m and p != entry:
                break
        else:
            self._drop((m, None, m))
            return
        forward = _reach(lambda p: [q for _, a, q in self.out.get(p, ()) if a is None], [m])
        backward = _reach(lambda q: [p for p, a, _ in self.inn.get(q, ()) if a is None], [m])
        cycle = forward & backward
        for c in cycle:
            for arc in [t for t in self.out[c] if t[1] is None and t[2] in cycle]:
                self._drop(arc)
        for c in cycle - {m}:
            self.merge(c, m)


def construct_of(r: RegEx | str) -> Automaton:
    """Inductive λ-NFA; linear in the size of the expression.  A text is
    read straight into the builder, with no tree in between."""
    builder = _InductiveNfaBuilder()
    return builder.automaton(builder.build(r), builder.letters)


def construct_follow(r: RegEx | str) -> Automaton:
    """Follow automaton: λ-free, at most as many states as positions; a text
    is read straight into the builder, as in `construct_of`.  Its
    states are numbered by :func:`_explore` on the builder's arc index, each
    with the symbol arcs out of its λ-closure in (label, target) order.  λ-arcs
    are contracted as the expression is built, at each concatenation's middle
    state."""
    builder = _FollowBuilder()
    frag = builder.build(r)
    # a λ-arc leaving the start state is contracted once construction is done
    init, fin = builder._contract(frag, frag[0], enclosed=False)
    out, letters = builder.out, builder.letters
    del builder  # the in-arc index is freed before the λ-closures are taken
    accepting = []  # per state in number order: does its λ-closure hold fin

    def moves(p: int) -> list[tuple[str, int]]:
        closure, todo, pairs = {p}, [p], set()
        while todo:  # one walk over the arcs out of p's λ-closure
            for _, a, q in out.get(todo.pop(), ()):
                if a is not None:
                    pairs.add((a, q))
                elif q not in closure:
                    closure.add(q)
                    todo.append(q)
        accepting.append(fin in closure)
        return sorted(pairs)

    states, transitions = _explore(init, moves)
    finals = [i for i, f in enumerate(accepting) if f]
    return Automaton.make(range(len(states)), letters, 0, finals, transitions)


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
    """The sets of a marked expression."""
    walk = _PositionWalk()

    def leaf(node: RegEx) -> tuple[set, set, bool]:
        if type(node) is Sym and node.pos is None:
            raise ValueError("position_sets expects a marked expression")
        return walk.leaf(node._text, node.pos if type(node) is Sym else None)

    first, last, _ = _fold(marked.tree, leaf, *walk.makers()[1:])
    follow = frozenset((i, j) for i, _, j in walk.transitions)
    return PositionSets(frozenset(j for _, j in first), frozenset(last), follow, frozenset(walk.letters))


class _PositionWalk:
    """The makers of one position walk, called kids first: a fragment is its
    first set, last set and nullability; first sets hold (letter, position)
    pairs, so follow pairs go into `transitions` as (i, a, j).  Symbol leaves
    take the positions 1, 2, … as met (left to right, like :func:`mark`), or
    the `pos` a marked tree gives; `letters` holds each position's letter."""

    def __init__(self):
        self.transitions: set[tuple[int, str, int]] = set()
        self.letters: dict[int, str] = {}

    def makers(self) -> tuple:
        return self.leaf, self.star, self.option, self.concat, self.union

    def leaf(self, name: str, pos: int | None = None) -> tuple[set, set, bool]:
        if name == "#" or name == "&":
            return set(), set(), name == "&"
        pos = len(self.letters) + 1 if pos is None else pos
        self.letters[pos] = name
        return {(name, pos)}, {pos}, False

    def union(self, a: tuple, b: tuple) -> tuple[set, set, bool]:
        return _merge(a[0], b[0]), _merge(a[1], b[1]), a[2] or b[2]

    def concat(self, a: tuple, b: tuple) -> tuple[set, set, bool]:
        (f1, l1, n1), (f2, l2, n2) = a, b
        self.transitions.update([(i, x, j) for i in l1 for x, j in f2])
        return _merge(f1, f2) if n1 else f1, _merge(l1, l2) if n2 else l2, n1 and n2

    def star(self, a: tuple) -> tuple[set, set, bool]:
        first, last, _ = a
        self.transitions.update([(i, x, j) for i in last for x, j in first])
        return first, last, True

    def option(self, a: tuple) -> tuple[set, set, bool]:
        return a[0], a[1], True


def _merge(a: set, b: set) -> set:
    """a | b, made in the larger of two kids' sets, which no other fragment
    holds: linear on a union chain."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def construct_position(r: RegEx | str) -> Automaton:
    """Glushkov automaton: state 0 plus one state per symbol occurrence.  A
    text is read straight into the walk, as in `construct_of`."""
    walk = _PositionWalk()
    first, last, empty_word = _walk(r, *walk.makers())
    transitions, letters = walk.transitions, walk.letters
    transitions.update([(0, a, j) for a, j in first])
    finals = last | {0} if empty_word else last
    return Automaton.make(range(len(letters) + 1), letters.values(), 0, finals, transitions)


# ---------------------------------------------------------------------------
# Partial derivatives (Antimirov)


class _Terms:
    """The derived terms of one partial-derivative run, hash-consed: `make`
    gives one node per class and children compared by identity, so the
    terms `intern` builds through the `makers` are one object each when
    equal, keyed by `id` and rendered once.  `make` stores on each union
    and concatenation its nullability, from its kids', so every term of a
    table carries it (atoms, stars and options carry it on their class).
    `cats` and `forms` memoise `cat` and the linear forms; `letters` holds
    the names of the symbols made.  The table holds every node it keys, so
    no `id` is reused; it lives for one construction, and no attribute
    refers back to it, so it is freed when its last reference goes."""

    def __init__(self):
        self.nodes: dict[tuple, RegEx] = {}
        self.cats: dict[tuple[int, int], RegEx] = {}
        self.forms: dict[int, dict[str, dict[int, RegEx]]] = {}
        self.letters: set[str] = set()

    def makers(self) -> tuple:
        """The makers of a leaf, star, option, concatenation and union, in
        the order `_read` takes them."""
        make = self.make
        return self.leaf, partial(make, Star), partial(make, Option), partial(make, Concat), partial(make, Union)

    def make(self, cls: type, left: RegEx, right: RegEx | None = None) -> RegEx:
        """The node cls(left), or cls(left, right) with its nullability."""
        key = (cls, id(left), id(right))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(left) if right is None else cls(left, right)
            if right is not None:
                a, b = left._nullable, right._nullable
                _set(node, "_nullable", a or b if cls is Union else a and b)
        return node

    def intern(self, r: RegEx | str) -> RegEx:
        """The term of r: the value the makers give, kids first, made a term
        by `term`.  A text is read straight into the makers; on a tree
        they take each distinct node once."""
        leaf, *makers = self.makers()
        if isinstance(r, str):
            return self.term(_read(r, leaf, *makers, _ATOMS.copy()))
        return self.term(_fold(r, lambda node: _ATOMS.get(node._text) or leaf(node.name, node), *makers, {}))

    def leaf(self, name: str, sym: Sym | None = None) -> Sym:
        """The term of a symbol read as `name`, or of a tree's symbol `sym`,
        which is kept as the term when it is the first of its kind, so a
        table that files terms by id (`_Labels`) knows it when it comes
        back; its name is a letter of the run."""
        key = (Sym, name, None if sym is None else sym.pos)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = sym or Sym(name)
            self.letters.add(name)
        return node

    def term(self, value: RegEx) -> RegEx:
        """The term a maker's value stands for: here the value itself."""
        return value

    def cat(self, left: RegEx, right: RegEx) -> RegEx:
        """Right-associated concatenation of terms with λ-units dropped and ∅
        annihilating, memoised."""
        if left is EMPTY or right is EMPTY:
            return EMPTY
        if left is EPSILON:
            return right
        if right is EPSILON:
            return left
        if type(left) is not Concat:
            return self.make(Concat, left, right)
        key = (id(left), id(right))
        out = self.cats.get(key)
        if out is None:
            out = self.cats[key] = self.cat(left.left, self.cat(left.right, right))
        return out

    def form(self, r: RegEx) -> dict[str, dict[int, RegEx]]:
        """Antimirov's partial derivatives of the term r for every letter,
        letter -> {id: term}; stored forms are shared, so none is changed.
        ∅ is dropped where the per-letter definition drops it: from a star's
        inner terms before they are extended, and from a concatenation's
        result; so `(a(#b))*` on `a` still gives {∅}.  `(L)·x` with L a
        concatenation takes the form of its right-associated equal: the same
        terms in the same order (forms distribute over union, and `cat` is
        associative), with no prefix of the chain extended on its own.
        """
        out = self.forms.get(id(r))
        if out is not None:
            return out
        cls = type(r)
        if cls is Concat:
            if type(r.left) is Concat:
                out = self.form(self.cat(r.left, r.right))
            else:
                out = {a: self._extend(terms, r.right) for a, terms in self.form(r.left).items()}
                if r.left._nullable:
                    out = _union_forms(out, self.form(r.right))
                if any(id(EMPTY) in terms for terms in out.values()):
                    out = {a: {k: t for k, t in terms.items() if t is not EMPTY} for a, terms in out.items()}
        elif cls is Union:
            out = _union_forms(self.form(r.left), self.form(r.right))
        elif cls is Sym:
            out = {r.name: {id(EPSILON): EPSILON}}
        elif cls is Star:
            out = {a: self._extend(terms, r) for a, terms in self.form(r.inner).items()}
        elif cls is Option:
            out = self.form(r.inner)
        else:  # ∅ or λ
            out = {}
        self.forms[id(r)] = out
        return out

    def _extend(self, terms: dict[int, RegEx], right: RegEx) -> dict[int, RegEx]:
        """t·right for the terms t other than ∅."""
        return {id(u := self.cat(t, right)): u for t in terms.values() if t is not EMPTY}


def _union_forms(form: dict, other: dict) -> dict:
    """The union of two linear forms, in a new dict."""
    out = dict(form)
    for a, terms in other.items():
        out[a] = {**out[a], **terms} if a in out else terms
    return out


def partial_derivatives(r: RegEx, a: str) -> frozenset[RegEx]:
    """Antimirov's set of partial derivatives of r with respect to symbol a,
    from a term table of its own (see `_Terms`).  Its nodes are hashed in
    the order they were built, so hashing the set does not recurse deeply."""
    terms = _Terms()
    out = terms.form(terms.intern(r)).get(a, {})
    for node in terms.nodes.values():
        hash(node)
    return frozenset(out.values())


def construct_pd(r: RegEx | str) -> Automaton:
    """Partial derivative automaton; states are the iterated derived terms,
    held once each in one term table (see `_Terms`), which reads a text
    straight in, and keyed by identity.
    They are numbered by :func:`_explore`, successors by letter, then by text
    (stable, so equal texts keep the linear form's order); a letter's single
    term is not rendered."""
    terms = _Terms()

    def moves(term: RegEx) -> list[tuple[str, RegEx]]:
        pairs = []
        for a, by_id in sorted(terms.form(term).items()):
            derived = by_id.values()
            pairs += [(a, d) for d in (derived if len(derived) < 2 else sorted(derived, key=_render))]
        return pairs

    states, transitions = _explore(terms.intern(r), moves, id)
    finals = {i for i, term in enumerate(states) if term._nullable}
    return Automaton.make(range(len(states)), terms.letters, 0, finals, transitions)


# ---------------------------------------------------------------------------
# Brzozowski derivatives


class _Cat(tuple):
    """The terms of a concatenation chain, collected whole while they are made."""


class _Alt(tuple):
    """The terms of a union chain, collected whole while they are made."""


class _AciTerms(_Terms):
    """The derivatives of one Brzozowski run, hash-consed in normal form under
    +-associativity/commutativity/idempotence and the unit/zero laws, which
    keeps the iterated derivatives finitely many.  The constructors apply
    the laws as they build (Owens, Reppy & Turon, JFP 2009), so `table`
    yields normal forms directly.  Every union term is built by `union`,
    which keeps its branches in `unions`, by id, in order, so a union is
    never flattened twice; `tables` memoises `table` by id.  `union` sorts
    branches by `branch_key`, text by default: any fixed order gives one
    object per set of branches, which is all ACI needs, and a table whose
    terms are never printed can sort by `id`.  The concatenation and union
    makers collect a chain whole (`_chain`), and `term` folds it once, when
    another maker takes it (179 nodes for `options_regex(60)`, not 1 890 one
    prefix at a time).  A chain is a tuple, extended into a new one, so a
    shared node's chain stays whole for each of its parents."""

    def __init__(self, branch_key: Callable | None = None):
        super().__init__()
        self.branch_key = branch_key or _render
        self.unions: dict[int, dict[int, RegEx]] = {}
        self.tables: dict[int, dict[str, RegEx]] = {}

    def makers(self) -> tuple:
        # a maker's value may be a chain, which the star and option makers fold first
        term, make, star = self.term, self.make, self.star
        return (
            self.leaf,
            lambda inner: star(term(inner)),
            lambda inner: make(Option, term(inner)),
            partial(self._chain, _Cat),
            partial(self._chain, _Alt),
        )

    def _chain(self, cls: type, left, right):
        if left is right and cls is _Alt:
            return left  # x+x is x; a DAG's shared kid would otherwise double the chain
        # a new tuple: on a tree, a shared node's chain goes to each of its parents
        head = left if type(left) is cls else (self.term(left),)
        return cls((*head, *right) if type(right) is cls else (*head, self.term(right)))

    def term(self, value) -> RegEx:
        """The term of a maker's value: a union chain is joined by `union`,
        a concatenation chain right-associated by `cat`."""
        cls = type(value)
        if cls is _Alt:
            return self.union(value)
        if cls is _Cat:
            out = value[-1]
            for t in value[-2::-1]:
                out = self.cat(t, out)
            return out
        return value

    def union(self, terms: list[RegEx]) -> RegEx:
        """The left-associated union of the distinct branches of the terms,
        ∅ dropped, sorted by `branch_key`."""
        branches: dict[int, RegEx] = {}
        for t in terms:
            if id(t) in self.unions:
                branches.update(self.unions[id(t)])
            elif t is not EMPTY:
                branches[id(t)] = t
        if len(branches) < 2:
            return next(iter(branches.values()), EMPTY)
        ordered = sorted(branches.values(), key=self.branch_key)
        out = ordered[0]
        for b in ordered[1:]:
            out = self.make(Union, out, b)
        if id(out) not in self.unions:
            self.unions[id(out)] = {id(b): b for b in ordered}
        return out

    def star(self, inner: RegEx) -> RegEx:
        return EPSILON if inner is EMPTY or inner is EPSILON else self.make(Star, inner)

    def table(self, r: RegEx) -> dict[str, RegEx]:
        """The Brzozowski derivatives of the term r by every letter, letter ->
        term, from the tables of its kids in one walk; a letter missing has
        derivative ∅.  Stored tables are shared, so none is changed.  Loops
        call `cat` and `union`: a comprehension would take one frame more."""
        out = self.tables.get(id(r))
        if out is None:
            out = {}
            cls = type(r)
            if cls is Concat:
                for a, d in self.table(r.left).items():
                    out[a] = self.cat(d, r.right)
                if r.left._nullable:
                    for a, d in self.table(r.right).items():
                        out[a] = self.union([out[a], d]) if a in out else d
            elif cls is Union:
                for b in self.unions[id(r)].values():
                    for a, d in self.table(b).items():
                        out.setdefault(a, []).append(d)
                for a, ds in out.items():
                    out[a] = ds[0] if len(ds) < 2 else self.union(ds)
            elif cls is Sym:
                out[r.name] = EPSILON
            elif cls is Star:
                for a, d in self.table(r.inner).items():
                    out[a] = self.cat(d, r)
            elif cls is Option:
                out = self.table(r.inner)
            self.tables[id(r)] = out
        return out


def derivative(r: RegEx, a: str) -> RegEx:
    """Brzozowski derivative in normal form (see `_AciTerms`), from a term
    table of its own; it computes the derivatives by every letter."""
    terms = _AciTerms()
    return terms.table(terms.intern(r)).get(a, EMPTY)


CONSTRUCTION_NAMES = ("of", "follow", "pos", "pd", "bdfa")


def construct(name: str, r: RegEx | str) -> Automaton:
    """Dispatch on a construction name from CONSTRUCTION_NAMES; each route
    reads a text straight into its own makers, with no syntax tree.  The
    functions are looked up when called, so a replaced one is called."""
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


def construct_brzozowski(r: RegEx | str, cap: int = 10**6) -> Automaton:
    """Complete DFA whose states are derivatives modulo ACI.

    The states are the iterated derivatives in normal form, held once each
    in one term table (see `_AciTerms`), which reads a text straight in,
    and keyed by identity; they are
    numbered by :func:`_explore`, successors by letter, so the table sorts
    union branches by `id` and renders nothing: the automaton is the one text
    order gives wherever texts tell terms apart (`a1` renders as `a`).
    Raises :class:`ConstructionError` when more than `cap` states appear.
    """
    terms = _AciTerms(id)
    start = terms.intern(r)
    letters = sorted(terms.letters)
    explored = count()

    def moves(term: RegEx) -> list[tuple[str, RegEx]]:
        # the state numbered cap exists exactly when more than cap states do
        if next(explored) == cap:
            raise ConstructionError(f"derivative DFA exceeds {cap} states")
        t = terms.table(term)
        return [(a, t.get(a, EMPTY)) for a in letters]

    states, transitions = _explore(start, moves, id)
    finals = {i for i, term in enumerate(states) if term._nullable}
    return Automaton.make(range(len(states)), letters, 0, finals, transitions)
