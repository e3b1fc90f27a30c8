"""Automaton-to-expression conversion and the shared expression simplifier.

Three classical routes are provided, by two algorithms; both maintain
regex-labelled data and, unless asked for raw labels, build it simplified
in one label table per run (see `_Labels`):

* state elimination over an extended automaton with a fresh source and
  sink, with pluggable elimination orderings;
* equation solving via the unique-solution lemma for ``X = K·X + L``
  (λ-free K), substituting from the highest-numbered state downward and
  the initial state last.  That back-substitution is state elimination in
  the same order (Brzozowski & McCluskey 1963; Sakarovitch, *Elements of
  Automata Theory*, 2009, §I.4), and `arden_solve` runs it as such;
* the matrix iteration that updates ``b_jk = a_jk + a_ji (a_ii)* a_ik``
  round by round, with the usual row/column shortcuts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import reduce
from types import SimpleNamespace
from typing import Sequence

from .automata import Automaton, State, _reach, _sorted_triples, _state_key
from .constructions import _AciTerms
from .digraphs import _cycles_at, _index, independent_set, underlying_digraph
from .expressions import EMPTY, EPSILON, Concat, Empty, RegEx, Star, Sym, Union, measures

__all__ = [
    "SOURCE",
    "SINK",
    "STRATEGIES",
    "ExtendedAutomaton",
    "simplify",
    "augment",
    "eliminate_state",
    "state_elimination",
    "make_ordering",
    "bridge_states",
    "arden_solve",
    "mcnaughton_yamada",
]


# ---------------------------------------------------------------------------
# Simplifier


def _absorbed_star_body(b: RegEx) -> RegEx | None:
    """The x with b = x·x* or b = x*·x, if any; b is a term of a table."""
    if not isinstance(b, Concat):
        return None
    if isinstance(b.right, Star) and b.right.inner is b.left:
        return b.left
    if isinstance(b.left, Star) and b.left.inner is b.right:
        return b.right
    return None


class _Labels(_AciTerms):
    """The labels of one elimination run, hash-consed and built simplified:
    `union`, `cat` and `star` apply the rules of `simplify` as they build,
    as `_AciTerms` does for derivatives.  Every term has a class number,
    shared by the terms that are equal modulo the order of union branches:
    a union's class is keyed by the set of its branches' classes, and a
    symbol's by its name, so `a` and a marked `a1` are duplicates.  A
    union term keeps its branches in `unions`, by class, in order; `cat`
    makes each concatenation as it comes, keeping the input's nesting."""

    def __init__(self):
        super().__init__()
        self.numbers: dict = {}  # class key -> class number
        self.classes: dict[int, int] = {id(EMPTY): self._number("#"), id(EPSILON): self._number("&")}
        self.symbols: list[Sym] = []  # those classed by `_class`, held so that no filed id is reused

    def makers(self) -> tuple:
        leaf, star, option, _, union = super().makers()
        cat, term = self.cat, self.term
        return leaf, star, option, lambda left, right: cat(term(left), term(right)), union

    def _number(self, key) -> int:
        return self.numbers.setdefault(key, len(self.numbers))

    def _class(self, term: RegEx) -> int:
        c = self.classes.get(id(term))
        if c is None:  # a symbol, classed on first use
            c = self.classes[id(term)] = self._number(term.name)
            self.symbols.append(term)
        return c

    def intern(self, r: RegEx) -> RegEx:
        """The term of r; r itself when it is a term of this table."""
        return r if id(r) in self.classes else super().intern(r)

    def make(self, cls: type, left: RegEx, right: RegEx | None = None) -> RegEx:
        node = super().make(cls, left, right)
        if cls is not Union and id(node) not in self.classes:
            kids = self._class(left), None if right is None else self._class(right)
            self.classes[id(node)] = self._number((cls, *kids))
        return node

    def union(self, terms: list[RegEx]) -> RegEx:
        """The left-associated union of the branches of the terms, ∅
        dropped and the first of each class kept; with λ among them, the
        first branch x·x* (or x*·x) becomes x* and λ goes.

        When the first term is a union of the table, its chain is extended
        by the new branches: the rule did not fire on its own branches if λ
        is among them, so then only the new ones are scanned."""
        first = self.unions.get(id(terms[0]))
        branches = {} if first is None else dict(first)
        new = []
        for t in terms if first is None else terms[1:]:
            for b in self.unions[id(t)].values() if id(t) in self.unions else (t,):
                if b is not EMPTY:
                    c = self._class(b)
                    if c not in branches:
                        branches[c] = b
                        new.append(b)
        lam = self.classes[id(EPSILON)]
        if lam in branches:
            for b in new if first is not None and lam in first else branches.values():
                body = _absorbed_star_body(b)
                if body is not None:
                    kept = [self.star(body) if x is b else x for x in branches.values() if x is not EPSILON]
                    branches = {}
                    for x in kept:
                        branches.setdefault(self._class(x), x)
                    first, new = None, list(branches.values())  # no chain to extend
                    break
        if len(branches) < 2:
            return next(iter(branches.values()), EMPTY)
        out, new = (new[0], new[1:]) if first is None else (terms[0], new)
        for b in new:
            out = self.make(Union, out, b)
        if id(out) not in self.classes:
            self.unions[id(out)] = branches
            self.classes[id(out)] = self._number(frozenset(branches))
        return out

    def cat(self, left: RegEx, right: RegEx) -> RegEx:
        if left is EMPTY or right is EMPTY:
            return EMPTY
        if left is EPSILON:
            return right
        return left if right is EPSILON else self.make(Concat, left, right)

    def star(self, inner: RegEx) -> RegEx:
        return inner if isinstance(inner, Star) else super().star(inner)


# the constructors of raw labels, which build every node as written
_RAW = SimpleNamespace(intern=lambda r: r, union=lambda terms: reduce(Union, terms), cat=Concat, star=Star)


def simplify(r: RegEx) -> RegEx:
    """Exhaustive obvious simplifications; language-preserving, never larger.

    Rules: ∅ and λ units/annihilators, ∅*→λ, λ*→λ, (r*)*→r*, duplicate
    union branches removed modulo branch order, and λ+x·x* → x* (either
    orientation of the concatenation).  r is rebuilt through the
    constructors of a label table of its own (see `_Labels`).
    """
    return _Labels().intern(r)


# ---------------------------------------------------------------------------
# Extended automata and state elimination


class _Endpoint:
    __slots__ = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag

    def __repr__(self):
        return self.tag


SOURCE = _Endpoint("s")
SINK = _Endpoint("t")


@dataclass(frozen=True)
class ExtendedAutomaton:
    """Automaton whose arcs carry expressions; the carrier of elimination.

    `out[p]` maps each target of p to the label of the arc p -> q, and
    `into[q]` maps each source of q to the same label; a missing entry is
    the ∅ label.  No arc enters the source and none leaves the sink.
    `terms` is the table that simplified labels are built in, handed on
    from each carrier to the next, so one elimination run has one.
    """

    states: frozenset
    out: dict
    into: dict
    terms: _Labels = field(default_factory=_Labels, compare=False, repr=False)

    @property
    def labels(self):
        """The ((p, q), label) pairs of all arcs."""
        return (((p, q), expr) for p, row in self.out.items() for q, expr in row.items())

    def label(self, p, q) -> RegEx:
        return self.out.get(p, {}).get(q, EMPTY)


def augment(aut: Automaton) -> ExtendedAutomaton:
    """Embed an automaton between a fresh source and sink.

    Parallel transitions fold into unions in serialized order (λ first,
    then symbols sorted); the source reaches the old initial state and every
    old final state reaches the sink by λ-labels.
    """
    states = frozenset(aut.states) | {SOURCE, SINK}
    out: dict = {s: {} for s in states}
    into: dict = {s: {} for s in states}

    def add(p, q, expr: RegEx):
        old = out[p].get(q)
        out[p][q] = into[q][p] = expr if old is None else Union(old, expr)

    letters = {"": EPSILON}  # one node per letter, so a label table interns each once
    for p, a, q in _sorted_triples(aut)[0]:  # "" is λ
        if a not in letters:
            letters[a] = Sym(a)
        add(p, q, letters[a])
    add(SOURCE, aut.initial, EPSILON)
    for f in sorted(aut.finals, key=_state_key):
        add(f, SINK, EPSILON)
    return ExtendedAutomaton(states, out, into)


def eliminate_state(ext: ExtendedAutomaton, q, simplify_labels: bool = True) -> ExtendedAutomaton:
    """Remove q, routing every path through it into the remaining labels.

    Only the rows of q's neighbours are copied and rewritten; `ext` itself
    is left as it was.  Simplified labels are built in the carrier's table,
    raw ones as written.
    """
    if isinstance(q, _Endpoint):
        raise ValueError("source and sink cannot be eliminated")
    if q not in ext.states:
        raise ValueError(f"{q!r} is not a state")
    out, into = dict(ext.out), dict(ext.into)
    for p in ext.into[q]:
        out[p] = dict(out[p])
    for k in ext.out[q]:
        into[k] = dict(into[k])
    _step(out, into, q, ext.terms if simplify_labels else _RAW)
    return ExtendedAutomaton(ext.states - {q}, out, into, ext.terms)


def _step(out: dict, into: dict, q, terms) -> None:
    """Remove q from the rows `out` and `into` in place: drop q's row and
    column, and rewrite the rows of q's neighbours, labels built by the
    constructors of `terms`."""
    row, col = out.pop(q), into.pop(q)
    loop = row.get(q)
    star = None if loop is None else terms.star(terms.intern(loop))
    ins = sorted((p for p in col if p != q), key=_state_key)
    outs = sorted((k for k in row if k != q), key=_state_key)
    for k in outs:
        del into[k][q]
    for p in ins:
        p_out = out[p]
        del p_out[q]
        lin = terms.intern(col[p])
        if star is not None:
            lin = terms.cat(lin, star)
        for k in outs:
            path = terms.cat(lin, terms.intern(row[k]))
            old = p_out.get(k)
            new = path if old is None else terms.union([terms.intern(old), path])
            if isinstance(new, Empty):
                p_out.pop(k, None)
                into[k].pop(p, None)
            else:
                p_out[k] = into[k][p] = new


STRATEGIES = ("id", "greedy", "dm", "cycles", "indep", "bridge")


def _degrees(ext: ExtendedAutomaton, q) -> tuple[int, int]:
    """In- and out-degree of q, its self-loop left out."""
    looped = q in ext.out[q]
    return len(ext.into[q]) - looped, len(ext.out[q]) - looped


def _greedy_score(ext: ExtendedAutomaton, q) -> int:
    n_in, n_out = _degrees(ext, q)
    return n_in * n_out


def _dm_score(ext: ExtendedAutomaton, q) -> int:
    # in/out label widths weighted by the fan-out/fan-in they get copied to
    n_in, n_out = _degrees(ext, q)
    weight = sum(measures(e).awidth for p, e in ext.into[q].items() if p != q) * (n_out - 1)
    weight += sum(measures(e).awidth for k, e in ext.out[q].items() if k != q) * (n_in - 1)
    loop = ext.out[q].get(q)
    if loop is not None:
        weight += measures(loop).awidth * (n_in * n_out - 1)
    return weight


def bridge_states(aut: Automaton) -> frozenset[State]:
    """States that every accepting path must cross and that lie on no cycle."""
    succ = augment(aut).out
    return frozenset(
        q
        for q in aut.states
        if q not in _reach(succ.__getitem__, succ[q])
        and SINK not in _reach(lambda p: () if p == q else succ[p], [SOURCE])
    )


def _plan(aut: Automaton, order: str | Sequence[State]) -> tuple[list, object, list]:
    """(fixed prefix, score of the dynamic middle or None, fixed suffix).

    The middle holds every state outside the prefix and the suffix; it is
    eliminated lowest score first, with the scores read off the carrier as
    elimination proceeds.
    """
    if not isinstance(order, str):
        seq = list(order)
        if sorted(seq, key=_state_key) != sorted(aut.states, key=_state_key):
            raise ValueError("order must be a permutation of the states")
        return seq, None, []
    if order == "id":
        return sorted(aut.states, key=_state_key), None, []
    if order == "greedy":
        return [], _greedy_score, []
    if order == "dm":
        return [], _dm_score, []
    if order == "cycles":
        vertices, succ, _ = _index(underlying_digraph(aut))
        counts = {q: _cycles_at(succ, i, 10**5).count for i, q in enumerate(vertices)}
        return sorted(aut.states, key=lambda q: (counts[q], _state_key(q))), None, []
    if order == "indep":
        return sorted(independent_set(underlying_digraph(aut)), key=_state_key), _greedy_score, []
    if order == "bridge":
        return [], _greedy_score, sorted(bridge_states(aut), key=_state_key)
    raise ValueError(f"unknown strategy {order!r}")


def _eliminate(
    aut: Automaton, prefix: list, score, suffix: list, simplify_labels: bool = True
) -> tuple[list, ExtendedAutomaton]:
    """Eliminate `prefix`, then the rest by `score`, then `suffix`, on one
    carrier stepped in place (its `states` is set at the end: the scores
    read only its rows); return the order taken and the final carrier."""
    ext = augment(aut)
    terms = ext.terms if simplify_labels else _RAW
    order = []

    def step(q):
        _step(ext.out, ext.into, q, terms)
        order.append(q)

    for q in prefix:
        step(q)
    rest = set(aut.states).difference(prefix, suffix)
    # eliminating q rewrites only arcs between its neighbours, so only their
    # scores change; an entry whose score is no longer current is skipped
    scores = {s: score(ext, s) for s in rest}
    heap = [(c, _state_key(s), s) for s, c in scores.items()]
    heapq.heapify(heap)
    while heap:
        c, _, q = heapq.heappop(heap)
        if q in rest and scores[q] == c:
            near = {s for s in (*ext.out[q], *ext.into[q]) if s in rest and s != q}
            rest.remove(q)
            step(q)
            for s in near:
                scores[s] = score(ext, s)
                heapq.heappush(heap, (scores[s], _state_key(s), s))
    for q in suffix:
        step(q)
    return order, ExtendedAutomaton(frozenset(ext.out), ext.out, ext.into, ext.terms)


def make_ordering(aut: Automaton, strategy: str) -> list[State]:
    """An elimination order over all states, per the named heuristic.

    greedy: fewest in·out arcs next, recomputed as elimination proceeds.
    dm: cheapest label-width blow-up next, recomputed likewise.
    cycles: fewest simple cycles through the state, computed once.
    indep: an independent set first, the rest greedily.
    bridge: bridge states last, the rest greedily.
    id: ascending state id.

    The dynamic orders (greedy, dm, and the greedy parts of indep and
    bridge) come from one elimination with simplified labels, the one that
    `state_elimination` runs with simplification on.
    """
    prefix, score, suffix = _plan(aut, strategy)
    return prefix if score is None else _eliminate(aut, prefix, score, suffix)[0]


def state_elimination(
    aut: Automaton, order: str | Sequence[State] = "greedy", simplify_steps: bool = True
) -> RegEx:
    """Convert by eliminating states in the given or computed order.

    `order` is a strategy name from STRATEGIES or an explicit permutation
    of the automaton's states.  A dynamic order is chosen while its states
    are eliminated, in one pass.  Without `simplify_steps` the order is
    still the one the simplified pass takes, and a second pass eliminates
    in that order with raw labels.
    """
    prefix, score, suffix = _plan(aut, order)
    if score is not None and not simplify_steps:
        prefix, score, suffix = _eliminate(aut, prefix, score, suffix)[0], None, []
    return _eliminate(aut, prefix, score, suffix, simplify_steps)[1].label(SOURCE, SINK)


# ---------------------------------------------------------------------------
# Arden-style equation solving


def arden_solve(aut: Automaton, simplify_steps: bool = True) -> RegEx:
    """Solve the per-state language equations by back-substitution.

    Each unknown is the set of words leading from its state into acceptance;
    self-referential equations are resolved with the unique solution K*L,
    whose side condition (λ-free K) holds because the input is λ-free.
    Substituting the unknowns from the highest state downward, the initial
    state's last, is state elimination in that order (Brzozowski &
    McCluskey 1963; Sakarovitch 2009, §I.4), so that is how it is solved.
    The source's λ-arc leads only to the initial state, which goes last,
    so a raw label is λ·x or (λ·K*)·x; the solution is x or K*·x.
    """
    if not aut.is_lambda_free():
        raise ValueError("arden_solve expects a λ-free automaton (remove λ first)")
    order = sorted(aut.states - {aut.initial}, key=_state_key, reverse=True) + [aut.initial]
    expr = state_elimination(aut, order, simplify_steps)
    if simplify_steps or isinstance(expr, Empty):
        return expr
    return expr.right if expr.left is EPSILON else Concat(expr.left.right, expr.right)


# ---------------------------------------------------------------------------
# McNaughton-Yamada matrix iteration


def _mny_matrix(aut: Automaton, ranking: Sequence[State], terms, rows, cols) -> dict:
    """The expression matrix after one round per state of `ranking`, its
    entries built by the constructors of `terms` (a `_Labels` table, or
    `_RAW` for raw entries).  Only the entries in `rows` and `cols` are
    wanted at the end, so each round builds only those and the rows and
    columns of the pivots still to come, the only entries that later
    rounds read."""
    states = sorted(aut.states, key=_state_key)
    ext = augment(aut)
    matrix: dict[tuple, RegEx] = {(p, q): terms.intern(ext.label(p, q)) for p in states for q in states}
    pending = set(ranking)

    for i in ranking:
        pending.remove(i)
        star = terms.star(matrix[(i, i)])
        new: dict[tuple, RegEx] = {}
        ks = [k for k in states if k in cols or k in pending]
        for j in [j for j in states if j in rows or j in pending]:
            for k in ks:
                if j == i and k == i:
                    entry: RegEx = terms.cat(star, matrix[(i, i)])
                elif j == i:
                    entry = terms.cat(star, matrix[(i, k)])
                elif k == i:
                    entry = terms.cat(matrix[(j, i)], star)
                else:
                    entry = terms.union([matrix[(j, k)], terms.cat(terms.cat(matrix[(j, i)], star), matrix[(i, k)])])
                new[(j, k)] = entry
        matrix = new
    return matrix


def mcnaughton_yamada(
    aut: Automaton, ranking: Sequence[State] | None = None, simplify_steps: bool = True
) -> RegEx:
    """Matrix rounds over a state ranking; λ is added at the end if accepted.

    The shortcuts ``b_ik = (a_ii)* a_ik``, ``b_ki = a_ki (a_ii)*`` and
    ``b_ii = (a_ii)* a_ii`` are applied in the processed row and column.
    """
    if not aut.is_lambda_free():
        raise ValueError("mcnaughton_yamada expects a λ-free automaton")
    states = sorted(aut.states, key=_state_key)
    if ranking is None:
        ranking = list(reversed(states))
    else:
        ranking = list(ranking)
        if sorted(ranking, key=_state_key) != states:
            raise ValueError("order must be a permutation of the states")
    matrix = _mny_matrix(aut, ranking, _Labels() if simplify_steps else _RAW, {aut.initial}, aut.finals)
    parts: list[RegEx] = []
    if aut.initial in aut.finals:
        parts.append(EPSILON)
    for f in sorted(aut.finals, key=_state_key):
        entry = matrix[(aut.initial, f)]
        if not isinstance(entry, Empty):
            parts.append(entry)
    return reduce(Union, parts) if parts else EMPTY
