"""Shared test oracles, all deliberately independent of the package internals.

`lang` enumerates the bounded-length language straight off the AST;
`naive_cycle_rank` recomputes the deletion recursion on a Kosaraju SCC
split, memoized only on the vertex set within one call;
`reference_cycle_rank` and `reference_cycle_rank_upper` are the bitmask
searches before dominated deletions were skipped and components split
forward-backward, and `reference_cycles_through` is the recursive cycle
count; `follow_quotient` rebuilds the follow
automaton as the position-automaton quotient that merges states with equal
follow sets and equal finality; `path_pairs` is Warshall's transitive closure;
`rebuild` copies a tree into new nodes that hold no stored value;
`canonical` is the complete minimal DFA of an automaton over an alphabet;
`reference_brzozowski` builds the derivative DFA from raw derivatives that
are normalised afterwards, with states compared structurally.
`reference_to_dict` sorts by the keyed state order alone, `reference_parse`
makes a new `Sym` for every occurrence, `reference_position_sets` builds
new frozensets at every node, and `reference_construct_position` maps the
follow pairs of mark(r) to transitions: the simple forms the package's
faster ones must agree with.  `reference_construct_pd` builds on
`ReferenceTerms`, whose linear form extends a left-nested concatenation one
prefix at a time, and `pd_term_orders` lists each letter's derived terms in
the order of a table's linear forms.  `reference_subset_construction` and `reference_minimize`
number states with a BFS loop of their own, as the package did before one
explorer numbered every automaton it builds by search; `relabel` renames
the states of an automaton, to names that `state_names` draws.
`reference_construct_of` and `reference_construct_follow` build with
`ReferenceInductiveBuilder` and `ReferenceFollowBuilder`, which write every
leaf's arc at once and move arcs by merges, build a union of each merged
state's arcs, and test an arc's uniqueness by set equality.  `_aci` is the
normal form of one `_AciTerms` table, which only the memo tests ask for;
`prefix_intern` interns into such a table as `_AciTerms.intern` did before
it took a concatenation chain whole, one left-nested prefix at a time, and
`shared_kid_dags` are expressions in which two parents share a kid, whose
value a table must take twice unchanged; `reference_nullable` finds a
term's nullability by a walk, for the value the tables store on each term,
and `eliminate_automata` are the automata the eliminate workload converts.
`reference_simplify` rewrites a tree as `simplify` did before the label
table, finding duplicate branches by their text with union branches
sorted; `reference_state_elimination`, `reference_arden_solve` and
`reference_mcnaughton_yamada` build each label raw and pass it through
it.  `scan_eliminate` picks each state of a dynamic order by a scan that
rescores every remaining state, and `full_mny_matrix` builds every matrix
entry in every round: `elimination._eliminate` and `_mny_matrix` before
the score heap and the pruning to the entries that reach the answer.
`reference_labels_union` is `_Labels.union` before it extended the chain
of a union passed first, gathering every branch afresh.
`commuted_duplicates_tree` builds trees that hold copies of their
own subterms with union branches commuted.  `reference_ssnf` is the strong
star normal form as two walks, a unit-free copy and then the star normal
form step on it, and `scatter_units` puts ∅ and λ all through a tree.
"""

import random
from collections import defaultdict, deque
from dataclasses import astuple
from functools import reduce
from itertools import product

import pytest

from refa.automata import (
    Automaton,
    _explore,
    _index,
    _reach,
    _state_key,
    _widen,
    minimize,
    remove_lambda,
    subset_construction,
)
from refa.constructions import (
    PositionSets,
    _AciTerms,
    _Terms,
    _union_forms,
    construct_position,
    position_sets,
)
from refa.elimination import (
    SINK,
    SOURCE,
    ExtendedAutomaton,
    _absorbed_star_body,
    _plan,
    augment,
    eliminate_state,
)
from refa.expressions import (
    EMPTY,
    EPSILON,
    Concat,
    Empty,
    Epsilon,
    Option,
    RegEx,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    _operands,
    _postorder,
    mark,
    nullable,
    random_expr,
    render,
)
from refa.families import buffer_dfa, random_dfa, torus_dfa


def letters_of(r: RegEx) -> frozenset[str]:
    """The names of the symbols in r."""
    return frozenset(node.name for node in _postorder(r) if type(node) is Sym)


def lang(r: RegEx, maxlen: int) -> frozenset:
    """All words of length <= maxlen denoted by r, as tuples of symbols."""
    if isinstance(r, Empty):
        return frozenset()
    if isinstance(r, Epsilon):
        return frozenset([()])
    if isinstance(r, Sym):
        return frozenset([(r.name,)]) if maxlen >= 1 else frozenset()
    if isinstance(r, Union):
        return lang(r.left, maxlen) | lang(r.right, maxlen)
    if isinstance(r, Option):
        return lang(r.inner, maxlen) | frozenset([()])
    if isinstance(r, Concat):
        out = set()
        for u in lang(r.left, maxlen):
            for v in lang(r.right, maxlen - len(u)):
                out.add(u + v)
        return frozenset(out)
    base = lang(r.inner, maxlen)
    out = {()}
    while True:
        new = out | {u + v for u in out for v in base if len(u + v) <= maxlen}
        if new == out:
            return frozenset(out)
        out = new


def lambda_heavy_tree(rng: random.Random, depth: int):
    """Random tree whose leaves are drawn uniformly from a, b, & and #."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Sym("a"), Sym("b"), EPSILON, EMPTY])
    kind = rng.randrange(4)
    if kind == 0:
        return Union(lambda_heavy_tree(rng, depth - 1), lambda_heavy_tree(rng, depth - 1))
    if kind == 1:
        return Concat(lambda_heavy_tree(rng, depth - 1), lambda_heavy_tree(rng, depth - 1))
    if kind == 2:
        return Star(lambda_heavy_tree(rng, depth - 1))
    return Option(lambda_heavy_tree(rng, depth - 1))


def rebuild(r: RegEx) -> RegEx:
    """An equal tree made of new nodes, none of which holds a stored value."""
    if isinstance(r, (Union, Concat)):
        return type(r)(rebuild(r.left), rebuild(r.right))
    if isinstance(r, (Star, Option)):
        return type(r)(rebuild(r.inner))
    return type(r)(*astuple(r))


def canonical(aut: Automaton, alphabet: frozenset[str]) -> Automaton:
    """The complete minimal DFA of aut over the alphabet, states numbered
    canonically, so that equal languages give equal automata."""
    return minimize(subset_construction(_widen(remove_lambda(aut), alphabet)), "complete")


def path_pairs(vertices, arcs) -> set:
    """(u, v) pairs joined by a path of one or more arcs, by Warshall's method."""
    reach = set(arcs)
    for k in vertices:
        for i in vertices:
            if (i, k) in reach:
                reach |= {(i, j) for j in vertices if (k, j) in reach}
    return reach


def words_upto(alphabet, maxlen):
    for n in range(maxlen + 1):
        yield from product(sorted(alphabet), repeat=n)


def corpus(count, seed, max_awidth=10, alphabets=(("a", "b"), ("a", "b", "c", "d"))):
    """Deterministic random expression corpus; its first max_awidth
    expressions have widths 1..max_awidth, in an order spread by a stride of
    7, or of 1 where 7 divides max_awidth and a stride of 7 would skip widths."""
    stride = 1 if max_awidth % 7 == 0 else 7
    out = []
    for i in range(count):
        alpha = list(alphabets[i % len(alphabets)])
        aw = 1 + (i * stride) % max_awidth
        out.append(random_expr(aw, alpha, seed=seed + i))
    return out


# -- independent cycle rank oracle ------------------------------------------


def _kosaraju(vertices, arcs):
    adj = {v: [] for v in vertices}
    radj = {v: [] for v in vertices}
    for u, v in arcs:
        if u in adj and v in adj:
            adj[u].append(v)
            radj[v].append(u)
    order = []
    seen = set()
    for v in vertices:
        if v in seen:
            continue
        stack = [(v, iter(adj[v]))]
        seen.add(v)
        while stack:
            node, it = stack[-1]
            advanced = False
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    comps = []
    assigned = set()
    for v in reversed(order):
        if v in assigned:
            continue
        comp = {v}
        assigned.add(v)
        stack = [v]
        while stack:
            node = stack.pop()
            for w in radj[node]:
                if w not in assigned:
                    assigned.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def naive_cycle_rank(vertices, arcs) -> int:
    """The deletion recursion on a Kosaraju split, memoized on the vertex set
    within one call (the arcs are fixed there); only usable on small digraphs."""
    arcs = frozenset(arcs)
    memo = {}

    def rank(vertices):
        if vertices not in memo:
            inner = {(u, v) for u, v in arcs if u in vertices and v in vertices}
            best = 0
            for comp in _kosaraju(vertices, inner):
                if len(comp) == 1 and not any((v, v) in inner for v in comp):
                    continue
                best = max(best, 1 + min(rank(comp - {v}) for v in comp))
            memo[vertices] = best
        return memo[vertices]

    return rank(frozenset(vertices))


# -- the cycle rank search as it was before its pruning rules ----------------


def _reference_index(dg):
    order = sorted(dg.vertices, key=_state_key)
    pos = {v: i for i, v in enumerate(order)}
    succ = [0] * len(order)
    pred = [0] * len(order)
    for u, v in dg.arcs:
        succ[pos[u]] |= 1 << pos[v]
        pred[pos[v]] |= 1 << pos[u]
    return order, succ, pred


def _reference_reach(start, adj, within):
    seen = frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~seen
        seen |= frontier
    return seen


def _reference_components(mask, succ, pred):
    """Components in reverse topological order, restarting downstream of the
    lowest vertex until its forward reach is its component."""
    while mask:
        v = mask & -mask
        while True:
            forward = _reference_reach(v, succ, mask)
            comp = _reference_reach(v, pred, forward)
            if comp == forward:
                break
            rest = forward & ~comp
            v = rest & -rest
        yield comp
        mask &= ~comp


def _reference_cyclic(comp, succ):
    return bool(comp & (comp - 1)) or bool(succ[comp.bit_length() - 1] & comp)


def _reference_bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def reference_cycle_rank(dg):
    """Memoized deletion recursion with branch-and-bound and the monotone
    floor, trying every vertex of every component; no budget."""
    order, succ, pred = _reference_index(dg)
    exact, lower = {}, {}

    def rank(mask, limit):
        known = exact.get(mask)
        if known is not None:
            return known
        floor = lower.get(mask, 0)
        if floor >= limit:
            return floor
        comps = [c for c in _reference_components(mask, succ, pred) if _reference_cyclic(c, succ)]
        if comps == [mask]:
            floor = max(floor, 1)
            sub = limit
            for v in _reference_bits(mask):
                child = rank(mask ^ v, min(sub, limit - 1))
                sub, floor = min(sub, child), max(floor, child)
                if floor >= limit or sub + 1 <= floor:
                    break
            result = floor if floor >= limit else sub + 1
        else:
            result = 0
            for comp in comps:
                result = max(result, rank(comp, limit))
                if result >= limit:
                    break
        if result < limit:
            exact[mask] = result
        else:
            lower[mask] = result
        return result

    return rank((1 << len(order)) - 1, len(order) + 1)


def reference_cycle_rank_upper(dg):
    """The greedy bound on the restart-downstream component split."""
    order, succ, pred = _reference_index(dg)
    names = [repr(v) for v in order]

    def degree_key(b, comp):
        i = b.bit_length() - 1
        return (-((succ[i] & comp).bit_count() + (pred[i] & comp).bit_count()), names[i])

    best, stack = 0, [((1 << len(order)) - 1, 0)]
    while stack:
        mask, depth = stack.pop()
        best = max(best, depth)
        stack += [(comp ^ min(_reference_bits(comp), key=lambda b: degree_key(b, comp)), depth + 1)
                  for comp in _reference_components(mask, succ, pred) if _reference_cyclic(comp, succ)]
    return best


def reference_cycles_through(dg, v, cap=10**6):
    """`cycles_through` as `(count, saturated)`, one recursive call per path
    vertex, as it was before its walk went onto an explicit stack."""
    order, succ, _ = _reference_index(dg)
    home = 1 << order.index(v)
    count = 0

    def walk(u, visited):
        nonlocal count
        for w in _reference_bits(succ[u.bit_length() - 1]):
            if w == home:
                count += 1
                if count >= cap:
                    return True
            elif not w & visited and walk(w, visited | w):
                return True
        return False

    saturated = walk(home, home)
    return count, saturated


# -- independent follow-automaton oracle -------------------------------------


def follow_quotient(r: RegEx) -> Automaton:
    """Position automaton quotient merging equal-follow, equal-finality states."""
    marked = mark(r)
    sets = position_sets(marked)
    follow0 = {0: frozenset(sets.first)}
    for i in sets.positions:
        follow0[i] = frozenset(j for (x, j) in sets.follow if x == i)
    final0 = set(sets.last) | ({0} if nullable(r) else set())

    classes: dict[tuple, list[int]] = {}
    for i in sorted(follow0):
        key = (follow0[i], i in final0)
        classes.setdefault(key, []).append(i)
    rep = {}
    for members in classes.values():
        for i in members:
            rep[i] = members[0]

    pos_aut = construct_position(r)
    transitions = {(rep[p], a, rep[q]) for p, a, q in pos_aut.transitions}
    states = {rep[i] for i in follow0}
    finals = {rep[i] for i in final0}
    return Automaton.make(states, letters_of(r), rep[0], finals, transitions)


# -- reference derivative automaton ------------------------------------------


def _aci(r: RegEx) -> RegEx:
    """The normal form of r, from a term table of its own."""
    return _AciTerms().intern(r)


def reference_nullable(r: RegEx, memo: dict | None = None) -> bool:
    """Whether r holds the empty word, from a walk over its structure that
    reads no value stored on a node; `memo` keeps each node's answer by id,
    so a DAG's shared kids are walked once."""
    memo = {} if memo is None else memo
    for node in _postorder(r, lambda node: memo.get(id(node))):
        if isinstance(node, Union):
            memo[id(node)] = memo[id(node.left)] or memo[id(node.right)]
        elif isinstance(node, Concat):
            memo[id(node)] = memo[id(node.left)] and memo[id(node.right)]
        else:
            memo[id(node)] = isinstance(node, (Star, Option, Epsilon))
    return memo[id(r)]


def eliminate_automata() -> list[Automaton]:
    """The nine automata of the perfbench eliminate workload, unrelabelled."""
    auts = [random_dfa(5 + j % 4, 2, 1405_5594 + 900 + j) for j in range(6)]
    return auts + [buffer_dfa(6), torus_dfa(2, 3), torus_dfa(3, 3)]


def shared_kid_dags() -> list[RegEx]:
    """Expressions in which a concatenation or union is a kid of two parents:
    abc+abd and (a+b+c)(a+b+d) with the shared ab and a+b one node each, and
    (abc+(abd)*)*."""
    a, b, c, d = map(Sym, "abcd")
    x, y = Concat(a, b), Union(a, b)
    return [
        Union(Concat(x, c), Concat(x, d)),
        Concat(Union(y, c), Union(y, d)),
        Star(Union(Concat(x, c), Star(Concat(x, d)))),
    ]


def prefix_intern(terms: _AciTerms, r: RegEx) -> RegEx:
    """The term of r in `terms`, built as `_AciTerms.intern` built it before
    it took a concatenation chain whole: a union's kids are its maximal
    non-union subterms, a concatenation's its two fields, so each prefix of
    a left-nested chain is right-associated by `cat` in turn."""
    done: dict[int, RegEx] = {}

    def kids(node):
        if isinstance(node, (Star, Option)):
            return (node.inner,)
        return tuple(_operands(node, Union)) if isinstance(node, Union) else (node.left, node.right)

    for node in _postorder(r, lambda node: done.get(id(node)), kids):
        if isinstance(node, Sym):
            done[id(node)] = terms.nodes.setdefault((Sym, node.name, node.pos), node)
        elif isinstance(node, (Empty, Epsilon)):
            done[id(node)] = EMPTY if isinstance(node, Empty) else EPSILON
        else:
            parts = [done[id(kid)] for kid in kids(node)]
            if isinstance(node, Union):
                done[id(node)] = terms.union(parts)
            elif isinstance(node, Concat):
                done[id(node)] = terms.cat(*parts)
            else:
                done[id(node)] = terms.star(*parts) if isinstance(node, Star) else terms.make(Option, *parts)
    return done[id(r)]


def reference_cat(left, right):
    """Right-associated concatenation with λ-units dropped, ∅ annihilating."""
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    if isinstance(left, Concat):
        return reference_cat(left.left, reference_cat(left.right, right))
    return Concat(left, right)


def reference_aci(r, memo=None):
    """Normal form under +-associativity/commutativity/idempotence and the
    unit/zero laws: union branches flattened, ∅ and duplicates dropped,
    sorted by text and joined to the left.  `memo` maps id(node) to (node,
    normal form) across calls, as the normal form once stored on each node."""
    memo = {} if memo is None else memo
    if isinstance(r, (Empty, Epsilon, Sym)):
        return r
    if id(r) in memo:
        return memo[id(r)][1]
    if isinstance(r, Union):
        branches, seen, stack = [], set(), [r]
        while stack:
            node = stack.pop()
            if isinstance(node, Union):
                stack += (node.right, node.left)
                continue
            node = reference_aci(node, memo)
            if isinstance(node, Union):
                stack.append(node)
            elif not isinstance(node, Empty) and node not in seen:
                seen.add(node)
                branches.append(node)
        branches.sort(key=render)
        out = branches[0] if branches else EMPTY
        for b in branches[1:]:
            out = Union(out, b)
    elif isinstance(r, Concat):
        out = reference_cat(reference_aci(r.left, memo), reference_aci(r.right, memo))
    elif isinstance(r, Option):
        out = Option(reference_aci(r.inner, memo))
    else:
        inner = reference_aci(r.inner, memo)
        out = EPSILON if isinstance(inner, (Empty, Epsilon)) else Star(inner)
    memo[id(r)] = (r, out)
    return out


def reference_derivative(r, a, memo=None):
    """The Brzozowski derivative of r by a, built raw and then normalised;
    `memo` also maps (id(node), a) to (node, raw derivative)."""
    memo = {} if memo is None else memo

    def raw(node):
        if isinstance(node, (Empty, Epsilon)):
            return EMPTY
        if isinstance(node, Sym):
            return EPSILON if node.name == a else EMPTY
        if (id(node), a) in memo:
            return memo[id(node), a][1]
        if isinstance(node, Union):
            d = Union(raw(node.left), raw(node.right))
        elif isinstance(node, Option):
            d = raw(node.inner)
        elif isinstance(node, Star):
            d = Concat(raw(node.inner), node)
        else:
            d = Concat(raw(node.left), node.right)
            d = Union(d, raw(node.right)) if nullable(node.left) else d
        memo[id(node), a] = (node, d)
        return d

    return reference_aci(raw(r), memo)


def reference_brzozowski(r: RegEx) -> Automaton:
    """The derivative DFA with states compared structurally, numbered in BFS
    order, successors by letter."""
    letters = sorted(letters_of(r))
    memo: dict = {}
    start = reference_aci(r, memo)
    ids = {start: 0}
    queue = deque([start])
    transitions = set()
    while queue:
        term = queue.popleft()
        for a in letters:
            d = reference_derivative(term, a, memo)
            if d not in ids:
                ids[d] = len(ids)
                queue.append(d)
            transitions.add((ids[term], a, ids[d]))
    finals = {i for term, i in ids.items() if nullable(term)}
    return Automaton.make(range(len(ids)), letters, 0, finals, transitions)


# -- reference serialization, parser and position sets --------------------


def reference_to_dict(aut: Automaton) -> dict:
    """The JSON dict of an automaton, every list sorted by `_state_key`."""
    key = {s: _state_key(s) for s in aut.states}
    return {
        "states": sorted(aut.states, key=key.__getitem__),
        "alphabet": sorted(aut.alphabet),
        "initial": aut.initial,
        "finals": sorted(aut.finals, key=key.__getitem__),
        "transitions": sorted(
            [[p, a if a is not None else "", q] for p, a, q in aut.transitions],
            key=lambda t: (key[t[0]], t[1], key[t[2]]),
        ),
    }


def _skip_spaces(text: str, i: int) -> int:
    while i < len(text) and text[i] == " ":
        i += 1
    return i


def reference_parse(text: str) -> RegEx:
    """The one-loop parser with a new `Sym` per occurrence and a call to
    skip spaces before every token."""
    n = len(text)
    i = _skip_spaces(text, 0)
    if i == n:
        raise RegexSyntaxError("empty expression", 0)
    frames = []
    union = term = None
    while True:
        c = text[i] if i < n else None
        if c == "(":
            frames.append((i, union, term))
            union = term = None
            i = _skip_spaces(text, i + 1)
            continue
        if c == "#" or c == "&":
            node = EMPTY if c == "#" else EPSILON
            i += 1
        elif c is not None and c.isalpha() and c.isascii():
            start = i
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            node = Sym(text[start:i])
        elif c is None:
            raise RegexSyntaxError("unexpected end of input", i)
        else:
            raise RegexSyntaxError(f"unexpected {c!r}", i)
        while True:
            i = _skip_spaces(text, i)
            c = text[i] if i < n else None
            if c == "*":
                node = Star(node)
            elif c == "?":
                node = Option(node)
            elif c == ")" and frames:
                node = node if term is None else Concat(term, node)
                node = node if union is None else Union(union, node)
                _, union, term = frames.pop()
            else:
                break
            i += 1
        term = node if term is None else Concat(term, node)
        if c == "+":
            union = term if union is None else Union(union, term)
            term = None
            i = _skip_spaces(text, i + 1)
        elif c == "·":
            i = _skip_spaces(text, i + 1)
            if i == n or text[i] in ")+*?·":
                raise RegexSyntaxError("dangling '·'", i)
        elif c is None or not (c == "(" or c == "#" or c == "&" or c.isalpha()):
            if frames:
                raise RegexSyntaxError(f"unbalanced '(' opened at offset {frames[-1][0]}", i)
            if c is not None:
                raise RegexSyntaxError(f"unexpected {c!r}", i)
            return term if union is None else Union(union, term)


def reference_position_sets(r: RegEx) -> tuple[PositionSets, dict[int, str], bool]:
    """First, last and follow of mark(r), the letter at each position and
    the nullability of r, by recursion with new frozensets at every node."""
    follow = set()
    letters = {}

    def walk(node):
        if isinstance(node, Sym):
            letters[node.pos] = node.name
            return frozenset([node.pos]), frozenset([node.pos]), False
        if isinstance(node, (Empty, Epsilon)):
            return frozenset(), frozenset(), isinstance(node, Epsilon)
        if isinstance(node, (Star, Option)):
            first, last, _ = walk(node.inner)
            if isinstance(node, Star):
                follow.update((i, j) for i in last for j in first)
            return first, last, True
        f1, l1, n1 = walk(node.left)
        f2, l2, n2 = walk(node.right)
        if isinstance(node, Union):
            return f1 | f2, l1 | l2, n1 or n2
        follow.update((i, j) for i in l1 for j in f2)
        return f1 | f2 if n1 else f1, l1 | l2 if n2 else l2, n1 and n2

    first, last, empty_word = walk(mark(r).tree)
    return PositionSets(first, last, frozenset(follow), frozenset(letters)), letters, empty_word


def reference_construct_position(r: RegEx) -> Automaton:
    """The position automaton as the package built it from the sets of mark(r),
    with each follow pair (i, j) mapped to the transition (i, letter of j, j)."""
    sets, letters, empty_word = reference_position_sets(r)
    transitions = {(0, letters[j], j) for j in sets.first}
    transitions |= {(i, letters[j], j) for i, j in sets.follow}
    finals = sets.last | {0} if empty_word else sets.last
    return Automaton.make(range(len(letters) + 1), letters.values(), 0, finals, transitions)


class ReferenceTerms(_Terms):
    """`_Terms` with the linear form it had before a left-nested concatenation
    took the form of its right-associated equal: the form of `(L)·x` is the
    form of L extended by x, one prefix of the chain at a time."""

    def form(self, r: RegEx) -> dict[str, dict[int, RegEx]]:
        if id(r) in self.forms:
            return self.forms[id(r)]
        if isinstance(r, (Empty, Epsilon)):
            out = {}
        elif isinstance(r, Sym):
            out = {r.name: {id(EPSILON): EPSILON}}
        elif isinstance(r, Union):
            out = _union_forms(self.form(r.left), self.form(r.right))
        elif isinstance(r, Option):
            out = self.form(r.inner)
        elif isinstance(r, Star):
            out = {a: self._extend(terms, r) for a, terms in self.form(r.inner).items()}
        else:
            out = {a: self._extend(terms, r.right) for a, terms in self.form(r.left).items()}
            if nullable(r.left):
                out = _union_forms(out, self.form(r.right))
            if any(id(EMPTY) in terms for terms in out.values()):
                out = {a: {k: t for k, t in terms.items() if t is not EMPTY} for a, terms in out.items()}
        self.forms[id(r)] = out
        return out


def reference_construct_pd(r: RegEx) -> Automaton:
    """construct_pd on a `ReferenceTerms` table, every letter's terms sorted by text."""
    terms = ReferenceTerms()

    def moves(term: RegEx) -> list[tuple[str, RegEx]]:
        form = terms.form(term)
        return [(a, d) for a in sorted(form) for d in sorted(form[a].values(), key=render)]

    states, transitions = _explore(terms.intern(r), moves, id)
    finals = {i for i, term in enumerate(states) if nullable(term)}
    return Automaton.make(range(len(states)), letters_of(r), 0, finals, transitions)


def pd_term_orders(terms: _Terms, r: RegEx) -> tuple[list, list]:
    """The terms reachable from r on one table, in the order of a search that
    takes each letter's terms unsorted, and for each term its letters' derived
    terms in linear-form order; a letter whose terms are all gone is left out."""

    def forms(t: RegEx) -> list[tuple[str, list]]:
        return [(a, list(d.values())) for a, d in sorted(terms.form(t).items()) if d]

    states, _ = _explore(terms.intern(r), lambda t: [(a, d) for a, ds in forms(t) for d in ds], id)
    return states, [forms(t) for t in states]


@pytest.fixture(scope="session")
def small_corpus():
    return corpus(150, seed=2400, max_awidth=8)


# -- reference discovery-order loops -------------------------------------------


def reference_subset_construction(aut: Automaton) -> Automaton:
    """Power-set determinization with its own BFS loop over sorted letters."""
    index = _index(aut)
    letters = sorted(aut.alphabet)
    start = frozenset([aut.initial])
    ids = {start: 0}
    queue = deque([start])
    transitions = []
    while queue:
        subset = queue.popleft()
        for a in letters:
            target = frozenset(q for p in subset for q in index[p].get(a, ()))
            if target not in ids:
                ids[target] = len(ids)
                queue.append(target)
            transitions.append((ids[subset], a, ids[target]))
    finals = frozenset(i for subset, i in ids.items() if subset & aut.finals)
    return Automaton.make(range(len(ids)), aut.alphabet, 0, finals, transitions)


def reference_complete(aut: Automaton) -> Automaton:
    """Add a sink, named "sink" (plus underscores) among string states."""
    defined = {(p, a) for p, a, _ in aut.transitions}
    missing = [(p, a) for p in aut.states for a in aut.alphabet if (p, a) not in defined]
    if not missing:
        return aut
    if all(isinstance(s, int) for s in aut.states):
        sink = max(aut.states) + 1
    else:
        sink = "sink"
        while sink in aut.states:
            sink += "_"
    transitions = set(aut.transitions)
    transitions.update((p, a, sink) for p, a in missing)
    transitions.update((sink, a, sink) for a in aut.alphabet)
    return Automaton(aut.states | {sink}, aut.alphabet, aut.initial, aut.finals, frozenset(transitions))


def reference_minimize(aut: Automaton, mode: str) -> Automaton:
    """Partition refinement, then a BFS loop of its own over the classes."""
    aut = reference_complete(aut)
    letters = sorted(aut.alphabet)
    index = _index(aut)
    succ = {p: [row[a][0] for a in letters] for p, row in index.items()}
    reachable = sorted(_reach(succ.__getitem__, [aut.initial]), key=_state_key)
    block = {p: int(p in aut.finals) for p in reachable}
    while True:
        renumber = {}
        refined = {
            p: renumber.setdefault((block[p], tuple(block[q] for q in succ[p])), len(renumber))
            for p in reachable
        }
        stable = len(renumber) == len(set(block.values()))
        block = refined
        if stable:
            break
    class_succ = {block[p]: [block[q] for q in succ[p]] for p in reachable}
    order = {block[aut.initial]: 0}
    queue = deque([block[aut.initial]])
    while queue:
        for nb in class_succ[queue.popleft()]:
            if nb not in order:
                order[nb] = len(order)
                queue.append(nb)
    finals = frozenset(order[block[p]] for p in aut.finals if p in block)
    dead = {
        order[b]
        for b, targets in class_succ.items()
        if mode == "partial" and order[b] not in finals and all(t == b for t in targets)
    }
    transitions = frozenset(
        (order[b], a, order[t])
        for b in order
        for a, t in zip(letters, class_succ[b])
        if order[b] not in dead and order[t] not in dead
    )
    states = (frozenset(order.values()) - dead) | {0}
    return Automaton(states, aut.alphabet, 0, finals, transitions)


def relabel(aut: Automaton, names: list) -> Automaton:
    """`aut` with its states, in `_state_key` order, renamed to `names`."""
    rename = dict(zip(sorted(aut.states, key=_state_key), names))
    return Automaton.make(
        rename.values(),
        aut.alphabet,
        rename[aut.initial],
        [rename[f] for f in aut.finals],
        [(rename[p], a, rename[q]) for p, a, q in aut.transitions],
    )


def state_names(naming: str, rng: random.Random, n: int) -> list:
    """n distinct state names in random order: ints, strings that include
    the names a sink would take, or a mix of both ("int", "str", "mixed")."""
    if naming == "int":
        return rng.sample(range(-n, 10 * n), n)
    strings = ["q" + "'" * i for i in range(n)] + ["sink" + "_" * i for i in range(n)]
    if naming == "str":
        return rng.sample(strings, n)
    return rng.sample([*range(n), *strings], n)


# -- reference inductive builders ---------------------------------------------


class ReferenceInductiveBuilder:
    """The inductive λ-NFA: every leaf's arc is written when the leaf is
    built, and a merge is an entry in a union-find alias map."""

    def __init__(self):
        self.n = 0
        self.arcs = []
        self.alias = {}
        self.letters = set()

    def fresh(self):
        self.n += 1
        return self.n - 1

    def arc(self, p, a, q):
        self.arcs.append((p, a, q))

    def merge(self, old, new):
        self.alias[old] = new

    def build(self, r):
        frags = []
        for node in _postorder(r):
            cls = type(node)
            if cls is Union or cls is Concat:
                b = frags.pop()
                frags[-1] = (self._union if cls is Union else self._concat)(frags[-1], b)
            elif cls is Star:
                frags[-1] = self._star(frags[-1])
            elif cls is Option:
                i, f = frags[-1]
                self.arc(i, None, f)
            else:
                i, f = self.fresh(), self.fresh()
                if cls is Sym:
                    self.letters.add(node.name)
                if cls is not Empty:
                    self.arc(i, None if cls is Epsilon else node.name, f)
                frags.append((i, f))
        return frags[0]

    def _union(self, a, b):
        self.merge(b[0], a[0])
        self.merge(b[1], a[1])
        return a

    def _concat(self, a, b):
        self.merge(b[0], a[1])
        return a[0], b[1]

    def _star(self, a):
        m = a[0]
        self.merge(a[1], m)
        i, f = self.fresh(), self.fresh()
        self.arc(i, None, m)
        self.arc(m, None, f)
        return i, f

    def automaton(self, frag, alphabet):
        alias = self.alias
        for p in reversed(alias):
            alias[p] = alias.get(alias[p], alias[p])
        rows = {frag[0]: [], frag[1]: []}
        for p, a, q in self.arcs:
            rows.setdefault(alias.get(p, p), []).append((a or "", alias.get(q, q)))
            rows.setdefault(alias.get(q, q), [])
        reached, arcs = _explore(frag[0], lambda p: sorted(rows[p]))
        unreached = sorted(set(rows).difference(reached))
        order = {p: i for i, p in enumerate(reached + unreached)}
        arcs += [(order[p], a, order[q]) for p in unreached for a, q in rows[p]]
        arcs = ((p, a or None, q) for p, a, q in arcs)
        return Automaton.make(order.values(), alphabet, 0, [order[frag[1]]], arcs)


class ReferenceFollowBuilder(ReferenceInductiveBuilder):
    """Eager λ-merging over per-state out- and in-arc sets: a merge moves
    the union of the state's arcs through `arc`, λ-arcs are contracted in
    `repr` order, and an arc is unique when its set equals {arc}."""

    def __init__(self):
        super().__init__()
        self.out = defaultdict(set)
        self.inn = defaultdict(set)

    def arc(self, p, a, q):
        arc = (p, a, q)
        self.out[p].add(arc)
        self.inn[q].add(arc)

    def _drop(self, arc):
        self.out[arc[0]].discard(arc)
        self.inn[arc[2]].discard(arc)

    def merge(self, old, new):
        moved = self.out.pop(old, set()) | self.inn.pop(old, set())
        for p, a, q in moved:
            if p != old:
                self.out[p].discard((p, a, q))
            if q != old:
                self.inn[q].discard((p, a, q))
        for p, a, q in moved:
            self.arc(new if p == old else p, a, new if q == old else q)

    def _concat(self, a, b):
        return self._contract(super()._concat(a, b), a[1], enclosed=True)

    def _star(self, a):
        frag = super()._star(a)
        self._collapse_lambda_cycle(a[0])
        return frag

    def _contract(self, frag, m, enclosed):
        init, fin = frag
        while True:
            arcs = self.out[m] | self.inn[m] if enclosed else self.out[m]
            for arc in sorted([t for t in arcs if t[1] is None and t[0] != t[2]], key=repr):
                p, _, q = arc
                in_unique = self.inn[q] == {arc}
                out_unique = self.out[p] == {arc}
                if not (in_unique or (out_unique and p != fin)):
                    continue
                if enclosed and (
                    (p == init and not in_unique)
                    or (q == fin and not out_unique)
                    or (p == init and q == fin)
                ):
                    continue
                keep = m if enclosed else q
                gone = p + q - keep
                self._drop(arc)
                self.merge(gone, keep)
                init = keep if init == gone else init
                fin = keep if fin == gone else fin
                m = keep
                break
            else:
                return init, fin

    def _collapse_lambda_cycle(self, m):
        forward = _reach(lambda p: [q for _, a, q in self.out.get(p, ()) if a is None], [m])
        backward = _reach(lambda q: [p for p, a, _ in self.inn.get(q, ()) if a is None], [m])
        cycle = forward & backward
        if len(cycle) == 1 and (m, None, m) not in self.out[m]:
            return
        for c in cycle:
            for arc in [t for t in self.out[c] if t[1] is None and t[2] in cycle]:
                self._drop(arc)
        for c in cycle - {m}:
            self.merge(c, m)


def reference_construct_of(r: RegEx) -> Automaton:
    builder = ReferenceInductiveBuilder()
    return builder.automaton(builder.build(r), builder.letters)


def reference_construct_follow(r: RegEx) -> Automaton:
    """The follow automaton, with a search for every state's λ-closure."""
    builder = ReferenceFollowBuilder()
    frag = builder.build(r)
    init, fin = builder._contract(frag, frag[0], enclosed=False)
    out = builder.out
    accepting = []

    def moves(p):
        closure = _reach(lambda c: [q for _, a, q in out.get(c, ()) if a is None], [p])
        accepting.append(fin in closure)
        return sorted({(a, q) for c in closure for _, a, q in out.get(c, ()) if a is not None})

    states, transitions = _explore(init, moves)
    finals = [i for i, f in enumerate(accepting) if f]
    return Automaton.make(range(len(states)), builder.letters, 0, finals, transitions)


# -- reference simplifier and automaton-to-expression converters -------------


def _union_branches(r: RegEx) -> list:
    """The maximal non-union subterms of r, left to right."""
    if isinstance(r, Union):
        return _union_branches(r.left) + _union_branches(r.right)
    return [r]


def _reference_canon_key(r, memo) -> str:
    """The text of r with union branches sorted, at every level; `memo`
    maps ("key", id(node)) to (node, key)."""
    if isinstance(r, (Empty, Epsilon, Sym)):
        return render(r)
    if ("key", id(r)) not in memo:
        if isinstance(r, Union):
            key = "(+ " + " ".join(sorted(_reference_canon_key(b, memo) for b in _union_branches(r))) + ")"
        elif isinstance(r, Concat):
            key = "(. " + _reference_canon_key(r.left, memo) + " " + _reference_canon_key(r.right, memo) + ")"
        else:
            key = ("(* " if isinstance(r, Star) else "(? ") + _reference_canon_key(r.inner, memo) + ")"
        memo["key", id(r)] = (r, key)
    return memo["key", id(r)][1]


def _reference_absorbed_star_body(b):
    """The x with b = x·x* or b = x*·x, compared structurally, if any."""
    if not isinstance(b, Concat):
        return None
    if isinstance(b.right, Star) and b.right.inner == b.left:
        return b.left
    if isinstance(b.left, Star) and b.left.inner == b.right:
        return b.right
    return None


def _reference_dedup(branches, memo) -> list:
    """The branches with each canonical key's first occurrence kept."""
    seen, out = set(), []
    for b in branches:
        key = _reference_canon_key(b, memo)
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


def reference_simplify(r, memo=None):
    """`simplify` as a rewrite of the tree: ∅ and λ units/annihilators,
    ∅*→λ, λ*→λ, (r*)*→r*, duplicate union branches dropped by their text
    with branches sorted (the first kept), and λ + x·x* → x* for the first
    such branch.  `memo` maps id(node) to (node, simplified form) across
    calls, as the simplified form once stored on each node."""
    memo = {} if memo is None else memo
    if isinstance(r, (Empty, Epsilon, Sym)):
        return r
    if id(r) in memo:
        return memo[id(r)][1]
    if isinstance(r, Star):
        inner = reference_simplify(r.inner, memo)
        out = EPSILON if isinstance(inner, (Empty, Epsilon)) else inner if isinstance(inner, Star) else Star(inner)
    elif isinstance(r, Option):
        out = Option(reference_simplify(r.inner, memo))
    elif isinstance(r, Concat):
        left, right = reference_simplify(r.left, memo), reference_simplify(r.right, memo)
        if isinstance(left, Empty) or isinstance(right, Empty):
            out = EMPTY
        else:
            out = right if isinstance(left, Epsilon) else left if isinstance(right, Epsilon) else Concat(left, right)
    else:
        flat = [x for b in _union_branches(r) for x in _union_branches(reference_simplify(b, memo))]
        pruned = _reference_dedup([b for b in flat if not isinstance(b, Empty)], memo)
        eps_at = next((i for i, b in enumerate(pruned) if isinstance(b, Epsilon)), None)
        if eps_at is not None:
            for i, b in enumerate(pruned):
                body = _reference_absorbed_star_body(b)
                if body is not None:
                    replaced = [Star(body) if j == i else x for j, x in enumerate(pruned) if j != eps_at]
                    pruned = _reference_dedup(replaced, memo)
                    break
        out = reduce(Union, pruned) if pruned else EMPTY
    memo[id(r)] = (r, out)
    return out


def _reference_post(simplify_steps: bool):
    """Each step's rewrite: `reference_simplify` with one memo, or none."""
    memo: dict = {}
    return (lambda e: reference_simplify(e, memo)) if simplify_steps else (lambda e: e)


def _reference_eliminate_state(ext, q, post):
    """Remove q: each new label is built raw, old + lin·loop*·out, and then
    passed through `post`."""
    loop = ext.out[q].get(q)
    ins = sorted((p for p in ext.into[q] if p != q), key=_state_key)
    outs = sorted((k for k in ext.out[q] if k != q), key=_state_key)
    out, into = dict(ext.out), dict(ext.into)
    del out[q], into[q]
    for k in outs:
        into[k] = {p: e for p, e in into[k].items() if p != q}
    for p in ins:
        out[p] = {k: e for k, e in out[p].items() if k != q}
        for k in outs:
            path = ext.into[q][p]
            if loop is not None:
                path = Concat(path, Star(loop))
            path = Concat(path, ext.out[q][k])
            old = out[p].get(k)
            new = post(path if old is None else Union(old, path))
            if isinstance(new, Empty):
                out[p].pop(k, None)
                into[k].pop(p, None)
            else:
                out[p][k] = into[k][p] = new
    return ExtendedAutomaton(ext.states - {q}, out, into)


def _reference_eliminate(aut, prefix, score, suffix, post):
    ext = augment(aut)
    order = []
    rest = sorted(set(aut.states).difference(prefix, suffix), key=_state_key)
    for q in prefix:
        ext = _reference_eliminate_state(ext, q, post)
        order.append(q)
    while rest:
        q = min(rest, key=lambda s: (score(ext, s), _state_key(s)))
        rest.remove(q)
        ext = _reference_eliminate_state(ext, q, post)
        order.append(q)
    for q in suffix:
        ext = _reference_eliminate_state(ext, q, post)
        order.append(q)
    return order, ext


def reference_state_elimination(aut: Automaton, order="greedy", simplify_steps: bool = True) -> RegEx:
    """State elimination with a `post` rewrite after each step, the dynamic
    orders taken from a simplified pass, and the final label simplified."""
    post = _reference_post(simplify_steps)
    prefix, score, suffix = _plan(aut, order)
    if score is not None and not simplify_steps:
        prefix, score, suffix = _reference_eliminate(aut, prefix, score, suffix, _reference_post(True))[0], None, []
    return post(_reference_eliminate(aut, prefix, score, suffix, post)[1].label(SOURCE, SINK))


def reference_arden_solve(aut: Automaton, simplify_steps: bool = True) -> RegEx:
    """Back-substitution over raw labels, each new one passed through `post`."""
    post = _reference_post(simplify_steps)
    ext = augment(aut)
    coeffs = {q: {k: e for k, e in ext.out[q].items() if k is not SINK} for q in aut.states}
    consts = {q: ext.label(q, SINK) for q in aut.states}
    order = [q for q in sorted(aut.states, key=_state_key, reverse=True) if q != aut.initial]
    order.append(aut.initial)
    for pos, q in enumerate(order):
        eq_c = coeffs[q]
        if q in eq_c:
            star = Star(eq_c.pop(q))
            eq_c = coeffs[q] = {j: post(Concat(star, expr)) for j, expr in eq_c.items()}
            if not isinstance(consts[q], Empty):
                consts[q] = post(Concat(star, consts[q]))
        if q == aut.initial:
            break
        for other in order[pos + 1 :]:
            if q not in coeffs[other]:
                continue
            through = coeffs[other].pop(q)
            for j in sorted(eq_c, key=_state_key):
                add = Concat(through, eq_c[j])
                old = coeffs[other].get(j)
                coeffs[other][j] = post(add if old is None else Union(old, add))
            if not isinstance(consts[q], Empty):
                add = Concat(through, consts[q])
                old = consts[other]
                consts[other] = post(add if isinstance(old, Empty) else Union(old, add))
    return post(consts[aut.initial])


def reference_mcnaughton_yamada(aut: Automaton, ranking=None, simplify_steps: bool = True) -> RegEx:
    """The matrix rounds over raw entries, each passed through `post`."""
    post = _reference_post(simplify_steps)
    states = sorted(aut.states, key=_state_key)
    ext = augment(aut)
    matrix = {(p, q): ext.label(p, q) for p in states for q in states}
    for i in reversed(states) if ranking is None else ranking:
        star = Star(matrix[i, i])
        new = {}
        for j in states:
            for k in states:
                if j == i and k == i:
                    entry = Concat(star, matrix[i, i])
                elif j == i:
                    entry = Concat(star, matrix[i, k])
                elif k == i:
                    entry = Concat(matrix[j, i], star)
                else:
                    entry = Union(matrix[j, k], Concat(Concat(matrix[j, i], star), matrix[i, k]))
                new[j, k] = post(entry)
        matrix = new
    parts = [EPSILON] if aut.initial in aut.finals else []
    parts += [matrix[aut.initial, f] for f in sorted(aut.finals, key=_state_key)]
    parts = [e for e in parts if not isinstance(e, Empty)]
    return reduce(Union, parts) if parts else EMPTY


def scan_eliminate(aut, prefix, score, suffix, simplify_labels=True):
    """`elimination._eliminate` with each state of the dynamic middle the
    (score, key) minimum of a scan over every remaining state."""
    ext = augment(aut)
    order = []
    rest = sorted(set(aut.states).difference(prefix, suffix), key=_state_key)
    for q in prefix:
        ext = eliminate_state(ext, q, simplify_labels)
        order.append(q)
    while rest:
        q = min(rest, key=lambda s: (score(ext, s), _state_key(s)))
        rest.remove(q)
        ext = eliminate_state(ext, q, simplify_labels)
        order.append(q)
    for q in suffix:
        ext = eliminate_state(ext, q, simplify_labels)
        order.append(q)
    return order, ext


def reference_labels_union(table, terms: list[RegEx]) -> RegEx:
    """`elimination._Labels.union` on `table` with the branches of every
    term gathered afresh and, with λ among them, every branch scanned for
    x·x* (or x*·x)."""
    branches: dict[int, RegEx] = {}
    for t in terms:
        for b in table.unions[id(t)].values() if id(t) in table.unions else (t,):
            if b is not EMPTY:
                branches.setdefault(table._class(b), b)
    if table.classes[id(EPSILON)] in branches:
        for b in branches.values():
            body = _absorbed_star_body(b)
            if body is not None:
                kept = [table.star(body) if x is b else x for x in branches.values() if x is not EPSILON]
                branches = {}
                for x in kept:
                    branches.setdefault(table._class(x), x)
                break
    if len(branches) < 2:
        return next(iter(branches.values()), EMPTY)
    parts = iter(branches.values())
    out = next(parts)
    for b in parts:
        out = table.make(Union, out, b)
    if id(out) not in table.classes:
        table.unions[id(out)] = branches
        table.classes[id(out)] = table._number(frozenset(branches))
    return out


def full_mny_matrix(aut, ranking, terms, rows=None, cols=None):
    """`elimination._mny_matrix` building every entry in every round; the
    wanted rows and columns are ignored."""
    states = sorted(aut.states, key=_state_key)
    ext = augment(aut)
    matrix = {(p, q): terms.intern(ext.label(p, q)) for p in states for q in states}
    for i in ranking:
        star = terms.star(matrix[i, i])
        new = {}
        for j in states:
            for k in states:
                if j == i and k == i:
                    entry = terms.cat(star, matrix[i, i])
                elif j == i:
                    entry = terms.cat(star, matrix[i, k])
                elif k == i:
                    entry = terms.cat(matrix[j, i], star)
                else:
                    entry = terms.union([matrix[j, k], terms.cat(terms.cat(matrix[j, i], star), matrix[i, k])])
                new[j, k] = entry
        matrix = new
    return matrix


def shuffled_unions(r: RegEx, rng: random.Random) -> RegEx:
    """A copy of r with the branches of every union in a random order."""
    if isinstance(r, Union):
        branches = [shuffled_unions(b, rng) for b in _union_branches(r)]
        rng.shuffle(branches)
        return reduce(Union, branches)
    if isinstance(r, Concat):
        return Concat(shuffled_unions(r.left, rng), shuffled_unions(r.right, rng))
    if isinstance(r, (Star, Option)):
        return type(r)(shuffled_unions(r.inner, rng))
    return r


def commuted_duplicates_tree(rng: random.Random, depth: int) -> RegEx:
    """A tree that holds copies of its subterms with union branches
    commuted, such as (a+b)c+(b+a)c, under stars and concatenations,
    beside λ and the x·x* and x*·x shapes that λ absorbs."""
    if depth == 0:
        return random_expr(rng.randint(1, 4), ["a", "b", "c"], rng.randrange(10**6))
    x = commuted_duplicates_tree(rng, depth - 1)
    y = shuffled_unions(x, rng)
    z = rng.choice([Sym("a"), Sym("c"), EPSILON, Star(Sym("b"))])
    kind = rng.randrange(6)
    if kind == 0:
        return Union(Concat(x, z), Concat(y, z))
    if kind == 1:
        return Star(Union(Union(x, z), y))
    if kind == 2:
        return Concat(Union(y, EMPTY), Union(x, Concat(z, y)))
    if kind == 3:
        return Union(Union(EPSILON, Concat(x, Star(y))), Concat(Star(x), x))
    if kind == 4:
        return Union(Concat(y, Star(y)), Union(EPSILON, x))
    return Option(Union(Star(Star(x)), Star(y)))


def _reference_purge_units(r: RegEx) -> RegEx:
    """r with ∅ and λ removed from inside non-atomic expressions, ``s+λ``
    and ``λ+s`` made ``s?``: an atomic ∅ / λ or an expression holding neither."""
    done: list[RegEx] = []
    for node in _postorder(r):
        cls = type(node)
        if cls is Star or cls is Option:
            done[-1] = EPSILON if isinstance(done[-1], (Empty, Epsilon)) else cls(done[-1])
        elif cls is not Union and cls is not Concat:
            done.append(node)
        else:
            right = done.pop()
            left = done[-1]  # and then the result, which replaces it
            if cls is Union:
                if isinstance(left, Empty):
                    left = right
                elif isinstance(left, Epsilon):
                    left = EPSILON if isinstance(right, (Empty, Epsilon)) else Option(right)
                elif not isinstance(right, Empty):
                    left = Option(left) if isinstance(right, Epsilon) else Union(left, right)
            elif isinstance(left, Empty) or isinstance(right, Empty):
                left = EMPTY
            elif isinstance(left, Epsilon):
                left = right
            elif not isinstance(right, Epsilon):
                left = Concat(left, right)
            done[-1] = left
    return done[0]


def _reference_bullet(r: RegEx) -> RegEx:
    """r•, with (F*)• = (F•°)*, on a tree the unit rules have been applied to.
    `done` holds the • of each finished kid and beside it the ° of that •."""
    done: list[tuple[RegEx, RegEx]] = []
    for node in _postorder(r):
        cls = type(node)
        if cls is Union or cls is Concat:
            b2, c2 = done.pop()
            b1, c1 = done.pop()
            b = cls(b1, b2)
            if cls is Concat and not nullable(node):
                done.append((b, b))
            else:
                done.append((b, b if cls is Union and c1 is b1 and c2 is b2 else Union(c1, c2)))
        elif cls is Star:
            done[-1] = (Star(done[-1][1]), done[-1][1])
        elif cls is Option:
            if not nullable(node.inner):
                done[-1] = (Option(done[-1][0]), done[-1][1])
        else:
            done.append((node, node))
    return done[0][0]


def reference_ssnf(r: RegEx) -> RegEx:
    """`ssnf` as two walks: the unit rules make a unit-free copy of r, and
    the star normal form step then walks that copy."""
    return _reference_bullet(_reference_purge_units(r))


def scatter_units(r: RegEx, rng: random.Random) -> RegEx:
    """A copy of r with ∅ and λ scattered through it: as leaves in place of
    symbols, as the branch or factor beside a node (``s+&``, ``&+s``,
    ``s+#``, ``#s``, ``s&``), and as ``&*``, ``#*``, ``&?`` and ``#?``."""
    units = [EPSILON, EMPTY, Star(EPSILON), Star(EMPTY), Option(EPSILON), Option(EMPTY)]

    def walk(node: RegEx) -> RegEx:
        if isinstance(node, (Union, Concat)):
            node = type(node)(walk(node.left), walk(node.right))
        elif isinstance(node, (Star, Option)):
            node = type(node)(walk(node.inner))
        elif rng.random() < 0.1:
            node = rng.choice(units)
        kind = rng.randrange(12)
        if kind < 4:
            unit = rng.choice(units[:2] if kind < 2 else units)
            node = Union(node, unit) if kind % 2 else Union(unit, node)
        elif kind < 6:
            unit = EMPTY if rng.random() < 0.1 else rng.choice([EPSILON, Star(EMPTY), Option(EMPTY)])
            node = Concat(node, unit) if kind % 2 else Concat(unit, node)
        return node

    return walk(r)
