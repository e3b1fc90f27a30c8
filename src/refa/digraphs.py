"""Directed graphs extracted from automata, and their structural measures.

The central measure is the cycle rank (loop complexity): zero for acyclic
digraphs, and one plus the cheapest vertex deletion inside a strongly
connected component otherwise, taking the maximum over components.  For
bideterministic languages the cycle rank of the minimal partial DFA equals
the star height of the language, which is how this module computes star
heights without touching the general (and very hard) star height problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from .automata import Automaton, _state_key, is_bideterministic, minimize

__all__ = [
    "Digraph",
    "CycleCount",
    "CycleRankBudgetError",
    "NotBideterministicError",
    "underlying_digraph",
    "sccs",
    "cycle_rank",
    "cycle_rank_upper",
    "undirected_cycle_rank",
    "symmetrize",
    "independent_set",
    "cycles_through",
    "star_height_bideterministic",
]

Vertex = Hashable


class CycleRankBudgetError(ValueError):
    """Exact cycle rank was refused because the digraph exceeds the budget."""


class NotBideterministicError(ValueError):
    pass


@dataclass(frozen=True)
class Digraph:
    vertices: frozenset
    arcs: frozenset  # ordered pairs; parallel arcs are collapsed by the set

    def __post_init__(self):
        for u, v in self.arcs:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"arc ({u!r},{v!r}) leaves the vertex set")

    @staticmethod
    def make(vertices: Iterable, arcs: Iterable[tuple]) -> "Digraph":
        return Digraph(frozenset(vertices), frozenset((u, v) for u, v in arcs))


def underlying_digraph(aut: Automaton) -> Digraph:
    """One arc per ordered state pair with at least one transition."""
    return Digraph(aut.states, frozenset((p, q) for p, _, q in aut.transitions))


# -- bitmask kernel ------------------------------------------------------------
# Vertex i (in _state_key order) is bit 1 << i; a vertex set is an int mask.


def _index(dg: Digraph) -> tuple[list, list[int], list[int]]:
    """Vertices in _state_key order, with successor and predecessor masks."""
    order = sorted(dg.vertices, key=_state_key)
    pos = {v: i for i, v in enumerate(order)}
    succ = [0] * len(order)
    pred = [0] * len(order)
    for u, v in dg.arcs:
        succ[pos[u]] |= 1 << pos[v]
        pred[pos[v]] |= 1 << pos[u]
    return order, succ, pred


def _reach(start: int, adj: list[int], within: int) -> int:
    """Vertices of `within` reachable from the `start` vertices along `adj`."""
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


def _components(mask: int, succ: list[int], pred: list[int], cyclic: bool = False) -> list[int]:
    """Strongly connected components of `mask`, in reverse topological order.

    One forward-backward split per part (Fleischer, Hendrickson & Pinar):
    the lowest vertex's forward reach F and backward reach B meet in its
    component C, and F-C, B-C and the rest of the part each hold whole
    components, split in turn.  No arc leaves F, and none enters B from
    outside it, so emitting F-C, C, the rest, then B-C keeps every arc
    pointing at an earlier component.  A lowest vertex with no out-arc in
    the part is a sink, emitted first; one with no in-arc is a source,
    emitted last; neither needs a reach, so a chain is split in linear time.
    With `cyclic`, a vertex that is a component alone without a self-loop
    is left out.
    """
    out, todo = [], [mask] if mask else []
    while todo:
        part = todo.pop()
        if part < 0:  # ~comp: a finished component, queued in emit order
            out.append(~part)
            continue
        v = part & -part
        i = v.bit_length() - 1
        if not succ[i] & part:
            if not cyclic:
                out.append(v)
            if part != v:
                todo.append(part ^ v)
            continue
        if not pred[i] & part:
            if not cyclic:
                todo.append(~v)
            todo.append(part ^ v)
            continue
        forward = _reach(v, succ, part)
        backward = _reach(v, pred, part)
        comp = forward & backward
        # pushed in reverse, so popped as F-C, C, the rest, B-C
        for rest in (backward ^ comp, part & ~(forward | backward)):
            if rest:
                todo.append(rest)
        if comp != v or not cyclic or succ[i] & v:
            todo.append(~comp)
        if forward != comp:
            todo.append(forward ^ comp)
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def sccs(dg: Digraph) -> list[frozenset]:
    """Strongly connected components, in reverse topological order."""
    order, succ, pred = _index(dg)
    return [
        frozenset(order[b.bit_length() - 1] for b in _bits(comp))
        for comp in _components((1 << len(order)) - 1, succ, pred)
    ]


def cycle_rank(dg: Digraph, budget: int = 18) -> int:
    """Exact cycle rank via the memoized deletion recursion, with branch-and-bound.

    A subgraph's rank never exceeds the digraph's (the monotone floor), so each
    child's value, exact or a bound, raises a floor that can end the search early.
    Two rules make the search cheaper and keep its value:

    - components come from forward-backward splits (see
      :func:`_components`): two reaches find the lowest vertex's component
      and cut the rest into three parts that never meet again, and a
      source or a sink needs none;
    - dominated deletions are skipped.  Call u full when it has two or more
      in-neighbours and two or more out-neighbours besides itself.  When v's
      only other in-neighbour, or only other out-neighbour, is a full u,
      rank(mask - u) <= rank(mask - v): without u, v is a source or a sink
      or, with a self-loop, a component of rank 1, and mask - v keeps a
      cycle through u.  A full vertex is never skipped, so u is tried.

    Refuses digraphs above `budget` vertices: the recursion is exponential
    in the worst case, so callers beyond that should fall back to
    :func:`cycle_rank_upper`.
    """
    if len(dg.vertices) > budget:
        raise CycleRankBudgetError(
            f"{len(dg.vertices)} vertices exceed the exact-rank budget of {budget}"
        )
    order, succ, pred = _index(dg)
    exact: dict[int, int] = {}  # vertex mask -> its cycle rank
    lower: dict[int, int] = {}  # vertex mask -> a proven lower bound on it

    def full(u: int, mask: int) -> bool:
        """Vertex bit u has two or more in- and out-neighbours in `mask` besides itself."""
        j = u.bit_length() - 1
        ins, outs = pred[j] & mask & ~u, succ[j] & mask & ~u
        return bool(ins & (ins - 1) and outs & (outs - 1))

    def rank(mask: int, limit: int, strong: bool = False) -> int:
        """Exact when below `limit`; otherwise a lower bound of at least `limit`.

        `strong` says that `mask` is known to be one strongly connected
        component of two or more vertices.
        """
        known = exact.get(mask)
        if known is not None:
            return known
        floor = lower.get(mask, 0)
        if floor >= limit:
            return floor
        if not strong:
            comps = _components(mask, succ, pred, cyclic=True)
            strong = comps == [mask] and mask & (mask - 1)
        if strong:
            # delete one vertex; later children only need to beat the best so far
            floor = max(floor, 1)
            sub = limit
            for v in _bits(mask):
                # skip v when its sole other in- or out-neighbour is full
                i, rest = v.bit_length() - 1, mask ^ v
                near = pred[i] & rest
                if not near & (near - 1) and full(near, mask):
                    continue
                near = succ[i] & rest
                if not near & (near - 1) and full(near, mask):
                    continue
                child = rank(rest, sub if sub < limit else limit - 1)
                if child < sub:
                    sub = child
                if child > floor:
                    floor = child
                if floor >= limit or sub + 1 <= floor:
                    break
            # sub + 1 bounds the rank only once every child is in
            result = floor if floor >= limit else sub + 1
        else:
            # a looped vertex alone has rank 1
            result = 0
            for comp in comps:
                result = max(result, rank(comp, limit, True) if comp & (comp - 1) else 1)
                if result >= limit:
                    break
        if result < limit:
            exact[mask] = result
        else:
            lower[mask] = result
        return result

    return rank((1 << len(order)) - 1, len(order) + 1)


def cycle_rank_upper(dg: Digraph) -> int:
    """Greedy upper bound: how deep deleting each SCC's highest-degree vertex nests."""
    order, succ, pred = _index(dg)
    names = [repr(v) for v in order]

    def degree_key(b: int, comp: int):
        i = b.bit_length() - 1
        return (-((succ[i] & comp).bit_count() + (pred[i] & comp).bit_count()), names[i])

    best, stack = 0, [((1 << len(order)) - 1, 0)]
    while stack:
        mask, depth = stack.pop()
        best = max(best, depth)
        stack += [(comp ^ min(_bits(comp), key=lambda b: degree_key(b, comp)), depth + 1)
                  for comp in _components(mask, succ, pred, cyclic=True)]
    return best


def symmetrize(dg: Digraph) -> Digraph:
    return Digraph(dg.vertices, dg.arcs | frozenset((v, u) for u, v in dg.arcs))


def undirected_cycle_rank(dg: Digraph, budget: int = 18) -> int:
    """Cycle rank of the digraph with every arc made bidirectional."""
    return cycle_rank(symmetrize(dg), budget)


def independent_set(dg: Digraph, exact: bool = False) -> frozenset:
    """An independent set of the symmetrized graph.

    Greedy minimum-degree by default; exhaustive search on request for up
    to 20 vertices.  Vertices with self-loops are never eligible.
    """
    neigh = {v: set() for v in dg.vertices}
    looped = set()
    for u, v in dg.arcs:
        if u == v:
            looped.add(u)
        else:
            neigh[u].add(v)
            neigh[v].add(u)
    candidates = set(dg.vertices) - looped

    if exact:
        if len(dg.vertices) > 20:
            raise ValueError("exact independent set limited to 20 vertices")
        best: set = set()

        def search(chosen: set, rest: list):
            nonlocal best
            if len(chosen) + len(rest) <= len(best):
                return
            if not rest:
                if len(chosen) > len(best):
                    best = set(chosen)
                return
            v = rest[0]
            search(chosen | {v}, [w for w in rest[1:] if w not in neigh[v]])
            search(chosen, rest[1:])

        search(set(), sorted(candidates, key=_state_key))
        return frozenset(best)

    chosen = set()
    while candidates:
        v = min(candidates, key=lambda x: (len(neigh[x] & candidates), _state_key(x)))
        chosen.add(v)
        candidates -= neigh[v] | {v}
    return frozenset(chosen)


@dataclass(frozen=True)
class CycleCount:
    count: int
    saturated: bool


def cycles_through(dg: Digraph, v: Vertex, cap: int = 10**6) -> CycleCount:
    """Number of simple cycles containing v; enumeration stops at `cap`."""
    if v not in dg.vertices:
        raise ValueError(f"{v!r} is not a vertex")
    order, succ, _ = _index(dg)
    return _cycles_at(succ, order.index(v), cap)


def _cycles_at(succ: list[int], i: int, cap: int) -> CycleCount:
    """`cycles_through` at vertex i of an index's successor masks, so that
    one index serves the counts at every vertex."""
    home = 1 << i
    count = 0
    # a path vertex's frame: its successors not yet tried, in _state_key order,
    # and the path's mask; the last frame in locals, the rest on a stack, as a
    # path can be longer than the recursion limit
    successors, visited = _bits(succ[i]), home
    stack = []
    while True:
        for w in successors:
            if w == home:
                count += 1
                if count >= cap:
                    return CycleCount(count, True)
            elif not w & visited:
                stack.append((successors, visited))
                successors, visited = _bits(succ[w.bit_length() - 1]), visited | w
                break
        else:
            if not stack:
                return CycleCount(count, False)
            successors, visited = stack.pop()


def star_height_bideterministic(aut: Automaton, budget: int = 18) -> int:
    """Star height of the accepted language, for bideterministic input only.

    Equals the cycle rank of the digraph underlying the minimal partial DFA;
    refuses automata whose minimal partial DFA is not bideterministic.
    """
    minimal = minimize(aut, "partial")
    if not is_bideterministic(minimal):
        raise NotBideterministicError("language is not given by a bideterministic automaton")
    return cycle_rank(underlying_digraph(minimal), budget)
