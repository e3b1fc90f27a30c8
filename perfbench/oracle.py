"""Correctness oracle for the benchmark, independent of refa's own code.

Expressions are parsed here with an iterative shunting-yard parser into
hash-consed nodes, and their languages are enumerated up to a length
bound.  Automata are read from the CLI's JSON and simulated directly.
Nothing in this module imports refa, so a defect shared by refa's parser,
constructions and equivalence test cannot hide itself from the check.
"""

from __future__ import annotations

import re

SYMBOL = re.compile(r"[A-Za-z][0-9]*")

# node kinds; a node is (kind, a, b) and is identified by its index in Nodes
EMPTY, EPS, SYM, UNION, CAT, STAR, OPT = range(7)


class Nodes:
    """Hash-consed expression DAG: equal subterms share one index."""

    def __init__(self):
        self.table: list[tuple] = []
        self.index: dict[tuple, int] = {}

    def make(self, kind: int, a=None, b=None) -> int:
        key = (kind, a, b)
        found = self.index.get(key)
        if found is None:
            found = self.index[key] = len(self.table)
            self.table.append(key)
        return found


_PREC = {"+": 0, ".": 1}


def parse(text: str, nodes: Nodes) -> int:
    """Parse refa's ASCII syntax; returns the root node index.

    Raises ValueError on malformed input.  Iterative, so nesting depth is
    bounded by memory rather than by the interpreter's recursion limit.
    """
    out: list[int] = []
    ops: list[str] = []

    def reduce_top():
        op = ops.pop()
        if len(out) < 2:
            raise ValueError(f"missing operand for {op!r}")
        right = out.pop()
        left = out.pop()
        out.append(nodes.make(UNION if op == "+" else CAT, left, right))

    def push_binary(op: str):
        while ops and ops[-1] != "(" and _PREC[ops[-1]] >= _PREC[op]:
            reduce_top()
        ops.append(op)

    i = 0
    ends_operand = False  # previous token can be followed by concatenation
    while i < len(text):
        c = text[i]
        if c == " ":
            i += 1
            continue
        if c in "(#&" or (c.isascii() and c.isalpha()):
            if ends_operand:
                push_binary(".")
            if c == "(":
                ops.append("(")
                ends_operand = False
                i += 1
                continue
            if c == "#":
                out.append(nodes.make(EMPTY))
                i += 1
            elif c == "&":
                out.append(nodes.make(EPS))
                i += 1
            else:
                m = SYMBOL.match(text, i)
                out.append(nodes.make(SYM, m.group()))
                i = m.end()
            ends_operand = True
        elif c in "*?":
            if not ends_operand:
                raise ValueError(f"dangling {c!r} at offset {i}")
            out.append(nodes.make(STAR if c == "*" else OPT, out.pop()))
            i += 1
        elif c == "·":
            if not ends_operand:
                raise ValueError(f"dangling '·' at offset {i}")
            push_binary(".")
            ends_operand = False
            i += 1
        elif c == "+":
            if not ends_operand:
                raise ValueError(f"dangling '+' at offset {i}")
            push_binary("+")
            ends_operand = False
            i += 1
        elif c == ")":
            if not ends_operand:
                raise ValueError(f"empty group at offset {i}")
            while ops and ops[-1] != "(":
                reduce_top()
            if not ops:
                raise ValueError(f"unbalanced ')' at offset {i}")
            ops.pop()
            i += 1
        else:
            raise ValueError(f"unexpected {c!r} at offset {i}")
    if not ends_operand:
        raise ValueError("expression ends with an operator")
    while ops:
        if ops[-1] == "(":
            raise ValueError("unbalanced '('")
        reduce_top()
    if len(out) != 1:
        raise ValueError("empty expression")
    return out[0]


def _post_order(nodes: Nodes, root: int) -> list[int]:
    """Every node reachable from root, children before parents, once each."""
    order: list[int] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            order.append(n)
            continue
        if n in seen:
            continue
        seen.add(n)
        stack.append((n, True))
        kind, a, b = nodes.table[n]
        if kind in (UNION, CAT):
            stack.append((b, False))
            stack.append((a, False))
        elif kind in (STAR, OPT):
            stack.append((a, False))
    return order


def measures(nodes: Nodes, root: int) -> dict[str, int]:
    """size, rpn, awidth and star height with refa's documented conventions.

    size charges atoms 1 and every operator 3; awidth counts symbol
    occurrences of the tree (shared subterms count once per occurrence).
    """
    val: dict[int, tuple[int, int, int, int]] = {}
    for n in _post_order(nodes, root):
        kind, a, b = nodes.table[n]
        if kind in (EMPTY, EPS):
            val[n] = (1, 1, 0, 0)
        elif kind == SYM:
            val[n] = (1, 1, 1, 0)
        elif kind in (UNION, CAT):
            x, y = val[a], val[b]
            val[n] = (x[0] + y[0] + 3, x[1] + y[1] + 1, x[2] + y[2], max(x[3], y[3]))
        else:
            x = val[a]
            val[n] = (x[0] + 3, x[1] + 1, x[2], x[3] + (1 if kind == STAR else 0))
    size, rpn, awidth, height = val[root]
    return {"size": size, "rpn": rpn, "awidth": awidth, "height": height}


def symbols(nodes: Nodes, root: int) -> set[str]:
    return {nodes.table[n][1] for n in _post_order(nodes, root) if nodes.table[n][0] == SYM}


def language(nodes: Nodes, root: int, bound: int) -> frozenset[tuple]:
    """All words of length <= bound denoted by the expression, as tuples."""
    val: dict[int, frozenset] = {}
    for n in _post_order(nodes, root):
        kind, a, b = nodes.table[n]
        if kind == EMPTY:
            val[n] = frozenset()
        elif kind == EPS:
            val[n] = frozenset([()])
        elif kind == SYM:
            val[n] = frozenset([(a,)]) if bound >= 1 else frozenset()
        elif kind == UNION:
            val[n] = val[a] | val[b]
        elif kind == CAT:
            val[n] = _concat(val[a], val[b], bound)
        elif kind == OPT:
            val[n] = val[a] | {()}
        else:
            body = [w for w in val[a] if w]
            acc = {()}
            frontier = [()]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in body:
                        if len(u) + len(v) <= bound:
                            w = u + v
                            if w not in acc:
                                acc.add(w)
                                nxt.append(w)
                frontier = nxt
            val[n] = frozenset(acc)
    return val[root]


def _concat(left: frozenset, right: frozenset, bound: int) -> frozenset:
    if not left or not right:
        return frozenset()
    by_len: dict[int, list] = {}
    for v in right:
        by_len.setdefault(len(v), []).append(v)
    out = set()
    for u in left:
        room = bound - len(u)
        for length, vs in by_len.items():
            if length <= room:
                out.update(u + v for v in vs)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Automata in the CLI's JSON form ({"states", "alphabet", "initial",
# "finals", "transitions": [[p, label, q], ...]}, label "" is λ)


class Nfa:
    def __init__(self, data: dict):
        self.states = [_key(s) for s in data["states"]]
        self.alphabet = list(data["alphabet"])
        self.initial = _key(data["initial"])
        self.finals = {_key(s) for s in data["finals"]}
        self.arcs = [(_key(p), a, _key(q)) for p, a, q in data["transitions"]]
        self.succ: dict[tuple, set] = {}
        for p, a, q in self.arcs:
            self.succ.setdefault((p, a), set()).add(q)
        # states from which a final state is reachable; other sets are dead
        pred: dict = {}
        for p, _, q in self.arcs:
            pred.setdefault(q, set()).add(p)
        live = set(self.finals)
        stack = list(live)
        while stack:
            q = stack.pop()
            for p in pred.get(q, ()):
                if p not in live:
                    live.add(p)
                    stack.append(p)
        self.live = live

    def closure(self, states) -> frozenset:
        out = set(states)
        stack = list(out)
        while stack:
            p = stack.pop()
            for q in self.succ.get((p, ""), ()):
                if q not in out:
                    out.add(q)
                    stack.append(q)
        return frozenset(out)

    def step(self, states: frozenset, letter: str) -> frozenset:
        nxt = set()
        for p in states:
            nxt |= self.succ.get((p, letter), set())
        return self.closure(nxt)

    def accepts(self, word) -> bool:
        cur = self.closure([self.initial])
        for letter in word:
            cur = self.step(cur, letter)
            if not cur:
                return False
        return bool(cur & self.finals)

    def language(self, bound: int, letters) -> frozenset[tuple]:
        """Accepted words of length <= bound over the given letters."""
        out = set()
        stack = [((), self.closure([self.initial]))]
        while stack:
            word, cur = stack.pop()
            if cur & self.finals:
                out.add(word)
            if len(word) == bound:
                continue
            for letter in letters:
                nxt = self.step(cur, letter)
                if nxt & self.live:
                    stack.append((word + (letter,), nxt))
        return frozenset(out)

    def is_lambda_free(self) -> bool:
        return all(a != "" for _, a, _ in self.arcs)

    def is_complete_dfa(self) -> bool:
        keys = [(p, a) for p, a, _ in self.arcs]
        return (
            self.is_lambda_free()
            and len(set(keys)) == len(keys) == len(self.states) * len(self.alphabet)
        )

    def is_bideterministic(self) -> bool:
        """Partial DFA, one final state, reversal again a partial DFA."""
        if not self.is_lambda_free() or len(self.finals) != 1:
            return False
        fwd = [(p, a) for p, a, _ in self.arcs]
        back = [(q, a) for _, a, q in self.arcs]
        return len(set(fwd)) == len(fwd) and len(set(back)) == len(back)

    def is_trim(self) -> bool:
        reach = {self.initial}
        stack = [self.initial]
        while stack:
            p = stack.pop()
            for (src, _), qs in self.succ.items():
                if src == p:
                    for q in qs:
                        if q not in reach:
                            reach.add(q)
                            stack.append(q)
        return reach == set(self.states) and self.live == set(self.states)


def _key(state):
    return tuple(state) if isinstance(state, list) else state


def word_bound(alphabet_size: int, budget: int = 300) -> int:
    """Longest word length whose full word tree stays within budget words."""
    if alphabet_size <= 1:
        return 12
    length, total, layer = 0, 1, 1
    while True:
        layer *= alphabet_size
        if total + layer > budget:
            return max(length, 1)
        total += layer
        length += 1


def tokenize_word(text: str) -> tuple:
    """Split a printed witness such as ``a1a2b`` (``&`` is the empty word)."""
    if text == "&":
        return ()
    pieces = SYMBOL.findall(text)
    if "".join(pieces) != text:
        raise ValueError(f"not a word: {text!r}")
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Cycle rank, by memoised vertex deletion over bitmasks


class TooLarge(Exception):
    """The exact search would exceed its memo budget."""


def _sccs(mask: int, succ: list[int]) -> list[int]:
    """Strongly connected components of the subgraph induced by mask (Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack = 0
    stack: list[int] = []
    comps = []
    counter = 0
    m = mask
    while m:
        root = (m & -m).bit_length() - 1
        m &= m - 1
        if root in index:
            continue
        work = [(root, succ[root] & mask)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack |= 1 << root
        while work:
            v, rest = work[-1]
            if rest:
                w = (rest & -rest).bit_length() - 1
                work[-1] = (v, rest & (rest - 1))
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack |= 1 << w
                    work.append((w, succ[w] & mask))
                elif on_stack >> w & 1:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = 0
                while True:
                    w = stack.pop()
                    on_stack &= ~(1 << w)
                    comp |= 1 << w
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _succ_masks(vertices: list, arcs) -> list[int]:
    pos = {v: i for i, v in enumerate(vertices)}
    succ = [0] * len(vertices)
    for u, v in arcs:
        succ[pos[u]] |= 1 << pos[v]
    return succ


def _nontrivial(comp: int, succ: list[int]) -> bool:
    if comp & (comp - 1):
        return True
    v = comp.bit_length() - 1
    return bool(succ[v] >> v & 1)


def cycle_rank(vertices: list, arcs, memo_cap: int = 200_000) -> int:
    """Exact cycle rank; raises TooLarge past memo_cap distinct subgraphs.

    rank(S) is the maximum over the nontrivial strongly connected
    components C of S of 1 + min over v in C of rank(C - v).  The recursion
    is at most |V| deep.
    """
    succ = _succ_masks(vertices, arcs)
    memo: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        best = 0
        for comp in _sccs(mask, succ):
            if not _nontrivial(comp, succ):
                continue
            inner = None
            rest = comp
            while rest and inner != 0:
                v = rest & -rest
                rest &= rest - 1
                r = rank(comp & ~v)
                if inner is None or r < inner:
                    inner = r
            best = max(best, 1 + inner)
        memo[mask] = best
        if len(memo) > memo_cap:
            raise TooLarge(f"more than {memo_cap} subgraphs")
        return best

    return rank((1 << len(vertices)) - 1)


def is_cyclic(vertices: list, arcs) -> bool:
    succ = _succ_masks(vertices, arcs)
    full = (1 << len(vertices)) - 1
    return any(_nontrivial(c, succ) for c in _sccs(full, succ))
