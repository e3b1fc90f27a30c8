"""Finite automata: one data model for λ-NFAs, NFAs and (partial) DFAs.

States are plain identifiers (ints or strings), transitions are labelled
triples, and a label of ``None`` is a spontaneous (λ) move.  All values are
immutable; every operation returns a fresh automaton.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .expressions import _valid_symbol

__all__ = [
    "Automaton",
    "FaMeasures",
    "NotDeterministicError",
    "UnknownSymbolError",
    "accepts",
    "remove_lambda",
    "subset_construction",
    "minimize",
    "equivalent",
    "distinguishing_word",
    "reverse",
    "is_bideterministic",
    "fa_measures",
    "to_dict",
    "to_json",
    "from_dict",
    "load",
    "save",
    "to_dot",
]

State = int | str
Label = str | None  # None is λ


class NotDeterministicError(ValueError):
    pass


class UnknownSymbolError(ValueError):
    pass


@dataclass(frozen=True)
class Automaton:
    states: frozenset[State]
    alphabet: frozenset[str]
    initial: State
    finals: frozenset[State]
    transitions: frozenset[tuple[State, Label, State]]

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not a state")
        if not self.finals <= self.states:
            raise ValueError("final states must be states")
        if "" in self.alphabet:
            raise ValueError('"" is not a symbol: the JSON format writes λ as ""')
        for p, a, q in self.transitions:
            if p not in self.states or q not in self.states:
                raise ValueError(f"transition ({p!r},{a!r},{q!r}) leaves the state set")
            if a is not None and a not in self.alphabet:
                raise ValueError(f"transition label {a!r} not in the alphabet")

    @staticmethod
    def make(
        states: Iterable[State],
        alphabet: Iterable[str],
        initial: State,
        finals: Iterable[State],
        transitions: Iterable[tuple[State, Label, State]],
    ) -> "Automaton":
        return Automaton(
            frozenset(states),
            frozenset(alphabet),
            initial,
            frozenset(finals),
            frozenset(map(tuple, transitions)),
        )

    # -- derived class flags ------------------------------------------------

    def is_lambda_free(self) -> bool:
        return all(a is not None for _, a, _ in self.transitions)

    def is_partial_dfa(self) -> bool:
        """λ-free and at most one successor per (state, symbol)."""
        if not self.is_lambda_free():
            return False
        seen = set()
        for p, a, _ in self.transitions:
            if (p, a) in seen:
                return False
            seen.add((p, a))
        return True

    def is_complete_dfa(self) -> bool:
        if not self.is_partial_dfa():
            return False
        seen = {(p, a) for p, a, _ in self.transitions}
        return len(seen) == len(self.states) * len(self.alphabet)


def _state_key(s):
    """Ints first, then strings, then anything else (the source and sink of
    state elimination), each group in its own order."""
    if isinstance(s, int):
        return (0, s, "")
    return (1 if isinstance(s, str) else 2, 0, str(s))


def _index(aut: Automaton) -> dict[State, dict[Label, list[State]]]:
    """Each state's targets by label, λ under ``None``; every state has a row."""
    index: dict[State, dict[Label, list[State]]] = {p: {} for p in aut.states}
    for p, a, q in aut.transitions:
        index[p].setdefault(a, []).append(q)
    return index


def _reach(step: Callable[[State], Iterable[State]], starts: Iterable[State]) -> set[State]:
    """The states reachable from `starts` (included) by repeated `step`."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for q in step(stack.pop()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _explore(start, moves: Callable, key: Callable | None = None) -> tuple[list, list[tuple]]:
    """The states reachable from `start` in the order a breadth-first search
    first reaches them, which numbers them 0, 1, ..., and the (i, label, j)
    triples between those numbers.  `moves(state)`, called once per state
    in number order, yields (label, successor) pairs in the order that
    numbers new successors.  States are told apart by `key(state)`, or by
    themselves when `key` is None."""
    states = [start]
    ids = {start if key is None else key(start): 0}
    triples = []
    for i, state in enumerate(states):
        for label, succ in moves(state):
            k = succ if key is None else key(succ)
            j = ids.get(k)
            if j is None:
                j = ids[k] = len(states)
                states.append(succ)
            triples.append((i, label, j))
    return states, triples


def _closure(index: dict, starts: Iterable[State]) -> set[State]:
    """The λ-closure of `starts` along an :func:`_index`."""
    return _reach(lambda p: index[p].get(None, ()), starts)


def accepts(aut: Automaton, word: Sequence[str]) -> bool:
    """Membership test; spontaneous moves are handled by λ-closure."""
    index = _index(aut)
    current = _closure(index, [aut.initial])
    for a in word:
        if a not in aut.alphabet:
            raise UnknownSymbolError(f"symbol {a!r} not in the alphabet")
        current = _closure(index, [q for p in current for q in index[p].get(a, ())])
    return bool(current & aut.finals)


def remove_lambda(aut: Automaton) -> Automaton:
    """Equivalent λ-free automaton on the same state set.

    A symbol transition is added wherever a λ-chain reaches one, and a state
    becomes final when its λ-closure meets a final state.
    """
    if aut.is_lambda_free():
        return aut
    index = _index(aut)
    closures = {p: _closure(index, [p]) for p in aut.states}
    transitions = {
        (p, a, t)
        for p in aut.states
        for q in closures[p]
        for a, targets in index[q].items()
        if a is not None
        for t in targets
    }
    finals = frozenset(p for p in aut.states if closures[p] & aut.finals)
    return Automaton(aut.states, aut.alphabet, aut.initial, finals, frozenset(transitions))


def _widen(aut: Automaton, alphabet: Iterable[str]) -> Automaton:
    return Automaton(
        aut.states, aut.alphabet | frozenset(alphabet), aut.initial, aut.finals, aut.transitions
    )


def subset_construction(aut: Automaton) -> Automaton:
    """Power-set determinization of a λ-free automaton.

    The result is a complete DFA over the same alphabet whose states are the
    reachable subsets only (the empty subset appears as the sink when some
    move is undefined), numbered by :func:`_explore` over sorted letters.
    """
    if not aut.is_lambda_free():
        raise ValueError("subset construction expects a λ-free automaton")
    index = _index(aut)
    letters = sorted(aut.alphabet)
    subsets, transitions = _explore(
        frozenset([aut.initial]),
        lambda subset: [(a, frozenset(q for p in subset for q in index[p].get(a, ()))) for a in letters],
    )
    finals = [i for i, subset in enumerate(subsets) if not subset.isdisjoint(aut.finals)]
    return Automaton.make(range(len(subsets)), aut.alphabet, 0, finals, transitions)


def _complete(aut: Automaton) -> Automaton:
    """Add a sink so every (state, symbol) pair has a successor."""
    defined = {(p, a) for p, a, _ in aut.transitions}
    missing = [(p, a) for p in aut.states for a in aut.alphabet if (p, a) not in defined]
    if not missing:
        return aut
    sink = _fresh_state(aut.states)
    transitions = set(aut.transitions)
    transitions.update((p, a, sink) for p, a in missing)
    transitions.update((sink, a, sink) for a in aut.alphabet)
    return Automaton(
        aut.states | {sink}, aut.alphabet, aut.initial, aut.finals, frozenset(transitions)
    )


def minimize(aut: Automaton, mode: str = "complete") -> Automaton:
    """Minimal DFA by partition refinement, canonically renumbered by
    :func:`_explore` over the classes, letters in sorted order.

    ``complete`` returns the unique minimal complete DFA.  ``partial``
    additionally deletes the dead state (no final reachable from it) unless
    that would remove the initial state.  Deterministic input required.
    """
    if mode not in ("complete", "partial"):
        raise ValueError(f"unknown mode {mode!r}")
    if not aut.is_partial_dfa():
        raise NotDeterministicError("minimize expects a deterministic automaton")
    aut = _complete(aut)
    letters = sorted(aut.alphabet)
    index = _index(aut)
    succ = {p: [row[a][0] for a in letters] for p, row in index.items()}  # one target per letter
    reachable = sorted(_reach(succ.__getitem__, [aut.initial]), key=_state_key)

    block: dict[State, int] = {p: int(p in aut.finals) for p in reachable}
    while True:
        renumber: dict[tuple, int] = {}  # signature -> its block, numbered in state order
        refined = {
            p: renumber.setdefault((block[p], tuple(block[q] for q in succ[p])), len(renumber))
            for p in reachable
        }
        stable = len(renumber) == len(set(block.values()))
        block = refined
        if stable:
            break

    member = {block[p]: p for p in reachable}  # one state of each class
    classes, transitions = _explore(
        block[aut.initial], lambda b: zip(letters, map(block.__getitem__, succ[member[b]]))
    )
    order = {b: i for i, b in enumerate(classes)}
    finals = frozenset(order[block[p]] for p in aut.finals if p in block)
    states = frozenset(range(len(classes)))
    if mode == "partial":
        # the dead state goes, with its transitions: the non-final class with
        # no arc to another class (a minimal DFA has at most one).  The initial
        # state survives even when dead, to keep the automaton well-formed
        dead = states - finals - {i for i, _, j in transitions if i != j}
        transitions = [t for t in transitions if t[0] not in dead and t[2] not in dead]
        states = (states - dead) | {0}
    return Automaton(states, aut.alphabet, 0, finals, frozenset(transitions))


def distinguishing_word(a: Automaton, b: Automaton) -> list[str] | None:
    """The shortlex-least word accepted by exactly one of the automata, or None.

    A breadth-first search over the product of the two subset automata,
    built as its pairs of subsets are reached: the letters of the union
    alphabet are tried in sorted order, so the first pair that disagrees on
    acceptance is reached by the least such word.  It keeps its own loop
    rather than :func:`_explore`'s, because it stops at that pair and walks
    parent links back to the start.
    """
    a, b = remove_lambda(a), remove_lambda(b)
    index_a, index_b = _index(a), _index(b)
    letters = sorted(a.alphabet | b.alphabet)
    start = (frozenset([a.initial]), frozenset([b.initial]))
    back: dict[tuple, tuple | None] = {start: None}  # the visited pairs, each with its parent
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        left, right = pair
        if left.isdisjoint(a.finals) != right.isdisjoint(b.finals):
            word = []
            while back[pair] is not None:
                pair, x = back[pair]  # type: ignore[misc]
                word.append(x)
            return word[::-1]
        for x in letters:
            nxt = (
                frozenset(q for p in left for q in index_a[p].get(x, ())),
                frozenset(q for p in right for q in index_b[p].get(x, ())),
            )
            if nxt not in back:
                back[nxt] = (pair, x)
                queue.append(nxt)
    return None


def equivalent(a: Automaton, b: Automaton) -> bool:
    """Language equality over the union alphabet."""
    return distinguishing_word(a, b) is None


def _fresh_state(states: frozenset[State]) -> State:
    if all(isinstance(s, int) for s in states):
        return max(states) + 1 if states else 0  # type: ignore[arg-type]
    name = "q"
    while name in states:
        name += "'"
    return name


def reverse(aut: Automaton) -> Automaton:
    """Transition-reversed automaton; initial and final roles swap.

    With several final states the reversal has no single entry point, so a
    fresh initial state is folded in through λ-moves.
    """
    flipped = {(q, a, p) for p, a, q in aut.transitions}
    if len(aut.finals) == 1:
        init = next(iter(aut.finals))
        states = aut.states
    else:
        init = _fresh_state(aut.states)
        states = aut.states | {init}
        flipped |= {(init, None, f) for f in aut.finals}
    return Automaton(states, aut.alphabet, init, frozenset([aut.initial]), frozenset(flipped))


def is_bideterministic(aut: Automaton) -> bool:
    """Partial DFA with a single final state whose reversal is again one."""
    if not aut.is_partial_dfa() or len(aut.finals) != 1:
        return False
    rev = reverse(aut)
    return rev.is_partial_dfa()


class FaMeasures(NamedTuple):
    """(states, transitions); the size convention is their sum."""

    states: int
    transitions: int

    @property
    def size(self) -> int:
        return self.states + self.transitions


def fa_measures(aut: Automaton) -> FaMeasures:
    return FaMeasures(len(aut.states), len(aut.transitions))


# ---------------------------------------------------------------------------
# Serialization: JSON ({"states": ..}; label "" is λ) and DOT (λ drawn as ε)


def _sorted_triples(aut: Automaton) -> tuple[list, Callable | None]:
    """The (p, label, q) triples of `aut` in `_state_key` order, "" for λ, and
    the key that sorts its states so; None for int states (not bools), whose
    triples take a stable sort per field, last first: quicker than tuple compares."""
    triples = [(p, a or "", q) for p, a, q in aut.transitions]
    if set(map(type, aut.states)) == {int}:
        for field in (2, 1, 0):
            triples.sort(key=itemgetter(field))
        return triples, None
    key = {s: _state_key(s) for s in aut.states}.__getitem__  # once per state, not per transition
    triples.sort(key=lambda t: (key(t[0]), t[1], key(t[2])))
    return triples, key


def to_dict(aut: Automaton) -> dict:
    triples, key = _sorted_triples(aut)
    return {
        "states": sorted(aut.states, key=key),
        "alphabet": sorted(aut.alphabet),
        "initial": aut.initial,
        "finals": sorted(aut.finals, key=key),
        "transitions": list(map(list, triples)),
    }


# the JSON text of a state or symbol: strings and ints directly, any other
# scalar as json writes it; and a transition's, from the texts of its fields
_JSON_SCALAR = {str: encode_basestring_ascii, int: int.__repr__}
_JSON_TRIPLE = "[\n      %s,\n      %s,\n      %s\n    ]"


def _json_list(items: list[str]) -> str:
    """A field's list of already encoded items, laid out as ``indent=2`` does."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def to_json(aut: Automaton) -> str:
    """``json.dumps(to_dict(aut), indent=2)`` plus a newline, written without
    the pure-Python encoder that `json` falls back to when `indent` is set."""
    triples, key = _sorted_triples(aut)
    scalars = (*aut.states, *aut.alphabet, "")  # "" is the λ label
    text = {v: _JSON_SCALAR.get(type(v), json.dumps)(v) for v in scalars}
    fields = tuple(map(text.__getitem__, chain.from_iterable(triples)))
    return (
        '{\n  "states": ' + _json_list([text[s] for s in sorted(aut.states, key=key)])
        + ',\n  "alphabet": ' + _json_list([text[a] for a in sorted(aut.alphabet)])
        + ',\n  "initial": ' + text[aut.initial]
        + ',\n  "finals": ' + _json_list([text[s] for s in sorted(aut.finals, key=key)])
        + ',\n  "transitions": ' + _json_list([_JSON_TRIPLE] * len(triples)) % fields
        + "\n}\n"
    )


def _check_shape(data) -> None:
    """Raise a ValueError naming the field at fault unless `data` has the JSON shape."""
    if not isinstance(data, dict):
        raise ValueError(f"automaton must be a JSON object, not {type(data).__name__}")
    for name in ("states", "alphabet", "initial", "finals", "transitions"):
        if name not in data:
            raise ValueError(f"automaton field {name!r} is missing")
        if name != "initial" and not isinstance(data[name], list):
            raise ValueError(f"automaton field {name!r} must be a list")
    for name in ("states", "initial", "finals"):  # exact types: Python counts a JSON true as an int
        for s in data[name] if name != "initial" else [data[name]]:
            if type(s) is not int and type(s) is not str:
                raise ValueError(f"automaton field {name!r}: state {s!r} is not an int or a string")
    for a in data["alphabet"]:
        if not isinstance(a, str):
            raise ValueError(f"automaton field 'alphabet': symbol {a!r} is not a string")
    for t in data["transitions"]:
        if not (
            isinstance(t, list)
            and len(t) == 3
            and (type(t[0]) is int or type(t[0]) is str)
            and isinstance(t[1], str)
            and (type(t[2]) is int or type(t[2]) is str)
        ):
            raise ValueError(f"automaton field 'transitions': {t!r} is not a [state, label, state] triple")


def from_dict(data: dict) -> Automaton:
    """Inverse of :func:`to_dict`; malformed documents raise a ValueError."""
    _check_shape(data)
    return Automaton.make(
        data["states"],
        data["alphabet"],
        data["initial"],
        data["finals"],
        [(p, a if a != "" else None, q) for p, a, q in data["transitions"]],
    )


def save(aut: Automaton, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(aut))


def load(path) -> Automaton:
    """The automaton in a JSON file; its letters must be symbols, as `Sym` takes them."""
    with open(path, encoding="utf-8") as fh:
        aut = from_dict(json.load(fh))
    if not all(map(_valid_symbol, aut.alphabet)):
        raise ValueError(f"invalid symbol name {min(a for a in aut.alphabet if not _valid_symbol(a))!r}")
    return aut


def to_dot(aut: Automaton) -> str:
    def q(s) -> str:
        return '"%s"' % str(s).replace('"', '\\"')

    data = to_dict(aut)  # its order, and "" for λ
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start__ [shape=point label=""];']
    for s in data["states"]:
        shape = "doublecircle" if s in aut.finals else "circle"
        lines.append(f"  {q(s)} [shape={shape}];")
    lines.append(f"  __start__ -> {q(aut.initial)};")
    for p, a, t in data["transitions"]:
        lines.append(f"  {q(p)} -> {q(t)} [label={q(a or 'ε')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
