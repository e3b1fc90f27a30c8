"""Finite automata: one data model for λ-NFAs, NFAs and (partial) DFAs.

States are plain identifiers (ints or strings), transitions are labelled
triples, and a label of ``None`` is a spontaneous (λ) move.  All values are
immutable; every operation returns a fresh automaton.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, NamedTuple, Sequence

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
            frozenset((p, a, q) for p, a, q in transitions),
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


def _delta(aut: Automaton) -> dict[tuple[State, Label], set[State]]:
    d: dict[tuple[State, Label], set[State]] = {}
    for p, a, q in aut.transitions:
        d.setdefault((p, a), set()).add(q)
    return d


def _reach(successors: Mapping, starts: Iterable[State]) -> set[State]:
    """The states reachable from `starts` (included) along `successors`."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for q in successors.get(stack.pop(), ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _adjacency(arcs: Iterable[tuple[State, State]]) -> dict[State, list[State]]:
    """Successor lists of the (source, target) pairs."""
    succ: dict[State, list[State]] = {}
    for p, q in arcs:
        succ.setdefault(p, []).append(q)
    return succ


def accepts(aut: Automaton, word: Sequence[str]) -> bool:
    """Membership test; spontaneous moves are handled by λ-closure."""
    delta = _delta(aut)
    lam = _adjacency((p, q) for p, a, q in aut.transitions if a is None)
    current = _reach(lam, [aut.initial])
    for a in word:
        if a not in aut.alphabet:
            raise UnknownSymbolError(f"symbol {a!r} not in the alphabet")
        step = set()
        for p in current:
            step |= delta.get((p, a), set())
        current = _reach(lam, step)
    return bool(current & aut.finals)


def remove_lambda(aut: Automaton) -> Automaton:
    """Equivalent λ-free automaton on the same state set.

    A symbol transition is added wherever a λ-chain reaches one, and a state
    becomes final when its λ-closure meets a final state.
    """
    if aut.is_lambda_free():
        return aut
    lam = _adjacency((p, q) for p, a, q in aut.transitions if a is None)
    closures = {p: _reach(lam, [p]) for p in aut.states}
    sym_arcs: dict[State, list[tuple[str, State]]] = {p: [] for p in aut.states}
    for p, a, q in aut.transitions:
        if a is not None:
            sym_arcs[p].append((a, q))
    transitions = set()
    for p in aut.states:
        for q in closures[p]:
            for a, t in sym_arcs[q]:
                transitions.add((p, a, t))
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
    move is undefined).  Subsets are renamed 0,1,2,... in discovery order.
    """
    if not aut.is_lambda_free():
        raise ValueError("subset construction expects a λ-free automaton")
    delta = _delta(aut)
    letters = sorted(aut.alphabet)
    start = frozenset([aut.initial])
    ids: dict[frozenset, int] = {start: 0}
    queue = deque([start])
    transitions = []
    while queue:
        subset = queue.popleft()
        for a in letters:
            target = set()
            for p in subset:
                target |= delta.get((p, a), set())
            target = frozenset(target)
            if target not in ids:
                ids[target] = len(ids)
                queue.append(target)
            transitions.append((ids[subset], a, ids[target]))
    finals = frozenset(i for subset, i in ids.items() if subset & aut.finals)
    return Automaton.make(range(len(ids)), aut.alphabet, 0, finals, transitions)


def _complete(aut: Automaton) -> Automaton:
    """Add a sink so every (state, symbol) pair has a successor."""
    defined = {(p, a) for p, a, _ in aut.transitions}
    missing = [(p, a) for p in aut.states for a in aut.alphabet if (p, a) not in defined]
    if not missing:
        return aut
    sink: State = 0
    if all(isinstance(s, int) for s in aut.states):
        sink = max(aut.states) + 1  # type: ignore[arg-type]
    else:
        sink = "sink"
        while sink in aut.states:
            sink += "_"
    transitions = set(aut.transitions)
    transitions.update((p, a, sink) for p, a in missing)
    transitions.update((sink, a, sink) for a in aut.alphabet)
    return Automaton(
        aut.states | {sink}, aut.alphabet, aut.initial, aut.finals, frozenset(transitions)
    )


def _reachable(aut: Automaton) -> frozenset[State]:
    return frozenset(_reach(_adjacency((p, q) for p, _, q in aut.transitions), [aut.initial]))


def _restrict(aut: Automaton, keep: frozenset[State]) -> Automaton:
    return Automaton(
        keep,
        aut.alphabet,
        aut.initial,
        aut.finals & keep,
        frozenset((p, a, q) for p, a, q in aut.transitions if p in keep and q in keep),
    )


def minimize(aut: Automaton, mode: str = "complete") -> Automaton:
    """Minimal DFA by partition refinement, canonically renumbered.

    ``complete`` returns the unique minimal complete DFA.  ``partial``
    additionally deletes the dead state (no final reachable from it) unless
    that would remove the initial state.  Deterministic input required.
    """
    if mode not in ("complete", "partial"):
        raise ValueError(f"unknown mode {mode!r}")
    if not aut.is_partial_dfa():
        raise NotDeterministicError("minimize expects a deterministic automaton")
    aut = _complete(aut)
    aut = _restrict(aut, _reachable(aut))
    letters = sorted(aut.alphabet)
    succ = {(p, a): q for p, a, q in aut.transitions}

    block: dict[State, int] = {p: (1 if p in aut.finals else 0) for p in aut.states}
    if not aut.finals:
        block = {p: 0 for p in aut.states}
    while True:
        signatures = {p: (block[p], tuple(block[succ[(p, a)]] for a in letters)) for p in aut.states}
        renumber: dict[tuple, int] = {}
        for p in sorted(aut.states, key=_state_key):
            renumber.setdefault(signatures[p], len(renumber))
        new_block = {p: renumber[signatures[p]] for p in aut.states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    # canonical renumbering: BFS over classes from the initial class
    class_succ = {(block[p], a): block[succ[(p, a)]] for p in aut.states for a in letters}
    order: dict[int, int] = {block[aut.initial]: 0}
    queue = deque([block[aut.initial]])
    while queue:
        b = queue.popleft()
        for a in letters:
            nb = class_succ[(b, a)]
            if nb not in order:
                order[nb] = len(order)
                queue.append(nb)
    states = frozenset(order.values())
    transitions = frozenset(
        (order[b], a, order[class_succ[(b, a)]]) for b in order for a in letters
    )
    finals = frozenset(order[block[p]] for p in aut.finals)
    result = Automaton(states, aut.alphabet, 0, finals, transitions)
    if mode == "complete":
        return result

    # partial: delete the dead state and its transitions (the initial state
    # itself survives even when dead, to keep the automaton well-formed)
    co = _reach(_adjacency((q, p) for p, _, q in result.transitions), result.finals)
    return Automaton(
        frozenset(co) | {result.initial},
        result.alphabet,
        result.initial,
        result.finals,
        frozenset((p, a, q) for p, a, q in result.transitions if p in co and q in co),
    )


def _canonical(aut: Automaton, alphabet: frozenset[str]) -> Automaton:
    return minimize(subset_construction(_widen(remove_lambda(aut), alphabet)), "complete")


def equivalent(a: Automaton, b: Automaton) -> bool:
    """Language equality, decided over the union alphabet.

    Both automata are determinized and minimized; the canonical renumbering
    in :func:`minimize` makes isomorphism a plain equality test.
    """
    sigma = a.alphabet | b.alphabet
    return _canonical(a, sigma) == _canonical(b, sigma)


def distinguishing_word(a: Automaton, b: Automaton) -> list[str] | None:
    """A shortest word accepted by exactly one of the automata, or None."""
    sigma = a.alphabet | b.alphabet
    da = _canonical(a, sigma)
    db = _canonical(b, sigma)
    sa = {(p, x): q for p, x, q in da.transitions}
    sb = {(p, x): q for p, x, q in db.transitions}
    start = (da.initial, db.initial)
    back: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        p, q = pair
        if (p in da.finals) != (q in db.finals):
            word = []
            while back[pair] is not None:
                pair, a_ = back[pair]  # type: ignore[misc]
                word.append(a_)
            return list(reversed(word))
        for x in sorted(sigma):
            nxt = (sa[(p, x)], sb[(q, x)])
            if nxt not in back:
                back[nxt] = (pair, x)
                queue.append(nxt)
    return None


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


def to_dict(aut: Automaton) -> dict:
    key = {s: _state_key(s) for s in aut.states}  # once per state, not per transition
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


# the JSON text of a state or symbol: strings and ints directly, any other
# scalar as json writes it
_JSON_SCALAR = {str: encode_basestring_ascii, int: int.__repr__}


def _json_list(items: list[str]) -> str:
    """A field's list of already encoded items, laid out as ``indent=2`` does."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def to_json(aut: Automaton) -> str:
    """``json.dumps(to_dict(aut), indent=2)`` plus a newline, written without
    the pure-Python encoder that `json` falls back to when `indent` is set."""
    data = to_dict(aut)
    scalars = (*aut.states, *aut.alphabet, "")  # "" is the λ label
    text = {v: _JSON_SCALAR.get(type(v), json.dumps)(v) for v in scalars}
    transitions = [
        f"[\n      {text[p]},\n      {text[a]},\n      {text[q]}\n    ]"
        for p, a, q in data["transitions"]
    ]
    return (
        '{\n  "states": ' + _json_list([text[s] for s in data["states"]])
        + ',\n  "alphabet": ' + _json_list([text[a] for a in data["alphabet"]])
        + ',\n  "initial": ' + text[data["initial"]]
        + ',\n  "finals": ' + _json_list([text[s] for s in data["finals"]])
        + ',\n  "transitions": ' + _json_list(transitions)
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
    for name in ("states", "initial", "finals"):
        for s in data[name] if name != "initial" else [data[name]]:
            if not isinstance(s, (int, str)):
                raise ValueError(f"automaton field {name!r}: state {s!r} is not an int or a string")
    for a in data["alphabet"]:
        if not isinstance(a, str):
            raise ValueError(f"automaton field 'alphabet': symbol {a!r} is not a string")
    for t in data["transitions"]:
        if not (
            isinstance(t, list)
            and len(t) == 3
            and isinstance(t[0], (int, str))
            and isinstance(t[1], str)
            and isinstance(t[2], (int, str))
        ):
            raise ValueError(
                f"automaton field 'transitions': {t!r} is not a [state, label, state] triple"
            )


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
    with open(path, encoding="utf-8") as fh:
        return from_dict(json.load(fh))


def to_dot(aut: Automaton) -> str:
    def q(s) -> str:
        return '"%s"' % str(s).replace('"', '\\"')

    lines = ["digraph automaton {", "  rankdir=LR;", '  __start__ [shape=point label=""];']
    for s in sorted(aut.states, key=_state_key):
        shape = "doublecircle" if s in aut.finals else "circle"
        lines.append(f"  {q(s)} [shape={shape}];")
    lines.append(f"  __start__ -> {q(aut.initial)};")
    for p, a, t in sorted(
        aut.transitions, key=lambda t: (_state_key(t[0]), t[1] or "", _state_key(t[2]))
    ):
        label = a if a is not None else "ε"
        lines.append(f"  {q(p)} -> {q(t)} [label={q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
