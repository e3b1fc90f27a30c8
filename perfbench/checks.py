"""Checks of CLI outputs against the independent oracle, and result sizes.

A check returns None when an output is right and a one-line reason when
it is not.  Checks run after the timed passes, on the outputs of the first
pass; later passes must reproduce those outputs byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import oracle


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    exc: str | None  # exception type that escaped the CLI, if any
    file_text: str | None = None  # content of the case's -o file


def no_size(o: Outcome) -> int:
    return 0


def _automaton_json(o: Outcome) -> dict:
    return json.loads(o.file_text if o.file_text is not None else o.stdout)


def automaton_size(o: Outcome) -> int:
    data = _automaton_json(o)
    return len(data["states"]) + len(data["transitions"])


def measure_size(o: Outcome) -> int:
    return int(re.search(r"^awidth: (\d+)$", o.stdout, re.M).group(1))


def expression_size(o: Outcome) -> int:
    nodes = oracle.Nodes()
    return oracle.measures(nodes, oracle.parse(o.stdout.strip(), nodes))["awidth"]


def rank_size(o: Outcome) -> int:
    return int(o.stdout.splitlines()[0].rsplit(":", 1)[1])


def expect_text(o: Outcome, text: str) -> str | None:
    return None if o.stdout == text else f"expected {text!r}, got {o.stdout[:80]!r}"


def one_line_error(o: Outcome) -> str | None:
    lines = o.stderr.splitlines()
    if o.stdout or len(lines) != 1 or not lines[0].strip():
        return f"expected one error line and no output, got {o.stderr[:80]!r}"
    return None


def _lang_bound(letters) -> int:
    return oracle.word_bound(len(letters))


class Oracle:
    """Checks by kind of case; caches parsed expressions and exact cycle
    ranks, which several cases of a pass share."""

    def __init__(self):
        self._expr: dict[str, tuple] = {}
        self._rank: dict[tuple, int | None] = {}

    def expression(self, text: str) -> tuple[oracle.Nodes, int, dict, set]:
        if text not in self._expr:
            nodes = oracle.Nodes()
            root = oracle.parse(text, nodes)
            self._expr[text] = (nodes, root, oracle.measures(nodes, root), oracle.symbols(nodes, root))
        return self._expr[text]

    def _same_language(self, text: str, nfa: oracle.Nfa, letters) -> str | None:
        nodes, root, _, _ = self.expression(text)
        letters = sorted(letters)
        bound = _lang_bound(letters)
        want = oracle.language(nodes, root, bound)
        got = nfa.language(bound, letters)
        if want != got:
            diff = sorted(want ^ got, key=len)[0]
            return f"languages differ on {''.join(diff) or '&'!r} (length <= {bound})"
        return None

    def convert(self, o: Outcome, text: str, route: str, expect: dict | None = None) -> str | None:
        data = _automaton_json(o)
        nfa = oracle.Nfa(data)
        _, _, report, letters = self.expression(text)
        if set(data["alphabet"]) != letters:
            return f"alphabet {data['alphabet']} is not the expression's {sorted(letters)}"
        if route != "of" and not nfa.is_lambda_free():
            return f"{route} automaton has λ-transitions"
        if route == "bdfa" and not nfa.is_complete_dfa():
            return "bdfa automaton is not a complete DFA"
        if route == "pos" and len(data["states"]) != report["awidth"] + 1:
            return f"pos has {len(data['states'])} states, awidth+1 is {report['awidth'] + 1}"
        for key, value in (expect or {}).items():
            if len(data[key]) != value:
                return f"{route} has {len(data[key])} {key}, closed form says {value}"
        return self._same_language(text, nfa, letters)

    def measure(self, o: Outcome, text: str) -> str | None:
        _, _, report, _ = self.expression(text)
        want = "".join(f"{k}: {report[k]}\n" for k in ("size", "rpn", "awidth", "height"))
        return expect_text(o, want)

    def equiv(self, o: Outcome, left: dict, right: dict, same: bool | None) -> str | None:
        a, b = oracle.Nfa(left), oracle.Nfa(right)
        if o.stdout == "equivalent\n":
            if same is False:
                return "reported equivalent, pair differs by construction"
            letters = sorted(set(a.alphabet) | set(b.alphabet))
            bound = _lang_bound(letters)
            if a.language(bound, letters) != b.language(bound, letters):
                return f"reported equivalent, languages differ below length {bound + 1}"
            return None
        m = re.fullmatch(r"inequivalent: (\S+)\n", o.stdout)
        if m is None:
            return f"unexpected output {o.stdout[:80]!r}"
        if same is True:
            return "reported inequivalent, pair is equal by construction"
        word = oracle.tokenize_word(m.group(1))
        if a.accepts(word) == b.accepts(word):
            return f"witness {m.group(1)!r} does not separate the automata"
        return None

    def toregex(self, o: Outcome, data: dict) -> str | None:
        lines = o.stdout.splitlines()
        if len(lines) != 1:
            return f"expected one line, got {len(lines)}"
        nfa = oracle.Nfa(data)
        _, _, _, letters = self.expression(lines[0])
        if not letters <= set(nfa.alphabet):
            return f"expression uses letters outside {nfa.alphabet}"
        return self._same_language(lines[0], nfa, nfa.alphabet)

    def follow_of(self, o: Outcome, data: dict) -> str | None:
        """Round trip: the follow automaton of a printed expression keeps
        the language of the automaton the expression came from."""
        out = oracle.Nfa(_automaton_json(o))
        if not out.is_lambda_free():
            return "follow automaton has λ-transitions"
        src = oracle.Nfa(data)
        letters = sorted(set(src.alphabet) | set(out.alphabet))
        bound = _lang_bound(letters)
        if out.language(bound, letters) != src.language(bound, letters):
            return f"round trip changed the language below length {bound + 1}"
        return None

    def exact_rank(self, data: dict) -> int | None:
        key = (tuple(map(oracle._key, data["states"])), tuple(map(tuple, data["transitions"])))
        if key not in self._rank:
            nfa = oracle.Nfa(data)
            try:
                self._rank[key] = oracle.cycle_rank(nfa.states, [(p, q) for p, _, q in nfa.arcs], 50_000)
            except oracle.TooLarge:
                self._rank[key] = None
        return self._rank[key]

    def rank(self, o: Outcome, data: dict, budget: int, text: str | None, closed: int | None) -> str | None:
        lines = o.stdout.splitlines()
        if len(lines) != 2:
            return f"expected two lines, got {o.stdout[:80]!r}"
        nfa = oracle.Nfa(data)
        n = len(nfa.states)
        exact = self.exact_rank(data)
        cyclic = oracle.is_cyclic(nfa.states, [(p, q) for p, _, q in nfa.arcs])
        m = re.fullmatch(r"cycle rank( upper bound)?: (\d+)", lines[0])
        if m is None:
            return f"bad first line {lines[0]!r}"
        value = int(m.group(2))
        if bool(m.group(1)) != (n > budget):
            return f"{n} states against budget {budget}, got {lines[0]!r}"
        if m.group(1):
            if value < (exact if exact is not None else int(cyclic)) or value > n:
                return f"upper bound {value} is not within [rank, {n}]"
        elif exact is not None and value != exact:
            return f"cycle rank {value}, oracle says {exact}"
        elif closed is not None and value != closed:
            return f"cycle rank {value}, closed form says {closed}"
        elif exact is None and (value == 0) == cyclic:
            return f"cycle rank {value} disagrees with cyclicity {cyclic}"
        if text is not None and not m.group(1):
            # construct_of adds one loop per star, nested as the stars are
            height = self.expression(text)[2]["height"]
            if value > height:
                return f"cycle rank {value} exceeds star height {height} of {text!r}"
        bidet = nfa.is_bideterministic() and nfa.is_trim()
        if lines[1] == "star height: undetermined (not bideterministic)":
            return "bideterministic input reported as not bideterministic" if bidet else None
        if lines[1] == "star height: not computed (exact cycle rank over budget)":
            return None if n > budget else f"{n} states are within budget {budget}"
        m = re.fullmatch(r"star height: (\d+)", lines[1])
        if m is None:
            return f"bad second line {lines[1]!r}"
        height = int(m.group(1))
        if bidet and exact is not None and height != exact:
            return f"star height {height} of a bideterministic automaton, cycle rank {exact}"
        if height > (exact if exact is not None else value):
            return f"star height {height} exceeds the cycle rank"
        return None
