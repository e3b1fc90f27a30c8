"""Regular expression ASTs, concrete syntax, size measures and normal forms.

The concrete syntax is ASCII-safe: `#` is the empty set, `&` the empty
word, `+` union, juxtaposition (or an explicit `·`) concatenation, and
postfix `*` / `?` iteration and option.  Symbols are a letter followed by
optional digits (`a`, `b2`, `a17`), so families over growing alphabets
remain writable without quoting.

Every walk over a whole expression is a loop over `_postorder`, one
generator on an explicit stack, or `_read`, the one reader of the text,
which keeps its open groups on a stack too; so no walk is limited by the
recursion depth.  A consumer's node rules (`measures`, each automaton
construction, the term tables, marking) are makers called kids first: on
a text by `_read`, with no tree in between, and on a tree by `_fold`, so
each rule is written once.  Without a memo `_fold` calls them on each
occurrence of a node (marking, building an automaton); with one it calls
them once on each distinct node of a shared expression (the term
tables), as a walk that stores a value on each node does (`measures`,
`nullable`, rendering).  The term tables set a union's or concatenation's
nullability from its kids' when they make it, so none of their terms needs
the `nullable` walk.  The walks on one term at a time (the linear
forms and derivatives) recurse: they are memoised and hot, and on them
CPython's recursion is cheaper than any explicit stack.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

__all__ = [
    "RegEx",
    "Empty",
    "Epsilon",
    "Sym",
    "Union",
    "Concat",
    "Star",
    "Option",
    "EMPTY",
    "EPSILON",
    "MarkedRegEx",
    "MeasureReport",
    "RegexSyntaxError",
    "parse",
    "render",
    "tokenize_word",
    "measures",
    "nullable",
    "mark",
    "unmark",
    "ssnf",
    "random_expr",
]


class RegEx:
    """Base class of all regular expression nodes.

    Nodes are immutable, so values that depend on a node's structure alone
    are computed once and kept on the node, as the attributes below whose
    class default None means "not computed yet".  They die with the node,
    and stay out of ``==``, ``repr``, the dataclass fields, copies and pickles.
    What one run of an algorithm finds about a node, such as its simplified
    form or its derivatives, stays in that run's term table instead.  A term
    table sets `_nullable` on each node it makes, from its kids' values.
    """

    __slots__ = ()

    _hash = None  # hash(node), equal to the dataclass hash of the fields
    _text = None  # render(node) in ASCII
    _nullable = None
    _measures = None  # measures(node); a constant on the atoms' classes

    def __str__(self) -> str:
        return render(self)

    def __getstate__(self):
        # str hashes differ between processes, so a pickled hash would be stale
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


_set = object.__setattr__  # stores a derived value on a frozen node


def _pair_hash(self) -> int:
    h = self._hash
    if h is None:
        h = hash((self.left, self.right))
        _set(self, "_hash", h)
    return h


def _unary_hash(self) -> int:
    h = self._hash
    if h is None:
        h = hash((self.inner,))
        _set(self, "_hash", h)
    return h


@dataclass(frozen=True)
class Empty(RegEx):
    pass


@dataclass(frozen=True)
class Epsilon(RegEx):
    pass


@dataclass(frozen=True)
class Sym(RegEx):
    name: str
    pos: int | None = None  # position index, set on marked expressions only

    def __post_init__(self):
        if not _valid_symbol(self.name):
            raise ValueError(f"invalid symbol name {self.name!r}")


@dataclass(frozen=True)
class Union(RegEx):
    left: RegEx
    right: RegEx

    __hash__ = _pair_hash


@dataclass(frozen=True)
class Concat(RegEx):
    left: RegEx
    right: RegEx

    __hash__ = _pair_hash


@dataclass(frozen=True)
class Star(RegEx):
    inner: RegEx

    __hash__ = _unary_hash


@dataclass(frozen=True)
class Option(RegEx):
    inner: RegEx

    __hash__ = _unary_hash


EMPTY = Empty()
EPSILON = Epsilon()
_ATOMS = {"#": EMPTY, "&": EPSILON}  # the leaves that are no symbol, by their text


def _valid_symbol(name: str) -> bool:
    """Whether name is an ASCII letter and then ASCII digits only: `str.isdigit`
    alone also takes `²` and `١`."""
    return name.isascii() and name[:1].isalpha() and (len(name) == 1 or name[1:].isdigit())


class MeasureReport(NamedTuple):
    """Size measures of a single expression."""

    size: int
    rpn: int
    awidth: int
    height: int


# the values that do not depend on a node's kids are kept on its class
Empty._measures = Epsilon._measures = MeasureReport(1, 1, 0, 0)
Sym._measures = MeasureReport(1, 1, 1, 0)
Empty._text, Epsilon._text, Sym._text = "#", "&", property(attrgetter("name"))
Empty._nullable = Sym._nullable = False
Epsilon._nullable = Star._nullable = Option._nullable = True


@dataclass(frozen=True)
class MarkedRegEx:
    """An expression whose symbol leaves carry position indices 1..awidth."""

    tree: RegEx
    origin: RegEx


class RegexSyntaxError(ValueError):
    """Raised on malformed concrete syntax; carries the offending offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_UP = object()  # on the walk's stack: the node below it has had its kids


def _postorder(r: RegEx, known=None, kids=None):
    """The nodes of r, each after its kids, left kid first, from an explicit
    stack.  With `known`, a node for which ``known(node)`` is not None is
    skipped with everything below it; a caller that stores a value on each
    node it is given thus gets each distinct node once.  `kids(node)` gives
    the kids of a union or concatenation, by default its two fields."""
    stack = [r]
    while stack:
        node = stack.pop()
        if node is _UP:
            yield stack.pop()
        elif known is None or known(node) is None:
            cls = type(node)
            if cls is Union or cls is Concat:
                stack += (node, _UP, *reversed(kids(node))) if kids else (node, _UP, node.right, node.left)
            elif cls is Star or cls is Option:
                stack += (node, _UP, node.inner)
            else:
                yield node


# ---------------------------------------------------------------------------
# Parsing and rendering
#
# expr   := term ('+' term)*
# term   := factor+
# factor := base ('*' | '?')*
# base   := '(' expr ')' | '#' | '&' | SYMBOL
# SYMBOL := [A-Za-z][0-9]*


def parse(text: str) -> RegEx:
    """Parse concrete syntax into an AST.

    Star/option bind tighter than concatenation, which binds tighter than
    union; binary operators group to the left.  Each symbol name gets one
    `Sym` per parse, shared by its occurrences, which the tree walks still
    visit one by one.
    """
    return _read(text, Sym, Star, Option, Concat, Union, _ATOMS.copy())


def _read(text: str, leaf, star, option, concat, union, leaves: dict | None = None):
    """The one reader of the concrete syntax.  It calls the node makers on
    what it reads, kids first, left kid first (so in post-order), `leaf` on
    a symbol name, `#` or `&`, and returns the root's value.  `leaves`, when
    given, holds the leaves made so far by their text, `#` and `&` among
    them, so that a symbol's occurrences share one leaf.

    One loop reads an operand, its postfix operators and the `)` that close
    groups after it, then the operator that follows; each open `(` is a
    frame on an explicit stack (its offset, and the union and the
    concatenation before it), so nesting costs no stack frames.
    """
    n = len(text)
    i = _skip_spaces(text, 0)
    if i == n:
        raise RegexSyntaxError("empty expression", 0)
    frames: list[tuple] = []
    head = term = None  # the current group's union and concatenation so far
    while True:
        if i < n and text[i] == " ":
            i = _skip_spaces(text, i)
        c = text[i] if i < n else None
        if c == "(":
            frames.append((i, head, term))
            head = term = None
            i += 1
            continue
        if c == "#" or c == "&":
            node = leaf(c) if leaves is None else leaves[c]
            i += 1
        elif c is not None and c.isalpha() and c.isascii():
            start = i
            i += 1
            while i < n and "0" <= text[i] <= "9":
                i += 1
            name = text[start:i]
            node = leaf(name) if leaves is None else leaves.get(name) or leaves.setdefault(name, leaf(name))
        elif c is None:
            raise RegexSyntaxError("unexpected end of input", i)
        else:
            raise RegexSyntaxError(f"unexpected {c!r}", i)
        while True:
            if i < n and text[i] == " ":
                i = _skip_spaces(text, i)
            c = text[i] if i < n else None
            if c == "*":
                node = star(node)
            elif c == "?":
                node = option(node)
            elif c == ")" and frames:
                node = node if term is None else concat(term, node)
                node = node if head is None else union(head, node)
                _, head, term = frames.pop()
            else:
                break
            i += 1
        term = node if term is None else concat(term, node)
        if c == "+":
            head = term if head is None else union(head, term)
            term = None
            i += 1
        elif c == "·":
            i = _skip_spaces(text, i + 1)
            if i == n or text[i] in ")+*?·":
                raise RegexSyntaxError("dangling '·'", i)
        elif c is None or not (c == "(" or c == "#" or c == "&" or c.isalpha()):
            if frames:
                raise RegexSyntaxError(f"unbalanced '(' opened at offset {frames[-1][0]}", i)
            if c is not None:
                raise RegexSyntaxError(f"unexpected {c!r}", i)
            return term if head is None else union(head, term)


def _fold(r: RegEx, leaf, star, option, concat, union, memo: dict | None = None):
    """The node makers called on the tree r as `_read` calls them on its
    text, kids first, with `leaf` called on each leaf node.  Without `memo`
    they are called on every occurrence of a node; with it, on each
    distinct node once, its value kept in `memo` under its id and taken
    again wherever the node recurs, so a value must be safe to share."""
    done: list = []
    known = None
    if memo is not None:

        def known(node):
            # a node met before stands where its walk would have ended
            value = memo.get(id(node))
            if value is not None:
                done.append(value)
            return value

    for node in _postorder(r, known):
        cls = type(node)
        if cls is Union or cls is Concat:
            right = done.pop()
            value = (union if cls is Union else concat)(done.pop(), right)
        elif cls is Star or cls is Option:
            value = (star if cls is Star else option)(done.pop())
        else:
            value = leaf(node)
        done.append(value)
        if memo is not None:
            memo[id(node)] = value
    return done[0]


def _skip_spaces(text: str, i: int) -> int:
    while i < len(text) and text[i] == " ":
        i += 1
    return i


def tokenize_word(text: str) -> list[str]:
    """Split a word like ``a1a2b`` into its symbol names."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if not (c.isalpha() and c.isascii()):
            raise RegexSyntaxError(f"unexpected {c!r} in word", i)
        j = i + 1
        while j < len(text) and "0" <= text[j] <= "9":
            j += 1
        out.append(text[i:j])
        i = j
    return out


def _operands(r: RegEx, cls: type) -> list[RegEx]:
    """The maximal subterms of `r` that are not `cls` nodes, left to right;
    ``[r]`` when `r` is not a `cls` node itself."""
    out: list[RegEx] = []
    stack = [r]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def render(r: RegEx, unicode: bool = False) -> str:
    """Minimal-parenthesis text for an AST.

    With ``unicode=True`` the empty set and the empty word print as the
    usual glyphs instead of the `#` / `&` input lexemes.
    """
    if not isinstance(r, RegEx):
        raise TypeError(f"not a RegEx: {r!r}")
    text = _render(r)
    # no symbol name holds `#` or `&`
    return text.replace("#", "∅").replace("&", "λ") if unicode else text


def _render(r: RegEx) -> str:
    """render(r) in ASCII, kept on each node it is made for.  The kids of a
    union or concatenation chain are its operands, so that the chain's
    prefixes hold no text."""
    if r._text is None:
        operands: dict[int, list[RegEx]] = {}  # of the chains on the walk's stack

        def kids(chain: RegEx) -> list[RegEx]:
            operands[id(chain)] = parts = _operands(chain, type(chain))
            return parts

        for node in _postorder(r, attrgetter("_text"), kids):
            cls = type(node)
            if cls is Union:
                text = "+".join([branch._text for branch in operands.pop(id(node))])
            elif cls is Concat:
                parts = operands.pop(id(node))
                text = "".join(["(" + f._text + ")" if type(f) is Union else f._text for f in parts])
            elif cls is Star or cls is Option:
                inner = node.inner
                text = "(" + inner._text + ")" if isinstance(inner, (Union, Concat)) else inner._text
                text += "*" if cls is Star else "?"
            else:
                raise TypeError(f"not a RegEx: {node!r}")
            _set(node, "_text", text)
    return r._text


# ---------------------------------------------------------------------------
# Measures


def measures(r: RegEx | str) -> MeasureReport:
    """Size (fully bracketed symbol count), rpn, alphabetic width, star height.

    The size convention charges atoms 1, binary nodes 3 (operator plus the
    surrounding parentheses, with concatenation written `·`), and unary
    nodes 3.  Option is transparent for star height.  A text is read
    straight into the rules below; on a tree, the report of a compound node
    is kept on it.
    """
    if isinstance(r, str):
        leaves = {"#": Empty._measures, "&": Epsilon._measures}
        return _read(r, _symbol_measures, _star_measures, _option_measures, _pair_measures, _pair_measures, leaves)
    if r._measures is None:
        for node in _postorder(r, attrgetter("_measures")):
            cls = type(node)
            if cls is Union or cls is Concat:
                report = _pair_measures(node.left._measures, node.right._measures)
            else:
                report = (_star_measures if cls is Star else _option_measures)(node.inner._measures)
            _set(node, "_measures", report)
    return r._measures


def _symbol_measures(name: str) -> MeasureReport:
    return Sym._measures


def _pair_measures(a: MeasureReport, b: MeasureReport) -> MeasureReport:
    """The report of a union or concatenation of a and b."""
    return MeasureReport(a.size + b.size + 3, a.rpn + b.rpn + 1, a.awidth + b.awidth, max(a.height, b.height))


def _star_measures(a: MeasureReport) -> MeasureReport:
    return MeasureReport(a.size + 3, a.rpn + 1, a.awidth, a.height + 1)


def _option_measures(a: MeasureReport) -> MeasureReport:
    return MeasureReport(a.size + 3, a.rpn + 1, a.awidth, a.height)


def nullable(r: RegEx) -> bool:
    """True iff the empty word belongs to the denoted language; kept on
    each union and concatenation it is found for.  A term table sets it on
    each one it makes (`constructions._Terms.make`)."""
    if r._nullable is None:
        for node in _postorder(r, attrgetter("_nullable")):
            left, right = node.left._nullable, node.right._nullable
            _set(node, "_nullable", left or right if isinstance(node, Union) else left and right)
    return r._nullable


# ---------------------------------------------------------------------------
# Marking


def _rewrite_symbols(r: RegEx, leaf) -> RegEx:
    """A copy of r with each symbol leaf replaced by `leaf(name)`, called on
    the leaves left to right."""
    return _fold(r, lambda node: leaf(node.name) if type(node) is Sym else node, Star, Option, Concat, Union)


def mark(r: RegEx) -> MarkedRegEx:
    """Attach position indices 1..awidth to the symbol leaves, left to right."""
    positions = itertools.count(1)
    return MarkedRegEx(_rewrite_symbols(r, lambda name: Sym(name, next(positions))), r)


def unmark(m: MarkedRegEx) -> RegEx:
    """Erase position indices; inverse of :func:`mark`."""
    return _rewrite_symbols(m.tree, Sym)


# ---------------------------------------------------------------------------
# Strong star normal form


def ssnf(r: RegEx) -> RegEx:
    """Strong star normal form: language-preserving, never larger, idempotent.

    One walk (`_fold` through the makers below) applies the unit rules and
    builds r• (Brüggemann-Klein's star normal form step, with (F*)• =
    (F•°)*).  ∅ annihilates a concatenation and λ is its unit; ∅ is the unit
    of a union, whose ``s+λ`` and ``λ+s`` become ``s?``; ∅*, λ*, ∅? and λ?
    become λ.  A maker's value is the • of its node and beside it the ° of
    that •: F° drops the stars and options of F and splits a nullable
    concatenation into a union, keeping a non-nullable one whole.  A kid is
    a unit when its • is an atomic ∅ or λ, and is nullable when its • is."""

    def option(pair: tuple[RegEx, RegEx]) -> tuple[RegEx, RegEx]:
        b = pair[0]
        if isinstance(b, (Empty, Epsilon)):
            return EPSILON, EPSILON
        return pair if nullable(b) else (Option(b), pair[1])

    def star(pair: tuple[RegEx, RegEx]) -> tuple[RegEx, RegEx]:
        return (EPSILON, EPSILON) if isinstance(pair[0], (Empty, Epsilon)) else (Star(pair[1]), pair[1])

    def union(left: tuple[RegEx, RegEx], right: tuple[RegEx, RegEx]) -> tuple[RegEx, RegEx]:
        (b1, c1), (b2, c2) = left, right
        if isinstance(b1, Empty):
            return right
        if isinstance(b1, Epsilon) or isinstance(b2, Epsilon):
            return option(right if isinstance(b1, Epsilon) else left)
        if isinstance(b2, Empty):
            return left
        b = Union(b1, b2)
        return b, b if c1 is b1 and c2 is b2 else Union(c1, c2)

    def concat(left: tuple[RegEx, RegEx], right: tuple[RegEx, RegEx]) -> tuple[RegEx, RegEx]:
        (b1, c1), (b2, c2) = left, right
        if isinstance(b1, Empty) or isinstance(b2, Empty):
            return EMPTY, EMPTY
        if isinstance(b1, Epsilon) or isinstance(b2, Epsilon):
            return right if isinstance(b1, Epsilon) else left
        b = Concat(b1, b2)
        return b, Union(c1, c2) if nullable(b) else b

    return _fold(r, lambda node: (node, node), star, option, concat, union)[0]


# ---------------------------------------------------------------------------
# Random generation


def random_expr(awidth: int, alphabet: list[str], seed: int) -> RegEx:
    """Uniform random syntax tree with exactly `awidth` symbol occurrences.

    At every node the production is drawn uniformly among those applicable;
    chains of consecutive unary operators are capped at two so that
    degenerate star towers do not distort size averages.
    """
    if awidth < 1:
        raise ValueError("awidth must be >= 1")
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    for name in alphabet:
        if not _valid_symbol(name):
            raise ValueError(f"invalid symbol name {name!r}")
    rng = random.Random(seed)

    def join(cls, left: RegEx, right: RegEx) -> RegEx:
        # same-operator chains stay left-associated, as the parser builds
        # them, so that generated trees survive a render/parse round trip
        parts = _operands(left, cls) + _operands(right, cls)
        out = parts[0]
        for part in parts[1:]:
            out = cls(out, part)
        return out

    def gen(w: int, unary_left: int = 2) -> RegEx:
        if w == 1:
            prods = ["sym"]
        else:
            prods = ["union", "concat"]
        if unary_left > 0:
            prods += ["star", "option"]
        p = rng.choice(prods)
        if p == "sym":
            return Sym(rng.choice(alphabet))
        if p == "star":
            return Star(gen(w, unary_left - 1))
        if p == "option":
            return Option(gen(w, unary_left - 1))
        k = rng.randint(1, w - 1)
        left = gen(k)
        right = gen(w - k)
        return join(Union if p == "union" else Concat, left, right)

    return gen(awidth)
