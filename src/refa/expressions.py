"""Regular expression ASTs, concrete syntax, size measures and normal forms.

The concrete syntax is ASCII-safe: `#` is the empty set, `&` the empty
word, `+` union, juxtaposition (or an explicit `·`) concatenation, and
postfix `*` / `?` iteration and option.  Symbols are a letter followed by
optional digits (`a`, `b2`, `a17`), so families over growing alphabets
remain writable without quoting.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
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
    "symbols_of",
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
    """

    __slots__ = ()

    _hash = None  # hash(node), equal to the dataclass hash of the fields
    _text = None  # render(node) in ASCII
    _nullable = None
    # elimination.simplify(node); True when the result is the node itself,
    # so that no node refers to itself
    _simple = None
    _canon = None  # elimination._canon_key(node)
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


def _valid_symbol(name: str) -> bool:
    if not name or not (name[0].isalpha() and name[0].isascii()):
        return False
    return name[1:] == "" or name[1:].isdigit()


class MeasureReport(NamedTuple):
    """Size measures of a single expression."""

    size: int
    rpn: int
    awidth: int
    height: int


# the atoms' measures are constants, kept on their classes
Empty._measures = Epsilon._measures = MeasureReport(1, 1, 0, 0)
Sym._measures = MeasureReport(1, 1, 1, 0)


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
    union; binary operators group to the left.  One loop reads an operand,
    its postfix operators and the `)` that close groups after it, then the
    operator that follows; each open `(` is a frame on an explicit stack
    (its offset, and the union and the concatenation before it), so nesting
    costs no stack frames.
    """
    n = len(text)
    i = _skip_spaces(text, 0)
    if i == n:
        raise RegexSyntaxError("empty expression", 0)
    frames: list[tuple[int, RegEx | None, RegEx | None]] = []
    union = term = None  # the current group's union and concatenation so far
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
        while j < len(text) and text[j].isdigit():
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
    return _render(r, unicode)


def _render(r: RegEx, unicode: bool = False) -> str:
    """render(r, unicode); the ASCII text of a compound node is kept on it."""
    if isinstance(r, Sym):
        return r.name
    if not unicode and r._text is not None:
        return r._text
    # plain loops: a comprehension would add a stack frame per nesting level
    if isinstance(r, Union):
        parts = []
        for branch in _operands(r, Union):
            parts.append(_render(branch, unicode))
        text = "+".join(parts)
    elif isinstance(r, Concat):
        parts = []
        for factor in _operands(r, Concat):
            part = _render(factor, unicode)
            parts.append("(" + part + ")" if isinstance(factor, Union) else part)
        text = "".join(parts)
    elif isinstance(r, (Star, Option)):
        text = _render(r.inner, unicode)
        if isinstance(r.inner, (Union, Concat)):
            text = "(" + text + ")"
        text += "*" if isinstance(r, Star) else "?"
    elif isinstance(r, Empty):
        return "∅" if unicode else "#"
    elif isinstance(r, Epsilon):
        return "λ" if unicode else "&"
    else:
        raise TypeError(f"not a RegEx: {r!r}")
    if not unicode:
        _set(r, "_text", text)
    return text


def _union_of(parts: list[RegEx], like: RegEx | None = None) -> RegEx:
    """The left-associated union of `parts`; `like` itself when it is that
    very union already, so that unchanged nodes keep their stored values."""
    node = like
    for part in reversed(parts[1:]):
        if not (isinstance(node, Union) and node.right is part):
            break
        node = node.left
    else:
        if node is parts[0]:
            return like
    out = parts[0]
    for part in parts[1:]:
        out = Union(out, part)
    return out


# ---------------------------------------------------------------------------
# Measures


def measures(r: RegEx) -> MeasureReport:
    """Size (fully bracketed symbol count), rpn, alphabetic width, star height.

    The size convention charges atoms 1, binary nodes 3 (operator plus the
    surrounding parentheses, with concatenation written `·`), and unary
    nodes 3.  Option is transparent for star height.  The report of a
    compound node is kept on it; the walk runs on an explicit stack, so
    depth costs no stack frames.
    """
    stack = [r]
    while r._measures is None:
        node = stack[-1]
        if isinstance(node, (Union, Concat)):
            a, b = node.left._measures, node.right._measures
            if a is None or b is None:
                stack += [kid for kid in (node.left, node.right) if kid._measures is None]
                continue
            report = MeasureReport(
                a.size + b.size + 3,
                a.rpn + b.rpn + 1,
                a.awidth + b.awidth,
                max(a.height, b.height),
            )
        else:
            inner = node.inner._measures
            if inner is None:
                stack.append(node.inner)
                continue
            bump = 1 if isinstance(node, Star) else 0
            report = MeasureReport(inner.size + 3, inner.rpn + 1, inner.awidth, inner.height + bump)
        _set(node, "_measures", report)
        stack.pop()
    return r._measures


def nullable(r: RegEx) -> bool:
    """True iff the empty word belongs to the denoted language."""
    if isinstance(r, (Star, Option, Epsilon)):
        return True
    if not isinstance(r, (Union, Concat)):
        return False
    value = r._nullable
    if value is None:
        if isinstance(r, Union):
            value = nullable(r.left) or nullable(r.right)
        else:
            value = nullable(r.left) and nullable(r.right)
        _set(r, "_nullable", value)
    return value


def _leaves(r: RegEx) -> list[Sym]:
    """The symbol leaves of r, left to right, found on an explicit stack."""
    out: list[Sym] = []
    stack = [r]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.append(node)
        elif isinstance(node, (Union, Concat)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Star, Option)):
            stack.append(node.inner)
    return out


def symbols_of(r: RegEx) -> frozenset[str]:
    """All symbol names occurring in the expression."""
    return frozenset(leaf.name for leaf in _leaves(r))


# ---------------------------------------------------------------------------
# Marking


def _rewrite_symbols(r: RegEx, leaf) -> RegEx:
    """A copy of r with each symbol leaf replaced by `leaf(sym)`, called on
    the leaves left to right.  The walk runs on an explicit stack, so depth
    costs no stack frames; a node class on the stack means "rebuild one of
    these from the last copies built"."""
    built: list[RegEx] = []
    stack: list = [r]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is type:
            if node is Union or node is Concat:
                right = built.pop()
                built[-1] = node(built[-1], right)
            else:
                built[-1] = node(built[-1])
        elif cls is Union or cls is Concat:
            stack += (cls, node.right, node.left)
        elif cls is Star or cls is Option:
            stack += (cls, node.inner)
        else:
            built.append(leaf(node) if cls is Sym else node)
    return built[0]


def mark(r: RegEx) -> MarkedRegEx:
    """Attach position indices 1..awidth to the symbol leaves, left to right."""
    positions = itertools.count(1)
    return MarkedRegEx(_rewrite_symbols(r, lambda s: Sym(s.name, next(positions))), r)


def unmark(m: MarkedRegEx) -> RegEx:
    """Erase position indices; inverse of :func:`mark`."""
    return _rewrite_symbols(m.tree, lambda s: Sym(s.name))


# ---------------------------------------------------------------------------
# Strong star normal form


def _purge_units(r: RegEx) -> RegEx:
    """Remove ∅ and λ from inside non-atomic expressions.

    ``s+λ`` and ``λ+s`` become ``s?`` on the way.  The result is either an
    atomic ∅ / λ or an expression containing neither.
    """
    if isinstance(r, (Empty, Epsilon, Sym)):
        return r
    if isinstance(r, Union):
        left = _purge_units(r.left)
        right = _purge_units(r.right)
        if isinstance(left, Empty):
            return right
        if isinstance(right, Empty):
            return left
        if isinstance(left, Epsilon) and isinstance(right, Epsilon):
            return EPSILON
        if isinstance(left, Epsilon):
            return Option(right)
        if isinstance(right, Epsilon):
            return Option(left)
        return Union(left, right)
    if isinstance(r, Concat):
        left = _purge_units(r.left)
        right = _purge_units(r.right)
        if isinstance(left, Empty) or isinstance(right, Empty):
            return EMPTY
        if isinstance(left, Epsilon):
            return right
        if isinstance(right, Epsilon):
            return left
        return Concat(left, right)
    inner = _purge_units(r.inner)
    if isinstance(inner, (Empty, Epsilon)):
        return EPSILON
    return Star(inner) if isinstance(r, Star) else Option(inner)


def _circ(r: RegEx) -> RegEx:
    if isinstance(r, Sym):
        return r
    if isinstance(r, (Empty, Epsilon)):
        return r
    if isinstance(r, Union):
        return Union(_circ(r.left), _circ(r.right))
    if isinstance(r, (Star, Option)):
        return _circ(r.inner)
    # concatenation splits into a union exactly when it is nullable
    if nullable(r):
        return Union(_circ(r.left), _circ(r.right))
    return r


def _bullet(r: RegEx) -> RegEx:
    if isinstance(r, (Sym, Empty, Epsilon)):
        return r
    if isinstance(r, Union):
        return Union(_bullet(r.left), _bullet(r.right))
    if isinstance(r, Concat):
        return Concat(_bullet(r.left), _bullet(r.right))
    if isinstance(r, Star):
        return Star(_circ(_bullet(r.inner)))
    if nullable(r.inner):
        return _bullet(r.inner)
    return Option(_bullet(r.inner))


def ssnf(r: RegEx) -> RegEx:
    """Strong star normal form: language-preserving, never larger, idempotent."""
    return _bullet(_purge_units(r))


# ---------------------------------------------------------------------------
# Random generation


def random_expr(
    awidth: int,
    alphabet: list[str],
    seed: int,
    unary_cap: int = 2,
) -> RegEx:
    """Uniform random syntax tree with exactly `awidth` symbol occurrences.

    At every node the production is drawn uniformly among those applicable;
    chains of consecutive unary operators are capped at `unary_cap` so that
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

    def gen(w: int, unary_left: int) -> RegEx:
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
        left = gen(k, unary_cap)
        right = gen(w - k, unary_cap)
        return join(Union if p == "union" else Concat, left, right)

    return gen(awidth, unary_cap)
