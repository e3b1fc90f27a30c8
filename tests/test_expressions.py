import random

import pytest

from refa.expressions import (
    EMPTY,
    EPSILON,
    Concat,
    Option,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    mark,
    measures,
    nullable,
    parse,
    random_expr,
    render,
    ssnf,
    tokenize_word,
    unmark,
)
from refa.constructions import (
    construct_brzozowski,
    construct_follow,
    construct_of,
    construct_pd,
    construct_position,
)
from refa.automata import accepts, equivalent

from refa.families import buffer_regex

from conftest import corpus, lang, letters_of, reference_parse, reference_ssnf, scatter_units

# The message and offset of malformed inputs, recorded from the recursive
# descent parser that the one-loop parser replaced; they must not change.
SYNTAX_ERRORS = [
    ('', 'empty expression at offset 0', 0),
    ('   ', 'empty expression at offset 0', 0),
    ('(', 'unexpected end of input at offset 1', 1),
    ('((', 'unexpected end of input at offset 2', 2),
    ('(a', "unbalanced '(' opened at offset 0 at offset 2", 2),
    ('((a)', "unbalanced '(' opened at offset 0 at offset 4", 4),
    ('(((a)', "unbalanced '(' opened at offset 1 at offset 5", 5),
    ('( a', "unbalanced '(' opened at offset 0 at offset 3", 3),
    ('(a$', "unbalanced '(' opened at offset 0 at offset 2", 2),
    ('(a+b', "unbalanced '(' opened at offset 0 at offset 4", 4),
    ('a)', "unexpected ')' at offset 1", 1),
    ('(a))', "unexpected ')' at offset 3", 3),
    (')', "unexpected ')' at offset 0", 0),
    ('a)b', "unexpected ')' at offset 1", 1),
    ('()', "unexpected ')' at offset 1", 1),
    ('(a+)', "unexpected ')' at offset 3", 3),
    ('(+)', "unexpected '+' at offset 1", 1),
    ('+a', "unexpected '+' at offset 0", 0),
    ('a+', 'unexpected end of input at offset 2', 2),
    ('a+*', "unexpected '*' at offset 2", 2),
    ('  +', "unexpected '+' at offset 2", 2),
    ('*a', "unexpected '*' at offset 0", 0),
    ('?', "unexpected '?' at offset 0", 0),
    ('a**+', 'unexpected end of input at offset 4', 4),
    ('a·', "dangling '·' at offset 2", 2),
    ('a·)', "dangling '·' at offset 2", 2),
    ('a·*', "dangling '·' at offset 2", 2),
    ('a·+b', "dangling '·' at offset 2", 2),
    ('a··b', "dangling '·' at offset 2", 2),
    ('a·  ', "dangling '·' at offset 4", 4),
    ('·a', "unexpected '·' at offset 0", 0),
    ('(·a)', "unexpected '·' at offset 1", 1),
    ('a+·b', "unexpected '·' at offset 2", 2),
    ('1', "unexpected '1' at offset 0", 0),
    ('a 1', "unexpected '1' at offset 2", 2),
    ('a1b2$', "unexpected '$' at offset 4", 4),
    ('a|b', "unexpected '|' at offset 1", 1),
    ('\t', "unexpected '\\t' at offset 0", 0),
    ('a\n', "unexpected '\\n' at offset 1", 1),
    ('Ω', "unexpected 'Ω' at offset 0", 0),
    ('aΩ', "unexpected 'Ω' at offset 1", 1),
    ('a·Ω', "unexpected 'Ω' at offset 2", 2),
    ('ab(', 'unexpected end of input at offset 3', 3),
    ('ab(  ', 'unexpected end of input at offset 5', 5),
    ('a(b+)', "unexpected ')' at offset 4", 4),
    ('((a)(b', "unbalanced '(' opened at offset 4 at offset 6", 6),
    ('a*(b?(c+d)*', "unbalanced '(' opened at offset 2 at offset 11", 11),
    ('a+(b+(c', "unbalanced '(' opened at offset 5 at offset 7", 7),
    ('(a)b)c', "unexpected ')' at offset 4", 4),
    ('a?(', 'unexpected end of input at offset 3', 3),
    ('&#(', 'unexpected end of input at offset 3', 3),
    ('#+&·', "dangling '·' at offset 4", 4),
]


# every function that reads a text, each with its route name
TEXT_READERS = [parse, construct_of, construct_follow, construct_position, construct_pd, construct_brzozowski, measures]
TEXT_READER_IDS = ["parse", "of", "follow", "pos", "pd", "bdfa", "measures"]


def _positions(tree):
    """The position indices of the symbol leaves, left to right."""
    if isinstance(tree, Sym):
        return [tree.pos]
    if isinstance(tree, (Union, Concat)):
        return _positions(tree.left) + _positions(tree.right)
    if isinstance(tree, (Star, Option)):
        return _positions(tree.inner)
    return []


class TestParse:
    def test_star_of_concat(self):
        assert parse("(ab)*") == Star(Concat(Sym("a"), Sym("b")))

    def test_precedence(self):
        assert parse("a+b*") == Union(Sym("a"), Star(Sym("b")))

    def test_left_associative(self):
        assert parse("a+b+c") == Union(Union(Sym("a"), Sym("b")), Sym("c"))
        assert parse("abc") == Concat(Concat(Sym("a"), Sym("b")), Sym("c"))

    def test_unbalanced_paren(self):
        with pytest.raises(RegexSyntaxError) as err:
            parse("(a")
        assert err.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(RegexSyntaxError):
            parse("")

    def test_dangling_operator(self):
        with pytest.raises(RegexSyntaxError):
            parse("a+")
        with pytest.raises(RegexSyntaxError):
            parse("*a")

    def test_lexemes(self):
        assert parse("#") == EMPTY
        assert parse("&") == EPSILON
        assert parse("a?") == Option(Sym("a"))

    def test_explicit_dot_and_numbered_symbols(self):
        assert parse("a·b") == parse("ab")
        assert parse("a1b12") == Concat(Sym("a1"), Sym("b12"))

    def test_render_examples(self):
        assert render(Star(Concat(Sym("a"), Sym("b")))) == "(ab)*"
        assert render(Union(Sym("a"), Sym("b"))) == "a+b"
        assert render(EMPTY) == "#"
        assert render(EPSILON, unicode=True) == "λ"

    def test_roundtrip_corpus(self):
        for r in corpus(120, seed=31):
            assert parse(render(r)) == r

    @pytest.mark.parametrize("read", TEXT_READERS, ids=TEXT_READER_IDS)
    def test_syntax_errors_are_unchanged(self, read):
        # every construction and measures read a text with parse's reader
        for text, message, offset in SYNTAX_ERRORS:
            with pytest.raises(RegexSyntaxError) as err:
                read(text)
            assert (str(err.value), err.value.offset) == (message, offset), text

    def test_shared_leaves_count_as_occurrences(self):
        # one Sym per name and parse, visited once per occurrence by every walk
        r = parse("a+aa")
        assert r.left is r.right.left is r.right.right
        assert measures(r).awidth == 3
        assert _positions(mark(parse("a(a+b)*ab+b")).tree) == [1, 2, 3, 4, 5, 6]
        assert len(construct_position(parse("a(a+b)*a")).states) == 5

    def test_equals_the_reference_parser(self):
        # rendered trees, and the same texts with spaces put anywhere, even
        # inside a symbol name, where both parsers must fail alike
        def outcome(parser, text):
            try:
                return parser(text)
            except RegexSyntaxError as err:
                return str(err), err.offset

        rng = random.Random(29)
        for seed in range(500):
            text = render(random_expr(1 + seed % 12, ["a", "b", "a1", "a12"], seed))
            assert parse(text) == reference_parse(text)
            spaced = "".join(c + " " * (rng.random() < 0.2) for c in text)
            assert outcome(parse, spaced) == outcome(reference_parse, spaced), spaced

    def test_parses_any_depth(self):
        # open groups are frames on an explicit stack: 10^4 levels, far past
        # the recursion limit, checked with the iterative `measures`
        n = 10**4
        text = "(a" * (n - 1) + "(ab)*" + "b)*" * (n - 1)
        assert measures(parse(text)) == measures(buffer_regex(n))
        assert parse("(" * n + "a1" + ")" * n) == Sym("a1")
        assert measures(parse("(" * n + "a" + ")*" * n)).height == n

    def test_tokenize_word(self):
        assert tokenize_word("a1a2b") == ["a1", "a2", "b"]
        assert tokenize_word("") == []
        with pytest.raises(RegexSyntaxError):
            tokenize_word("a1+")

    @pytest.mark.parametrize("read", TEXT_READERS, ids=TEXT_READER_IDS)
    def test_digits_are_ascii(self, read):
        # SYMBOL := [A-Za-z][0-9]*, though `str.isdigit` also takes these
        for text, message, offset in (
            ("a²", "unexpected '²' at offset 1", 1),
            ("a١+b", "unexpected '١' at offset 1", 1),
            ("b+a1٣", "unexpected '٣' at offset 4", 4),
            ("(a𝟙)", "unbalanced '(' opened at offset 0 at offset 2", 2),
        ):
            with pytest.raises(RegexSyntaxError) as err:
                read(text)
            assert (str(err.value), err.value.offset) == (message, offset), text
        read("a19+b0")  # ASCII digits are still read

    def test_symbol_names_take_ascii_digits_only(self):
        for name in ("a²", "a١", "b1٣", "a𝟙"):
            with pytest.raises(ValueError, match="invalid symbol name"):
                Sym(name)
            with pytest.raises(RegexSyntaxError, match="in word at offset"):
                tokenize_word(name)
        assert Sym("a0123456789").name == "a0123456789"


class TestMeasures:
    def test_bracketed_size(self):
        m = measures(parse("(ab)*"))
        assert (m.size, m.rpn, m.awidth, m.height) == (8, 4, 2, 1)

    def test_atom(self):
        m = measures(parse("a"))
        assert (m.size, m.rpn, m.awidth, m.height) == (1, 1, 1, 0)

    def test_nested_buffer_expression_height(self):
        assert measures(parse("(a(a(a(a(a(ab)*b)*b)*b)*b)*b)*")).height == 6

    def test_low_height_buffer_expression(self):
        text = "&+a(ab+ba)*b+a(ab+ba)*aa(ab+ba+bb(ab+ba)*aa+aa(ab+ba)*bb)*bb(ab+ba)*b"
        assert measures(parse(text)).height == 2

    def test_measure_inequalities(self):
        for r in corpus(100, seed=77):
            m = measures(r)
            assert m.awidth <= m.rpn <= m.size <= 3 * m.rpn


class TestNullable:
    @pytest.mark.parametrize(
        "text,expected",
        [("(ab)*", True), ("ab", False), ("a+#", False), ("a?", True), ("&", True), ("#", False)],
    )
    def test_examples(self, text, expected):
        assert nullable(parse(text)) is expected

    def test_agrees_with_language(self):
        for r in corpus(80, seed=5):
            assert nullable(r) == (() in lang(r, 0))


class TestMarking:
    def test_buffer_instance(self):
        r2 = parse("(a(ab)*b)*")
        marked = mark(r2)
        expected = Star(
            Concat(
                Concat(Sym("a", 1), Star(Concat(Sym("a", 2), Sym("b", 3)))),
                Sym("b", 4),
            )
        )
        assert marked.tree == expected
        assert unmark(marked) == r2

    def test_single_symbol(self):
        assert mark(parse("a")).tree == Sym("a", 1)

    def test_epsilon_has_no_positions(self):
        assert mark(parse("&")).tree == EPSILON

    def test_roundtrip(self):
        for r in corpus(60, seed=11):
            m = mark(r)
            assert unmark(m) == r == m.origin

    def test_indices_consecutive(self):
        for r in corpus(60, seed=13):
            seen = []

            def walk(node):
                if isinstance(node, Sym):
                    seen.append(node.pos)
                elif isinstance(node, (Union, Concat)):
                    walk(node.left)
                    walk(node.right)
                elif isinstance(node, (Star, Option)):
                    walk(node.inner)

            walk(mark(r).tree)
            assert seen == list(range(1, measures(r).awidth + 1))


class TestSsnf:
    @pytest.mark.parametrize(
        "text,expected",
        [("(a*)*", "a*"), ("(a*b*)*", "(a+b)*"), ("(a+&)*", "a*")],
    )
    def test_examples(self, text, expected):
        assert render(ssnf(parse(text))) == expected

    def test_idempotent(self, small_corpus):
        for r in small_corpus:
            assert ssnf(ssnf(r)) == ssnf(r)

    def test_monotone_measures(self, small_corpus):
        for r in small_corpus:
            before = measures(r)
            after = measures(ssnf(r))
            assert after.size <= before.size
            assert after.rpn <= before.rpn
            assert after.awidth <= before.awidth
            assert after.height <= before.height

    def test_language_preserved_small(self):
        for r in corpus(60, seed=600, max_awidth=6):
            assert lang(ssnf(r), 5) == lang(r, 5)

    def test_language_preserved_oracle(self):
        for r in corpus(40, seed=601, max_awidth=8):
            assert equivalent(construct_position(r), construct_position(ssnf(r)))

    def test_one_walk_equals_two_walk_reference(self):
        rng = random.Random(602)
        for seed in range(10_000):
            r = scatter_units(random_expr(rng.randint(1, 8), ["a", "b", "c"], seed), rng)
            got, want = ssnf(r), reference_ssnf(r)
            assert got == want and repr(got) == repr(want), render(r)


class TestRandomExpr:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            random_expr(0, ["a"], seed=1)

    def test_width_one_shapes(self):
        for seed in range(30):
            r = random_expr(1, ["a"], seed=seed)
            m = measures(r)
            assert m.awidth == 1
            assert letters_of(r) == {"a"}

    def test_deterministic(self):
        assert random_expr(5, ["a", "b"], seed=7) == random_expr(5, ["a", "b"], seed=7)

    def test_requested_width(self):
        assert measures(random_expr(5, ["a", "b"], seed=7)).awidth == 5
        for i in range(50):
            assert measures(random_expr(1 + i % 9, ["a", "b"], seed=i)).awidth == 1 + i % 9

    def test_corpus_covers_every_width(self):
        # a stride of 7 gave every expression width 1 when max_awidth was 7
        for k in (1, 6, 7, 8, 10, 14):
            assert sorted(measures(r).awidth for r in corpus(k, seed=3, max_awidth=k)) == list(range(1, k + 1))

    def test_nullable_matches_lambda_acceptance(self):
        from refa.constructions import (
            construct_brzozowski,
            construct_follow,
            construct_of,
            construct_pd,
        )

        builders = (
            construct_of,
            construct_follow,
            construct_position,
            construct_pd,
            construct_brzozowski,
        )
        for r in corpus(50, seed=900, max_awidth=6):
            for build in builders:
                assert accepts(build(r), []) == nullable(r)
