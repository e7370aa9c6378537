"""S-expression reader tests."""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from gendispatch import NIL, Cons, ParseError, Symbol, cons_list, format_value, intern, iter_list, read_sexpr
from gendispatch import model, reader
from gendispatch.reader import _TOKENS

from conftest import oracle_read_sexpr

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_reads_atoms() -> None:
    assert read_sexpr("42") == 42
    assert read_sexpr("-7") == -7
    assert read_sexpr("2.5") == 2.5
    assert read_sexpr("1e3") == 1000.0
    assert read_sexpr("foo") is intern("foo")
    assert read_sexpr("FOO") is intern("foo")
    assert read_sexpr('"hi"') == "hi"
    assert read_sexpr(r'"a\"b"') == 'a"b'


def test_reads_lists() -> None:
    assert read_sexpr("()") is NIL
    assert read_sexpr("nil") is NIL
    form = read_sexpr("(let ((x 1)) x)")
    assert isinstance(form, Cons)
    assert form.car is intern("let")
    assert format_value(form) == "(let ((x 1)) x)"


def test_whitespace_and_newlines() -> None:
    form = read_sexpr("(a\n  b\t c)")
    assert format_value(form) == "(a b c)"


def test_unicode_whitespace_separates_tokens() -> None:
    # the same characters str.isspace accepts, \x1c (file separator) included
    for space in ("\xa0", "\u2003", "\x1c", "\u3000", "\x85"):
        form = read_sexpr(space.join(["", "(a", "1", "b)", ""]))
        assert format_value(form) == "(a 1 b)"


def test_unicode_digits_read_as_numbers() -> None:
    assert read_sexpr("\u0663\u0664") == 34  # ARABIC-INDIC DIGITS THREE FOUR
    assert read_sexpr("-\uff17") == -7  # FULLWIDTH DIGIT SEVEN
    assert read_sexpr("\u0661.\u0665") == 1.5
    assert read_sexpr("\u00b2") is intern("\u00b2")  # superscript two is no decimal digit


def test_tokens_that_start_like_numbers_but_are_none_are_symbols() -> None:
    for text in ("+", "-", ".", "1+", "-x", "1e", "1e3e4", "1.5.2", "+.e1"):
        assert read_sexpr(text) is intern(text)
    assert read_sexpr("(f 1e3e4)").cdr.car is intern("1e3e4")


def pinned_error(text: str):
    with pytest.raises(ParseError) as err:
        read_sexpr(text)
    return str(err.value), err.value.position


def test_empty_input_is_an_error() -> None:
    assert pinned_error("") == ("empty input (at position 0)", 0)
    assert pinned_error("   \n ") == ("empty input (at position 5)", 5)


def test_trailing_garbage_is_an_error() -> None:
    assert pinned_error("(a) b") == ("trailing garbage after expression (at position 4)", 4)
    assert pinned_error("a  )") == ("trailing garbage after expression (at position 3)", 3)
    assert pinned_error('(a)\n  "unterminated') == ("trailing garbage after expression (at position 6)", 6)


def test_unterminated_list_reports_open_position() -> None:
    assert pinned_error("  (a (b)") == ("unterminated list opened (at position 2)", 2)
    # the innermost unclosed list, not the outermost
    assert pinned_error("(a (b (c) (d  ") == ("unterminated list opened (at position 10)", 10)


def test_unterminated_string_is_an_error() -> None:
    assert pinned_error('"abc') == ("unterminated string opened (at position 0)", 0)
    assert pinned_error('(a "b\\"c') == ("unterminated string opened (at position 3)", 3)
    # a string that ends in a lone backslash
    assert pinned_error('(x "ab\\') == ("unterminated string opened (at position 3)", 3)
    assert pinned_error('(x "ab\\ ') == ("unterminated string opened (at position 3)", 3)


def test_stray_close_paren_is_an_error() -> None:
    assert pinned_error(")") == ("unbalanced close paren (at position 0)", 0)
    assert pinned_error("  ) (a)") == ("unbalanced close paren (at position 2)", 2)


def test_integer_literal_too_long_is_an_error() -> None:
    digits = "1" * 5000
    assert pinned_error("(f %s)" % digits) == ("integer literal too long (at position 3)", 3)
    # the position is the token's start, its sign included
    assert pinned_error("(f -%s)" % digits) == ("integer literal too long (at position 3)", 3)
    limit = sys.get_int_max_str_digits()
    if limit:
        assert read_sexpr("9" * limit) == int("9" * limit)
    # float() has no digit limit
    assert read_sexpr(digits + ".5") == float("inf")


def test_deep_nesting_reads_without_recursion() -> None:
    depth = 100_000
    form = read_sexpr("(" * depth + ")" * depth)
    for _ in range(depth - 1):
        assert form.cdr is NIL
        form = form.car
    assert form is NIL
    assert pinned_error("(" * depth) == ("unterminated list opened (at position %d)" % (depth - 1), depth - 1)


def test_round_trip_random_forms() -> None:
    # print then re-read is identity for symbols, integers, floats, strings
    # with escapes, and proper lists
    rng = random.Random(11)
    symbols = [intern(s) for s in ("a", "b", "foo", "let", "x1")]
    string_chars = 'ab ()"\\\n\t;\xa0\u00e9'
    floats = [0.0, -0.0, 2.5, -1e-07, 1e16, 5e-324, 1.7976931348623157e308]

    def gen(depth: int):
        roll = rng.random()
        if depth > 3 or roll < 0.25:
            return rng.choice(symbols)
        if roll < 0.4:
            return rng.randint(-100, 100)
        if roll < 0.45:
            return rng.choice(floats) if rng.random() < 0.3 else rng.uniform(-1e6, 1e6)
        if roll < 0.5:
            return "".join(rng.choice(string_chars) for _ in range(rng.randint(0, 6)))
        if roll < 0.55:
            return NIL
        return cons_list(*[gen(depth + 1) for _ in range(rng.randint(0, 4))])

    def shape(value):
        # values with their types; format_value alone prints 1 and 1.0 apart
        # but not every string escape
        if isinstance(value, Cons):
            return [shape(v) for v in iter_list(value)]
        return (type(value), value)

    for _ in range(300):
        form = gen(0)
        text = format_value(form)
        back = read_sexpr(text)
        assert format_value(back) == text
        assert shape(back) == shape(form)


def typed(value):
    """A value as nested lists of (type, repr) leaves, so that 1, 1.0, 0.0
    and -0.0 all differ."""
    if isinstance(value, Cons):
        return [typed(v) for v in iter_list(value)]
    return (type(value), repr(value))


def outcome(read, text: str):
    """What `read` makes of `text`: the typed value, or the error's message
    and position."""
    try:
        return typed(read(text))
    except ParseError as err:
        return (str(err), err.position)


def test_fuzzed_text_reads_as_the_oracle_reads_it() -> None:
    # parens, quotes, escapes, signs, dots, exponents, letters of both cases,
    # ASCII and Unicode whitespace, an Arabic-Indic digit and a superscript
    # two, which is no decimal digit
    alphabet = list('()"\\+-.eE1aB') + ["\t", "\n", " ", "\xa0", "\x85", "\u0663", "\u00b2"]
    rng = random.Random(8)
    seen = set()
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        expected = outcome(oracle_read_sexpr, text)
        assert outcome(read_sexpr, text) == expected, text
        if isinstance(expected, list):
            seen.add(list)
        else:
            seen.add(expected[0] if isinstance(expected[0], type) else expected[0].partition(" (at")[0])
    # every kind of value and every error but the over-long integer came up
    assert seen == {
        list, int, float, str, Symbol, type(NIL),
        "empty input", "trailing garbage after expression", "unbalanced close paren",
        "unterminated list opened", "unterminated string opened",
    }


def test_quote_free_fuzzed_text_reads_as_the_oracle_reads_it() -> None:
    # text without a quote takes its tokens from str.split, which must cut
    # where the regex does: at ASCII and Unicode whitespace, including the
    # separators \x1c-\x1f, U+2028 and U+3000, and around every paren
    alphabet = list("()\\+-.eE1aB") + [
        "\t", "\n", " ", "\xa0", "\x85", "\u0663", "\u00b2", "\x1c", "\x1f", "\u2028", "\u3000",
    ]
    rng = random.Random(12)
    seen = set()
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        expected = outcome(oracle_read_sexpr, text)
        assert outcome(read_sexpr, text) == expected, text
        assert text.replace("(", " ( ").replace(")", " ) ").split() == _TOKENS.findall(text), text
        if isinstance(expected, list):
            seen.add(list)
        else:
            seen.add(expected[0] if isinstance(expected[0], type) else expected[0].partition(" (at")[0])
    # every kind of value but the string, and every error but the over-long
    # integer and the unterminated string, came up
    assert seen == {
        list, int, float, Symbol, type(NIL),
        "empty input", "trailing garbage after expression", "unbalanced close paren",
        "unterminated list opened",
    }


def test_walk_programs_read_as_the_oracle_reads_them() -> None:
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
    finally:
        sys.path.remove(PERFBENCH)
    for text, _ in inputs.walk_inputs(random.Random(23), 300):
        form = read_sexpr(text)
        assert typed(form) == typed(oracle_read_sexpr(text))
        assert form == oracle_read_sexpr(text)


def test_interned_number_and_string_spellings_keep_their_reading() -> None:
    # a symbol-table entry spelled like a number or a string does not turn
    # such a token into a symbol
    for name in ("12", "-1", "1e3", '"a"'):
        intern(name)
    assert typed(read_sexpr("(12 -1 1e3 \"a\")")) == [(int, "12"), (int, "-1"), (float, "1000.0"), (str, "'a'")]


def test_the_token_table_keeps_within_its_limit() -> None:
    limit = reader._ATOMS_LIMIT
    form = read_sexpr("(%s)" % " ".join(str(n) for n in range(limit + 100)))
    assert list(iter_list(form)) == list(range(limit + 100))
    assert len(reader._atoms) <= limit


def test_tokens_read_after_a_table_replacement_keep_their_kind() -> None:
    text = "(12 -1 1.5 1e3 Foo foo +)"
    expected = [(int, "12"), (int, "-1"), (float, "1.5"), (float, "1000.0"),
                (Symbol, "foo"), (Symbol, "foo"), (Symbol, "+")]
    assert typed(read_sexpr(text)) == expected
    table = reader._atoms
    # distinct numbers none of which is spelled like a token of `text`
    read_sexpr("(%s)" % " ".join(str(n) for n in range(10_000, 10_000 + reader._ATOMS_LIMIT)))
    assert reader._atoms is not table
    for _ in range(2):  # missed in the new table, then found there
        form = read_sexpr(text)
        assert typed(form) == expected
        assert form.cdr.cdr.cdr.cdr.car is intern("foo")


def test_two_threads_read_through_a_small_table_as_the_oracle_reads(monkeypatch) -> None:
    # a limit of 8 replaces the table every few atoms, while the other thread
    # reads through the table it took up before the replacement
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
    finally:
        sys.path.remove(PERFBENCH)
    rng = random.Random(41)
    texts = [text for text, _ in inputs.walk_inputs(rng, 60)]
    texts += ["(%s)" % " ".join(rng.choice(["X%d" % n, str(n), "%d.5" % n, "-%d" % n]) for n in range(40))
              for _ in range(20)]
    expected = [typed(oracle_read_sexpr(text)) for text in texts]
    monkeypatch.setattr(reader, "_ATOMS_LIMIT", 8)
    failures = []

    def work(t):
        order = list(range(len(texts)))
        random.Random(t).shuffle(order)
        try:
            for _ in range(15):
                for i in order:
                    if typed(read_sexpr(texts[i])) != expected[i]:
                        failures.append(texts[i])
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # no paren was ever read as an atom
    assert "(" not in model._symbols and ")" not in model._symbols
