"""Truth tables: constructors, the expression parser, and counting."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from svmem.boolfn import (
    BoolFn,
    count_functions,
    evaluate,
    from_minterms,
    needle,
    parse,
    truth_set,
)
from svmem.errors import ParseError


# --- needle -------------------------------------------------------------------

def test_needle_examples():
    np.testing.assert_array_equal(needle(0, 3).table, [1, 0, 0, 0, 0, 0, 0, 0])
    assert truth_set(needle(5, 3)) == {5}
    np.testing.assert_array_equal(needle(0, 1).table, [1, 0])


def test_needle_single_bit_exhaustive():
    # every needle has exactly one set bit, at k0, for all n up to 10
    for n in range(1, 11):
        for k0 in range(1 << n):
            table = needle(k0, n).table
            assert table.sum() == 1 and table[k0] == 1


def test_needle_rejects_bad_inputs():
    with pytest.raises(ValueError, match=r"valid: 0\.\.7"):
        needle(8, 3)
    with pytest.raises(ValueError):
        needle(-1, 3)
    with pytest.raises(ValueError):
        needle(0, 0)


# --- parse ----------------------------------------------------------------------

def test_parse_primed_conjunction():
    f = parse("a'b'", ["a", "b", "c"])
    assert truth_set(f) == {0, 1}


def test_parse_constant_true():
    assert truth_set(parse("1", ["a"])) == {0, 1}


def test_parse_or_of_products():
    f = parse("a+b'c", ["a", "b", "c"])
    # independent oracle: evaluate the formula directly on every assignment
    expected = set()
    for k in range(8):
        a, b, c = (k >> 2) & 1, (k >> 1) & 1, k & 1
        if a or ((not b) and c):
            expected.add(k)
    assert expected == {1, 4, 5, 6, 7}
    assert truth_set(f) == expected


def test_parse_precedence():
    assert truth_set(parse("a+bc", ["a", "b", "c"])) == {3, 4, 5, 6, 7}
    assert truth_set(parse("(a+b)c", ["a", "b", "c"])) == {3, 5, 7}


def test_parse_double_prime_cancels():
    assert parse("a''", ["a", "b"]) == parse("a", ["a", "b"])


def test_parse_constant_juxtaposition():
    assert truth_set(parse("10", ["a"])) == set()
    assert truth_set(parse("1+0", ["a"])) == {0, 1}


def test_parse_whitespace_insignificant():
    assert parse("a' b'", ["a", "b"]) == parse("a'b'", ["a", "b"])


def test_parse_single_letter_run_is_conjunction():
    assert truth_set(parse("abc", ["a", "b", "c"])) == {7}


def test_parse_multi_character_names():
    f = parse("load enable'", ["load", "enable"])
    assert truth_set(f) == {2}
    # the longest declared name wins during tokenizing
    assert truth_set(parse("ab", ["a", "ab"])) == {1, 3}


def test_parse_unknown_identifier_position():
    with pytest.raises(ParseError, match="zoo"):
        parse("a+zoo", ["a", "b"])
    try:
        parse("a+zoo", ["a", "b"])
    except ParseError as exc:
        assert exc.position == 2


def test_parse_syntax_errors():
    with pytest.raises(ParseError, match="end of expression"):
        parse("a+", ["a"])
    with pytest.raises(ParseError, match="missing"):
        parse("(a", ["a"])
    with pytest.raises(ParseError, match="unexpected"):
        parse(")a", ["a"])
    with pytest.raises(ParseError, match="empty"):
        parse("   ", ["a"])
    with pytest.raises(ParseError, match="unexpected character"):
        parse("a&b", ["a", "b"])


def test_parse_deep_nesting_is_a_parse_error():
    assert truth_set(parse("(" * 50 + "a" + ")" * 50, ["a"])) == {1}
    expr = "(" * 400 + "a" + ")" * 400
    with pytest.raises(ParseError, match="nests too deeply") as excinfo:
        parse(expr, ["a"])
    assert 0 <= excinfo.value.position <= len(expr)


@given(st.text(alphabet="ab01'+() _&z", max_size=80))
@example("(" * 400 + "a" + ")" * 400)
@example("(" * 5000 + "a")  # deeper than the recursion headroom Hypothesis adds
def test_parse_returns_or_raises_parse_error(expr):
    try:
        parse(expr, ["a", "b"])
    except ParseError as exc:
        assert 0 <= exc.position <= len(expr)


def test_parse_rejects_bad_variable_sets():
    with pytest.raises(ValueError, match="unique"):
        parse("a", ["a", "a"])
    with pytest.raises(ValueError, match="bad variable name"):
        parse("a", ["a", "b+c"])
    with pytest.raises(ValueError):
        parse("a", [])


# random expression trees, checked against direct recursive evaluation

def _random_tree(rng, names, depth):
    choice = int(rng.integers(0, 4 if depth > 0 else 2))
    if choice == 0:
        return ("var", names[int(rng.integers(0, len(names)))])
    if choice == 1:
        return ("const", int(rng.integers(0, 2)))
    if choice == 2:
        return ("not", _random_tree(rng, names, depth - 1))
    op = "and" if rng.integers(0, 2) else "or"
    return (op, _random_tree(rng, names, depth - 1), _random_tree(rng, names, depth - 1))


def _render(node):
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind == "const":
        return str(node[1])
    if kind == "not":
        return f"({_render(node[1])})'"
    joiner = "" if kind == "and" else "+"
    return f"({_render(node[1])}){joiner}({_render(node[2])})"


def _eval_tree(node, assignment):
    kind = node[0]
    if kind == "var":
        return assignment[node[1]]
    if kind == "const":
        return node[1]
    if kind == "not":
        return 1 - _eval_tree(node[1], assignment)
    left, right = _eval_tree(node[1], assignment), _eval_tree(node[2], assignment)
    return left & right if kind == "and" else left | right


def test_parse_matches_recursive_evaluation():
    rng = np.random.default_rng(42)
    names = ("a", "b", "c", "d")
    for _ in range(200):
        tree = _random_tree(rng, names, depth=4)
        f = parse(_render(tree), names)
        for k in range(16):
            assignment = {name: (k >> (3 - j)) & 1 for j, name in enumerate(names)}
            assert evaluate(f, k) == _eval_tree(tree, assignment)


# --- from_minterms / evaluate / truth_set ---------------------------------------

def test_from_minterms_matches_parse():
    assert from_minterms({0, 1}, 3) == parse("a'b'", ["a", "b", "c"])


def test_from_minterms_constants():
    assert truth_set(from_minterms(set(), 2)) == set()
    assert truth_set(from_minterms(range(8), 3)) == set(range(8))


def test_from_minterms_rejects_out_of_range():
    with pytest.raises(ValueError, match="minterm 4"):
        from_minterms({4}, 2)


def test_from_minterms_roundtrip():
    rng = np.random.default_rng(13)
    for n in (1, 2, 4, 6):
        for _ in range(10):
            f = BoolFn(n, rng.integers(0, 2, size=1 << n))
            assert from_minterms(truth_set(f), f.n) == f


def test_evaluate_examples():
    assert evaluate(needle(5, 3), 5) == 1
    assert evaluate(needle(5, 3), 4) == 0
    assert evaluate(parse("a'b'", ["a", "b", "c"]), 1) == 1


def test_evaluate_out_of_range():
    with pytest.raises(ValueError, match=r"valid: 0\.\.7"):
        evaluate(needle(0, 3), 8)


# --- count_functions --------------------------------------------------------------

def test_count_functions_small():
    assert count_functions(0) == 2
    assert count_functions(2) == 16
    assert count_functions(3) == 256
    with pytest.raises(ValueError):
        count_functions(-1)


def test_count_functions_matches_distinct_tables():
    for n in (1, 2, 3):
        every = {
            BoolFn(n, np.array(bits, dtype=np.uint8))
            for bits in itertools.product((0, 1), repeat=1 << n)
        }
        assert len(every) == count_functions(n)


# --- BoolFn construction -----------------------------------------------------------

def test_boolfn_validation():
    with pytest.raises(ValueError, match="length 4"):
        BoolFn(2, np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError, match="0 or 1"):
        BoolFn(1, np.array([0, 2]))
    with pytest.raises(ValueError):
        BoolFn(0, np.array([1]))


def test_boolfn_equality_ignores_names():
    f = parse("x'y'", ["x", "y", "z"])
    g = from_minterms({0, 1}, 3)
    assert f == g
    assert hash(f) == hash(g)
    assert f != needle(0, 3)


def test_boolfn_table_is_immutable():
    f = needle(0, 2)
    with pytest.raises(ValueError):
        f.table[0] = 0
