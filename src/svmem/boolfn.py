"""Boolean functions on n inputs, stored extensionally as truth tables.

The input bit order matches statevec: the first-named variable is the
most significant bit of the input index. Expressions in switching-algebra
notation (postfix ' for NOT, juxtaposition for AND, + for OR) compile to
tables at parse time, so equality and oracle construction never have to
look at syntax.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError
from .statevec import check_index, check_qubits


def default_var_names(n: int) -> tuple[str, ...]:
    """a, b, c, ... for small arities; x0, x1, ... past the alphabet."""
    _check_arity(n)
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"x{j}" for j in range(n))


def _check_arity(n: int) -> None:
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    check_qubits(n)


@dataclass(frozen=True, eq=False)
class BoolFn:
    """Truth table of a Boolean function; entry k is f(k)."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        _check_arity(self.n)
        table = np.array(self.table, dtype=np.uint8, copy=True)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"expected a table of length {1 << self.n} for arity {self.n}, "
                f"got shape {table.shape}"
            )
        if not np.all(table <= 1):
            raise ValueError("truth table entries must be 0 or 1")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    # Equality is extensional: two functions with the same table are the
    # same function no matter how they were written down.
    def __eq__(self, other):
        if not isinstance(other, BoolFn):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))


def needle(k0: int, n: int) -> BoolFn:
    """Decoder line: true at k0 and nowhere else."""
    _check_arity(n)
    check_index(k0, n, "k0")
    table = np.zeros(1 << n, dtype=np.uint8)
    table[k0] = 1
    return BoolFn(n, table)


def from_minterms(indices: Iterable[int], n: int) -> BoolFn:
    """Function that is true exactly on the given input indices."""
    _check_arity(n)
    table = np.zeros(1 << n, dtype=np.uint8)
    for k in indices:
        k = int(k)
        check_index(k, n, "minterm")
        table[k] = 1
    return BoolFn(n, table)


def evaluate(f: BoolFn, k: int) -> int:
    """f(k) as 0 or 1."""
    check_index(k, f.n, "input")
    return int(f.table[k])


def truth_set(f: BoolFn) -> set[int]:
    """All inputs on which f is true."""
    return {int(k) for k in np.flatnonzero(f.table)}


def count_functions(n: int) -> int:
    """Number of Boolean functions on n inputs: 2^(2^n), exact."""
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    check_qubits(n)
    return 1 << (1 << n)


# --- expression parsing ---------------------------------------------------
#
# Grammar (precedence NOT > AND > OR):
#   expr   := term ('+' term)*
#   term   := factor factor*          juxtaposition is AND
#   factor := atom "'"*               postfix prime is NOT
#   atom   := VAR | '0' | '1' | '(' expr ')'
#
# Tokenizing matches the longest variable name first, so single-letter
# runs like "abc" mean a AND b AND c while multi-character names still
# work when declared.


def parse(expr: str, var_names: Sequence[str]) -> BoolFn:
    """Compile an expression over the named variables into a truth table."""
    names = tuple(str(v) for v in var_names)
    _check_arity(len(names))
    if len(set(names)) != len(names):
        raise ValueError("variable names must be unique")
    for name in names:
        if not name or not all(c.isalnum() or c == "_" for c in name) or name in ("0", "1"):
            raise ValueError(f"bad variable name {name!r}")
    parser = _Parser(_tokenize(expr, names), len(expr), names)
    try:
        table = parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser._position_or_end()) from None
    return BoolFn(len(names), table)


def _tokenize(expr: str, names: tuple[str, ...]) -> list[tuple[str, str, int]]:
    by_length = sorted(names, key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch == "'":
            tokens.append(("PRIME", ch, i))
            i += 1
        elif ch == "+":
            tokens.append(("OR", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(("LPAREN", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("RPAREN", ch, i))
            i += 1
        else:
            name = next((v for v in by_length if expr.startswith(v, i)), None)
            if name is not None:
                tokens.append(("VAR", name, i))
                i += len(name)
            elif ch in "01":
                tokens.append(("CONST", ch, i))
                i += 1
            elif ch.isalnum() or ch == "_":
                j = i
                while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                    j += 1
                raise ParseError(f"unknown identifier {expr[i:j]!r}", i)
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent straight to uint8 columns over all assignments."""

    def __init__(self, tokens, expr_len: int, names: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.expr_len = expr_len
        self.names = names
        self.size = 1 << len(names)
        self._columns: dict[str, np.ndarray] = {}

    def parse(self) -> np.ndarray:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        value = self._or_expr()
        if self.pos < len(self.tokens):
            _, text, at = self.tokens[self.pos]
            raise ParseError(f"unexpected {text!r}", at)
        return value

    def _peek_kind(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _or_expr(self) -> np.ndarray:
        value = self._and_term()
        while self._peek_kind() == "OR":
            self.pos += 1
            value = value | self._and_term()
        return value

    def _and_term(self) -> np.ndarray:
        value = self._not_factor()
        while self._peek_kind() in ("VAR", "CONST", "LPAREN"):
            value = value & self._not_factor()
        return value

    def _not_factor(self) -> np.ndarray:
        value = self._atom()
        while self._peek_kind() == "PRIME":
            self.pos += 1
            value = value ^ 1
        return value

    def _atom(self) -> np.ndarray:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of expression", self.expr_len)
        kind, text, at = self.tokens[self.pos]
        if kind == "VAR":
            self.pos += 1
            return self._column(text)
        if kind == "CONST":
            self.pos += 1
            fill = np.uint8(1) if text == "1" else np.uint8(0)
            return np.full(self.size, fill, dtype=np.uint8)
        if kind == "LPAREN":
            self.pos += 1
            value = self._or_expr()
            if self._peek_kind() != "RPAREN":
                raise ParseError("missing ')'", self._position_or_end())
            self.pos += 1
            return value
        raise ParseError(f"unexpected {text!r}", at)

    def _position_or_end(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return self.expr_len

    def _column(self, name: str) -> np.ndarray:
        # variable j lives at bit position n-1-j of the input index
        column = self._columns.get(name)
        if column is None:
            n = len(self.names)
            shift = n - 1 - self.names.index(name)
            idx = np.arange(self.size, dtype=np.uint32)
            column = ((idx >> shift) & 1).astype(np.uint8)
            self._columns[name] = column
        return column
