"""Boolean functions on n inputs, stored extensionally as truth tables.

The input bit order matches statevec: the first-named variable is the
most significant bit of the input index. Expressions in switching-algebra
notation (postfix ' for NOT, juxtaposition for AND, + for OR) compile to
tables at parse time, so equality and oracle construction never have to
look at syntax.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError
from .statevec import Factor, _subcube, check_index, check_qubits


def default_var_names(n: int) -> tuple[str, ...]:
    """a, b, c, ...: one letter per input."""
    n = _check_arity(n)
    return tuple(string.ascii_lowercase[:n])


def _check_arity(n: int) -> int:
    return check_qubits(n, 1, "arity")


@dataclass(frozen=True, eq=False)
class BoolFn:
    """Truth table of a Boolean function: a read-only bool array, entry k is f(k)."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _check_arity(self.n))
        table = _bool_entries(self.table)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"expected a table of length {1 << self.n} for arity {self.n}, "
                f"got shape {table.shape}"
            )
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

    def __reduce__(self):  # copies and pickles go back through the constructor, to a read-only table
        return BoolFn, (self.n, self.table)


def _bool_entries(entries) -> np.ndarray:
    """A fresh bool array of the entries, which must be bools or the numbers 0 and 1."""
    entries = np.asarray(entries)
    if entries.dtype == bool:
        return entries.copy()
    if np.issubdtype(entries.dtype, np.number):
        table = np.array(entries, dtype=bool)
        if np.array_equal(table, entries):  # rejects 0.5, 256, -1 and NaN
            return table
    raise ValueError("truth table entries must be 0 or 1")


def needle(k0: int, n: int) -> BoolFn:
    """Decoder line: true at k0 and nowhere else."""
    n = _check_arity(n)
    k0 = check_index(k0, n, "k0")
    table = np.zeros(1 << n, dtype=bool)
    table[k0] = True
    return BoolFn(n, table)


def from_minterms(indices: Iterable[int], n: int) -> BoolFn:
    """Function that is true exactly on the given input indices."""
    n = _check_arity(n)
    table = np.zeros(1 << n, dtype=bool)
    for k in indices:
        table[check_index(k, n, "minterm")] = True
    return BoolFn(n, table)


def evaluate(f: BoolFn, k: int) -> int:
    """f(k) as 0 or 1."""
    return int(f.table[check_index(k, f.n, "input")])


def truth_set(f: BoolFn) -> set[int]:
    """All inputs on which f is true."""
    return {int(k) for k in np.flatnonzero(f.table)}


def count_functions(n: int) -> int:
    """Number of Boolean functions on n inputs: 2^(2^n), exact."""
    return 1 << (1 << check_qubits(n, name="arity"))


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
        if not re.fullmatch(r"\w+", name) or name in ("0", "1"):
            raise ValueError(f"bad variable name {name!r}")
    parser = _Parser(_tokenize(expr, names), names)
    try:
        table = parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.tokens[parser.pos][2]) from None
    return BoolFn(len(names), table)


def _tokenize(expr: str, names: tuple[str, ...]) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token; the last is always END at len(expr)."""
    # alternation is tried left to right: whitespace and punctuation, then
    # the names longest first, then constants, then any other word
    by_length = sorted(names, key=len, reverse=True)
    pattern = (
        r"\s+|(?P<PRIME>')|(?P<OR>\+)|(?P<LPAREN>\()|(?P<RPAREN>\))"
        rf"|(?P<VAR>{'|'.join(map(re.escape, by_length))})"
        r"|(?P<CONST>[01])|(?P<WORD>\w+)|(?P<OTHER>.)|(?P<END>\Z)"
    )
    tokens = []
    for m in re.finditer(pattern, expr):
        kind, text, at = m.lastgroup, m.group(), m.start()
        if kind == "WORD":
            raise ParseError(f"unknown identifier {text!r}", at)
        if kind == "OTHER":
            raise ParseError(f"unexpected character {text!r}", at)
        if kind is not None:
            tokens.append((kind, text, at))
    return tokens


class _Parser:
    """Recursive descent straight to bool columns over all assignments."""

    def __init__(self, tokens, names: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.size = 1 << len(names)

    def parse(self) -> np.ndarray:
        if self._peek_kind() == "END":
            raise ParseError("empty expression", 0)
        value = self._or_expr()
        kind, text, at = self.tokens[self.pos]
        if kind != "END":
            raise ParseError(f"unexpected {text!r}", at)
        return value

    def _peek_kind(self) -> str:
        return self.tokens[self.pos][0]

    def _or_expr(self) -> np.ndarray:
        value = self._and_term()
        while self._peek_kind() == "OR":
            self.pos += 1
            value = value | self._and_term()
        return value

    def _and_term(self) -> np.ndarray:
        # the literals fold into one subcube, built once; constants and
        # groups are ANDed in as columns
        pinned: dict[int, Factor] | None = {}  # None once x and x' both appear
        value = None
        while True:
            kind, text, _ = self.tokens[self.pos]
            if kind == "VAR":
                self.pos += 1
                j = self.names.index(text)
                factor = Factor.ZERO if self._primes() % 2 else Factor.ONE
                if pinned is not None and pinned.setdefault(j, factor) != factor:
                    pinned = None
            else:
                column = self._not_factor()
                value = column if value is None else value & column
            if self._peek_kind() not in ("VAR", "CONST", "LPAREN"):
                break
        if pinned is None:
            return np.zeros(self.size, dtype=bool)
        if pinned:
            cube = _subcube([pinned.get(j, Factor.BOTH) for j in range(len(self.names))], bool)
            value = cube if value is None else value & cube
        return value

    def _not_factor(self) -> np.ndarray:
        value = self._atom()
        return ~value if self._primes() % 2 else value

    def _primes(self) -> int:
        count = 0
        while self._peek_kind() == "PRIME":
            self.pos += 1
            count += 1
        return count

    def _atom(self) -> np.ndarray:
        kind, text, at = self.tokens[self.pos]
        if kind == "END":
            raise ParseError("unexpected end of expression", at)
        if kind == "CONST":
            self.pos += 1
            return np.full(self.size, text == "1")
        if kind == "LPAREN":
            self.pos += 1
            value = self._or_expr()
            if self._peek_kind() != "RPAREN":
                raise ParseError("missing ')'", self.tokens[self.pos][2])
            self.pos += 1
            return value
        raise ParseError(f"unexpected {text!r}", at)
