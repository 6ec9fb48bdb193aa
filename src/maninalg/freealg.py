"""Noncommutative polynomials over Q in indexed generators.

A generator is a symbol with an integer index tuple (``M[1,2]``, ``x[1]``,
``psi[3]``, or a bare name like ``a``).  Words are tuples of generators and
multiply by concatenation.  The monomial order is degree-lexicographic with
generators compared by (symbol, index tuple); the leftmost letter of a word
is most significant, matching the tensor multi-index convention.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .linalg import ONE, ZERO, QMatrix, format_rat, rat


class NonHomogeneous(ValueError):
    """A polynomial expected to be homogeneous is not."""


class Gen(NamedTuple):
    sym: str
    idx: tuple = ()

    def __repr__(self):
        if not self.idx:
            return self.sym
        return f"{self.sym}[{','.join(str(i) for i in self.idx)}]"


def gen(sym: str, *idx) -> Gen:
    return Gen(sym, tuple(int(i) for i in idx))


def matrix_gen(sym: str, i: int, j: int) -> Gen:
    return Gen(sym, (i, j))


class NCPoly:
    """Noncommutative polynomial: a map word -> nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                c = rat(coeff)
                if c:
                    self.terms[tuple(word)] = c

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(): ONE})

    @staticmethod
    def scalar(c) -> "NCPoly":
        return NCPoly({(): rat(c)})

    @staticmethod
    def generator(g: Gen) -> "NCPoly":
        return NCPoly({(g,): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for word, c in other.terms.items():
            nc = out.get(word, ZERO) + c
            if nc:
                out[word] = nc
            else:
                out.pop(word, None)
        p = NCPoly()
        p.terms = out
        return p

    def __neg__(self) -> "NCPoly":
        p = NCPoly()
        p.terms = {w: -c for w, c in self.terms.items()}
        return p

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[tuple, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                nc = out.get(word, ZERO) + c1 * c2
                if nc:
                    out[word] = nc
                else:
                    out.pop(word, None)
        p = NCPoly()
        p.terms = out
        return p

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "NCPoly":
        c = rat(c)
        p = NCPoly()
        if c:
            p.terms = {w: c * x for w, x in self.terms.items()}
        return p

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def is_homogeneous(self, d: int | None = None) -> bool:
        lengths = {len(w) for w in self.terms}
        if not lengths:
            return True
        if len(lengths) > 1:
            return False
        return d is None or lengths == {d}

    def generators(self) -> set:
        return {g for w in self.terms for g in w}

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[word]
            body = "*".join(repr(g) for g in word) if word else "1"
            if c == 1 and word:
                parts.append(body)
            elif c == -1 and word:
                parts.append(f"-{body}")
            elif word:
                parts.append(f"{format_rat(c)}*{body}")
            else:
                parts.append(format_rat(c))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def word_index(word, gen_pos: dict, g: int) -> int:
    """Position of a degree-d word in the lex word basis (leftmost letter
    most significant); g is the generator count."""
    idx = 0
    for letter in word:
        idx = idx * g + gen_pos[letter]
    return idx


def sparse_coords(p: NCPoly, d: int, gen_pos: dict, g: int) -> dict:
    """Sparse coordinate dict of a homogeneous degree-d polynomial."""
    if not p.is_homogeneous(d) and not p.is_zero():
        raise NonHomogeneous(f"polynomial is not homogeneous of degree {d}")
    return {word_index(w, gen_pos, g): c for w, c in p.terms.items()}


def sorted_generators(gens) -> list:
    return sorted(set(gens), key=lambda g: (g.sym, g.idx))


# --- matrices with NCPoly entries -------------------------------------------

def poly_matrix(entries) -> list:
    """Normalize a grid of NCPoly / rational entries to NCPoly."""
    out = []
    for row in entries:
        out.append([e if isinstance(e, NCPoly) else NCPoly.scalar(e) for e in row])
    return out


def generator_matrix(sym: str, n: int, m: int | None = None) -> list:
    """The n x m matrix of generators sym[i,j]."""
    m = n if m is None else m
    return [[NCPoly.generator(matrix_gen(sym, i, j)) for j in range(1, m + 1)]
            for i in range(1, n + 1)]


def poly_mat_mul(a, b) -> list:
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("inner dimensions differ")
    cols = len(b[0])
    out = []
    for arow in a:
        orow = []
        for j in range(cols):
            acc = NCPoly.zero()
            for k in range(inner):
                if arow[k] and b[k][j]:
                    acc = acc + arow[k] * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def poly_mat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def poly_mat_transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def poly_grid_product(grid, left=None, right=None) -> list:
    """left * grid * right for a grid of NCPoly entries.

    Each side is None, a QMatrix or a TensorOperator, whose sparse ``rows``
    are read directly.  Every output entry is summed into one word ->
    Fraction dict, so no intermediate polynomial is built.
    """
    if left is not None:
        grid = _rows_times_grid(left, grid)
    if right is not None:
        # grid * right = (right^T * grid^T)^T
        grid = poly_mat_transpose(_rows_times_grid(right.transpose(),
                                                   poly_mat_transpose(grid)))
    return grid


def _rows_times_grid(op, grid) -> list:
    """op * grid for op a QMatrix or a TensorOperator."""
    if isinstance(op, QMatrix):
        rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(op.data)}
        nrows, ncols = op.rows, op.cols
    else:
        rows, nrows, ncols = op.rows, op.row_dim ** op.arity, op.col_dim ** op.arity
    if ncols != len(grid):
        raise ValueError("inner dimensions differ")
    out = []
    for i in range(nrows):
        acc = [{} for _ in grid[0]]
        for k, c in rows.get(i, {}).items():
            for sums, p in zip(acc, grid[k]):
                for word, x in p.terms.items():
                    sums[word] = sums[word] + c * x if word in sums else c * x
        out.append([_from_sums(sums) for sums in acc])
    return out


def _from_sums(sums: dict) -> NCPoly:
    p = NCPoly()
    p.terms = {word: x for word, x in sums.items() if x}
    return p


def scalar_times_poly_mat(m, p) -> list:
    """The operator m (a QMatrix or a TensorOperator) times NCPoly matrix p."""
    return poly_grid_product(p, left=m)


def poly_mat_times_scalar(p, m) -> list:
    """NCPoly matrix p times the operator m (a QMatrix or a TensorOperator)."""
    return poly_grid_product(p, right=m)


# --- text form ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[\[\],*+^-]))"
)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text!r} at position {pos}")
            break
        pos = m.end()
        if m.group("num"):
            yield ("num", m.group("num"), m.start())
        elif m.group("name"):
            yield ("name", m.group("name"), m.start())
        else:
            yield ("op", m.group("op"), m.start())


def parse_poly(text: str) -> NCPoly:
    """Parse the textual form '2*M[1,1]*M[2,2] - 1/3*M[1,2]*M[2,1]'."""
    tokens = list(_tokenize(text))
    out = NCPoly.zero()
    i = 0
    n = len(tokens)

    def fail(where, what):
        raise ValueError(f"{what} at position {where} in {text!r}")

    while i < n:
        sign = ONE
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            fail(len(text), "dangling sign")
        coeff = sign
        word = []
        expect_factor = True
        while i < n:
            kind, val, where = tokens[i]
            if kind == "num":
                coeff *= Fraction(val)
                i += 1
            elif kind == "name":
                sym = val
                i += 1
                idx = ()
                if i < n and tokens[i][:2] == ("op", "["):
                    i += 1
                    nums = []
                    while i < n and tokens[i][:2] != ("op", "]"):
                        kind2, val2, where2 = tokens[i]
                        if kind2 == "num":
                            nums.append(int(val2))
                        elif (kind2, val2) != ("op", ","):
                            fail(where2, "bad index list")
                        i += 1
                    if i >= n:
                        fail(where, "unterminated index bracket")
                    i += 1
                    idx = tuple(nums)
                power = 1
                if i < n and tokens[i][:2] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        fail(where, "bad exponent")
                    power = int(tokens[i][1])
                    i += 1
                word.extend([Gen(sym, idx)] * power)
            else:
                fail(where, f"unexpected token {val!r}")
            expect_factor = False
            if i < n and tokens[i][:2] == ("op", "*"):
                i += 1
                expect_factor = True
                continue
            if i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
                break
            if i < n and not expect_factor:
                fail(tokens[i][2], f"unexpected token {tokens[i][1]!r}")
        if expect_factor:
            fail(len(text), "dangling '*'")
        out = out + NCPoly({tuple(word): coeff})
    return out


def parse_poly_matrix(text: str) -> list:
    """Parse a matrix of polynomials: rows on lines, entries split by ';'."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_poly(part) for part in line.split(";")])
    if not rows:
        raise ValueError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix text")
    return rows
