"""Noncommutative polynomials over Q in indexed generators.

A generator is a symbol with an integer index tuple (``M[1,2]``, ``x[1]``,
``psi[3]``, or a bare name like ``a``).  Words are tuples of generators and
multiply by concatenation.  The monomial order is degree-lexicographic with
generators compared by (symbol, index tuple); the leftmost letter of a word
is most significant, matching the tensor multi-index convention.

Products of whole grids with scalar operators (``poly_grid_product``) and
products of several entries (``_entry_product``, behind chains,
determinants and permanents) sum integer numerators over one common
denominator and build one Fraction per result term, rather than chaining
Fraction-valued NCPoly arithmetic.  One integer grid kernel, ``_grid_times``,
runs the side products, for the minors and for ``manin.defect_rows``.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .linalg import ONE, ZERO, QMatrix, format_rat, rat


DEFAULT_WORD_BUDGET = 20736


def _budget_from_env(default: int) -> int:
    """The integer in MANIN_BUDGET, or ``default`` when it is unset."""
    text = os.environ.get("MANIN_BUDGET")
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"MANIN_BUDGET must be an integer, got {text!r}") from None


def word_budget() -> int:
    """The largest word space (and the longest word) the package builds."""
    return _budget_from_env(DEFAULT_WORD_BUDGET)


class NonHomogeneous(ValueError):
    """A polynomial expected to be homogeneous is not."""


class Gen(tuple):
    """A generator, the pair (sym, idx): equality, hash and order are those
    of the tuple."""

    __slots__ = ()

    def __new__(cls, sym: str, idx: tuple = ()):
        return tuple.__new__(cls, (sym, idx))

    def __getnewargs__(self):
        return tuple(self)

    sym = property(itemgetter(0))
    idx = property(itemgetter(1))

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

    Each side is None, a QMatrix or a TensorOperator.  The grid's entries
    are brought to one common denominator D and their words numbered, the
    integer grid kernel ``_grid_times`` applies the sides, and one Fraction
    is built per output term.
    """
    if left is None and right is None:
        return grid
    den, words, sums = _integer_grid(grid)
    factor, sums = _grid_times(sums, left, right)
    return [[_from_integer_sums(entry, words, den * factor) for entry in row]
            for row in sums]


def _grid_times(sums, left=None, right=None) -> tuple:
    """(factor, out): left * sums * right for a grid of integer entries
    {word: int}, as ``out`` times 1 / factor.

    Each side is None, a QMatrix or a TensorOperator, read as integer rows
    over one denominator (``_integer_rows``), and factor is the product of
    those denominators.  The right operator is applied row-major, so no
    operator or grid is transposed.  A zero row of left is never expanded:
    its output entries are one shared empty dict, so no output entry may be
    mutated.  Output entries may hold zero terms.
    """
    factor = 1
    if left is not None:
        lden, rows, nrows, ncols = _integer_rows(left)
        if ncols != len(sums):
            raise ValueError("inner dimensions differ")
        width = len(sums[0])
        out = []
        for i in range(nrows):
            arow = rows.get(i)
            if arow is None:
                out.append([{}] * width)
                continue
            acc = [{} for _ in range(width)]
            for k, a in arow.items():
                for entry, x in zip(acc, sums[k]):
                    for w, c in x.items():
                        entry[w] = entry[w] + a * c if w in entry else a * c
            out.append(acc)
        sums, factor = out, lden
    if right is not None:
        rden, rows, nrows, ncols = _integer_rows(right)
        if nrows != len(sums[0]):
            raise ValueError("inner dimensions differ")
        brows = [rows.get(k) for k in range(nrows)]
        out = []
        for grid_row in sums:
            if not any(grid_row):
                out.append([{}] * ncols)
                continue
            acc = [{} for _ in range(ncols)]
            for x, brow in zip(grid_row, brows):
                if x and brow:
                    for j, b in brow.items():
                        entry = acc[j]
                        for w, c in x.items():
                            entry[w] = entry[w] + b * c if w in entry else b * c
            out.append(acc)
        sums, factor = out, factor * rden
    return factor, sums


def _integer_grid(grid) -> tuple:
    """(D, words, sums): D the common denominator of the grid's entries,
    words the distinct words in order of first appearance, and sums the
    grid with each entry as {position in words: numerator over D}."""
    den = lcm(*(c.denominator for row in grid for p in row for c in p.terms.values()))
    ids: dict[tuple, int] = {}
    sums = []
    for row in grid:
        out_row = []
        for p in row:
            entry = {}
            for w, c in p.terms.items():
                i = ids.get(w)
                if i is None:
                    i = ids[w] = len(ids)
                entry[i] = c.numerator * (den // c.denominator)
            out_row.append(entry)
        sums.append(out_row)
    return den, list(ids), sums


def _integer_rows(op) -> tuple:
    """(den, rows, nrows, ncols) of a QMatrix or a TensorOperator, with rows
    i -> {j: numerator} over the one denominator den."""
    if not isinstance(op, QMatrix):
        return op.den, op.num, op.row_dim ** op.arity, op.col_dim ** op.arity
    den = lcm(*(x.denominator for row in op.data for x in row if x))
    rows = {}
    for i, row in enumerate(op.data):
        nz = {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
        if nz:
            rows[i] = nz
    return den, rows, op.rows, op.cols


def _from_integer_sums(entry: dict, words: list, den: int) -> NCPoly:
    p = NCPoly()
    p.terms = {words[w]: Fraction(c, den) for w, c in entry.items() if c}
    return p


def scalar_times_poly_mat(m, p) -> list:
    """The operator m (a QMatrix or a TensorOperator) times NCPoly matrix p."""
    return poly_grid_product(p, left=m)


def poly_mat_times_scalar(p, m) -> list:
    """NCPoly matrix p times the operator m (a QMatrix or a TensorOperator)."""
    return poly_grid_product(p, right=m)


def _entry_product(factors, num: int = 1, den: int = 1) -> NCPoly:
    """(num / den) * f_1 * f_2 * ... for NCPoly factors, multiplied directly.

    A single-term factor (a generator or a scalar entry) only extends the
    words and multiplies the integers num and den; a factor with several
    terms is expanded over its common denominator.  One Fraction is built
    per term of the product, none when a single-term product has
    coefficient 1.
    """
    word, prod = (), None   # prod: word -> numerator over den, once needed
    for f in factors:
        t = f.terms
        if len(t) == 1:
            (w, x), = t.items()
            num *= x.numerator
            den *= x.denominator
            if not w:
                continue
            if prod is None:
                word += w
            else:
                prod = {v + w: c for v, c in prod.items()}
            continue
        if not t:
            return NCPoly()
        d = lcm(*(x.denominator for x in t.values()))
        den *= d
        ints = [(w, x.numerator * (d // x.denominator)) for w, x in t.items()]
        if prod is None:
            prod = {word: 1}
        expanded = {}
        for v, c in prod.items():
            for w, b in ints:
                vw = v + w
                expanded[vw] = expanded.get(vw, 0) + c * b
        prod = expanded
    p = NCPoly()
    if prod is None:
        p.terms = {word: ONE if num == den else Fraction(num, den)}
    else:
        p.terms = {w: Fraction(c * num, den) for w, c in prod.items() if c}
    return p


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
    """Parse the textual form '2*M[1,1]*M[2,2] - 1/3*M[1,2]*M[2,1]'.

    Malformed text, a zero denominator and a word longer than
    ``word_budget()`` letters raise ValueError; the length is checked before
    the word is built.
    """
    tokens = list(_tokenize(text))
    out = NCPoly.zero()
    i = 0
    n = len(tokens)
    budget = word_budget()

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
                coeff *= rat(val)
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
                if len(word) + power > budget:
                    fail(where, f"word longer than the word budget {budget} "
                                "(override with MANIN_BUDGET)")
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
