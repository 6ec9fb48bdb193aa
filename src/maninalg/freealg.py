"""Noncommutative polynomials over Q in indexed generators.

A generator is a symbol with an integer index tuple (``M[1,2]``, ``x[1]``,
``psi[3]``, or a bare name like ``a``).  Words are tuples of generators and
multiply by concatenation.  The monomial order is degree-lexicographic with
generators compared by (symbol, index tuple); the leftmost letter of a word
is most significant, matching the tensor multi-index convention.

A polynomial is stored as integer numerators over one common denominator
(``NCPoly.num`` over ``NCPoly.den``), the form of ``tensor.TensorOperator``,
so its arithmetic runs on ints and Fractions appear only at the edges: the
constructor, the ``terms`` view, ``repr`` and ``sparse_coords``.  Products
of whole grids with scalar operators (``poly_grid_product``) and products
of several entries (``_entry_product``, behind chains, determinants and
permanents) sum numerators over one common denominator and end with one
gcd pass per result, rather than chaining NCPoly arithmetic.  One integer
grid kernel, ``_grid_times``, runs the side products, for the minors and
for ``manin.defect_rows``.

The text form (``parse_poly``) joins terms by runs of '+' and '-' and the
factors of a term by '*'.  A factor is a rational 'p' or 'p/q', or a name
with an optional index list '[i,j,...]' and an optional power '^e' of a
non-negative integer e.  Two factors side by side without '*' are bad
input.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .linalg import ONE, QMatrix, format_rat, rat


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
    """Noncommutative polynomial over Q, as integer numerators over one
    denominator.

    ``num`` maps a word to a nonzero int and ``den`` is a positive int, so
    the coefficient of a word w is num[w] / den.  den has no factor in
    common with all the numerators (it is the least common denominator of
    the coefficients), so each polynomial has exactly one representation
    and ``==`` and ``hash`` compare integers.  The constructor reads a map
    word -> int, Fraction or 'p/q'; ``terms`` is the word -> Fraction view,
    built on each read, for display and for callers outside the package.
    A sum or difference adds numerators over lcm(den_a, den_b), a product
    multiplies them over den_a * den_b, and a scaling by p/q multiplies them
    by p over den * q; each ends with one gcd pass (``_canonical``).
    Treated as immutable: polynomials share their ``num`` dicts.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        coeffs = {}
        if terms:
            for word, coeff in terms.items():
                c = rat(coeff)
                if c:
                    coeffs[tuple(word)] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        # the least common denominator is coprime to the numerators as a whole
        self.num = {w: c.numerator * (den // c.denominator) for w, c in coeffs.items()}
        self.den = den

    @property
    def terms(self) -> dict:
        """The coefficients as a new dict word -> Fraction."""
        den = self.den
        return {w: Fraction(c, den) for w, c in self.num.items()}

    @staticmethod
    def zero() -> "NCPoly":
        return _make({}, 1)

    @staticmethod
    def one() -> "NCPoly":
        return _make({(): 1}, 1)

    @staticmethod
    def scalar(c) -> "NCPoly":
        c = rat(c)
        return _make({(): c.numerator}, c.denominator) if c else _make({}, 1)

    @staticmethod
    def generator(g: Gen) -> "NCPoly":
        return _make({(g,): 1}, 1)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return _sum(self, other, 1)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return _sum(self, other, -1)

    def __neg__(self) -> "NCPoly":
        return _make({w: -c for w, c in self.num.items()}, self.den)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[tuple, int] = {}
        for w1, c1 in self.num.items():
            for w2, c2 in other.num.items():
                word = w1 + w2
                out[word] = out[word] + c1 * c2 if word in out else c1 * c2
        return _canonical({w: c for w, c in out.items() if c}, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "NCPoly":
        c = rat(c)
        if not c:
            return _make({}, 1)
        if c == 1:
            return self
        p = c.numerator
        return _canonical({w: p * x for w, x in self.num.items()}, self.den * c.denominator)

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.num), default=-1)

    def is_homogeneous(self, d: int | None = None) -> bool:
        lengths = {len(w) for w in self.num}
        if not lengths:
            return True
        if len(lengths) > 1:
            return False
        return d is None or lengths == {d}

    def generators(self) -> set:
        return {g for w in self.num for g in w}

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for word in sorted(terms, key=lambda w: (len(w), w)):
            c = terms[word]
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


def _make(num: dict, den: int) -> NCPoly:
    """Wrap numerators that are already canonical: no zeros, and den > 0
    without a factor common to all of them."""
    p = object.__new__(NCPoly)
    p.num = num
    p.den = den
    return p


def _canonical(num: dict, den: int) -> NCPoly:
    """Wrap numerators without zeros over a nonzero den, after dividing den
    and every numerator by their common factor, signed so that den > 0."""
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        num = {w: c // g for w, c in num.items()}
        den //= g
    return _make(num, den)


def _sum(a: NCPoly, b: NCPoly, sign: int) -> NCPoly:
    """a + sign * b, with the numerators of both brought to lcm(a.den, b.den)."""
    den = lcm(a.den, b.den)
    return _canonical(_combine(a.num, den // a.den, b.num, sign * (den // b.den)), den)


def _combine(a: dict, ma: int, b: dict, mb: int) -> dict:
    """ma * a + mb * b for word -> int maps and nonzero ints ma and mb,
    without zero entries."""
    out = dict(a) if ma == 1 else {w: ma * c for w, c in a.items()}
    for w, c in b.items():
        if w in out:
            v = out[w] + mb * c
            if v:
                out[w] = v
            else:
                del out[w]
        else:
            out[w] = mb * c
    return out


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


def matrix_generators(sym: str, n: int, m: int) -> tuple:
    """The generators sym[i,j] of an n x m matrix, row by row."""
    return tuple(Gen(sym, (i, j)) for i in range(1, n + 1) for j in range(1, m + 1))


def generator_matrix(sym: str, n: int, m: int | None = None) -> list:
    """The n x m matrix of generators sym[i,j]."""
    m = n if m is None else m
    gens = matrix_generators(sym, n, m)
    return [[NCPoly.generator(g) for g in gens[i * m:(i + 1) * m]] for i in range(n)]


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
    integer grid kernel ``_grid_times`` applies the sides, and each output
    entry keeps its integer sums over D times the sides' denominators.
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
    den = lcm(*(p.den for row in grid for p in row))
    ids: dict[tuple, int] = {}
    sums = []
    for row in grid:
        out_row = []
        for p in row:
            entry = {}
            m = den // p.den
            for w, c in p.num.items():
                i = ids.get(w)
                if i is None:
                    i = ids[w] = len(ids)
                entry[i] = c * m
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
    return _canonical({words[w]: c for w, c in entry.items() if c}, den)


def scalar_times_poly_mat(m, p) -> list:
    """The operator m (a QMatrix or a TensorOperator) times NCPoly matrix p."""
    return poly_grid_product(p, left=m)


def poly_mat_times_scalar(p, m) -> list:
    """NCPoly matrix p times the operator m (a QMatrix or a TensorOperator)."""
    return poly_grid_product(p, right=m)


def _entry_product(factors, num: int = 1, den: int = 1) -> NCPoly:
    """(num / den) * f_1 * f_2 * ... for NCPoly factors and nonzero ints num
    and den, multiplied directly.

    A single-term factor (a generator or a scalar entry) only extends the
    words and multiplies the integers num and den; a factor with several
    terms is expanded on its numerators, and its den joins den.  One gcd
    pass ends the product.
    """
    word, prod = (), None   # prod: word -> numerator over den, once needed
    for f in factors:
        t = f.num
        den *= f.den
        if len(t) == 1:
            (w, x), = t.items()
            num *= x
            if not w:
                continue
            if prod is None:
                word += w
            else:
                prod = {v + w: c for v, c in prod.items()}
            continue
        if not t:
            return _make({}, 1)
        if prod is None:
            prod = {word: 1}
        expanded = {}
        for v, c in prod.items():
            for w, b in t.items():
                vw = v + w
                expanded[vw] = expanded[vw] + c * b if vw in expanded else c * b
        prod = expanded
    if prod is None:
        return _canonical({word: num}, den)
    return _canonical({w: c * num for w, c in prod.items() if c}, den)


# --- text form ---------------------------------------------------------------

# The three rules of the text form, each taking the whitespace after it: a
# run of signs (which opens a term), a factor, and the '*' between factors.
_SIGNS = re.compile(r"[\s+-]*")
_FACTOR = re.compile(r"(?:(\d+(?:/\d+)?)|([A-Za-z_]\w*)\s*(?:\[([\d,\s]*)\]\s*)?"
                     r"(?:\^\s*(\d+))?)\s*")
_TIMES = re.compile(r"\*\s*")


def parse_poly(text: str) -> NCPoly:
    """Parse the textual form '2*M[1,1]*M[2,2] - 1/3*M[1,2]*M[2,1]'.

    Terms are joined by runs of '+' and '-', and the factors of a term by
    '*'.  A factor is a rational 'p' or 'p/q', or a name with an optional
    index list '[i,j,...]' and an optional power '^e' of a non-negative
    integer e.  Two factors side by side without '*' are bad input; blank
    text is zero.  Malformed text, a zero denominator and a word longer than
    ``word_budget()`` letters raise ValueError; the length is checked before
    the word is built.
    """
    budget = word_budget()
    if not text.strip():
        return NCPoly.zero()
    terms, pos = [], 0   # terms: [coefficient, word] in the order read
    while not terms or pos < len(text):
        joint = (terms and _TIMES.match(text, pos)) or _SIGNS.match(text, pos)
        if terms and joint.end() == pos:
            raise ValueError(f"expected '*', '+' or '-' at position {pos} in {text!r}")
        if joint.re is _SIGNS:
            terms.append([-ONE if joint.group().count("-") % 2 else ONE, []])
        pos = joint.end()
        factor = _FACTOR.match(text, pos)
        if not factor:
            raise ValueError(f"expected a number or a name at position {pos} in {text!r}")
        number, sym, idx, power = factor.groups()
        term = terms[-1]
        if number:
            term[0] *= rat(number)
        else:
            power = 1 if power is None else int(power)
            if len(term[1]) + power > budget:
                raise ValueError(f"word longer than the word budget {budget} (override "
                                 f"with MANIN_BUDGET) at position {pos} in {text!r}")
            term[1] += [Gen(sym, tuple(map(int, re.findall(r"\d+", idx or ""))))] * power
        pos = factor.end()
    return sum((NCPoly({tuple(word): c}) for c, word in terms), NCPoly.zero())


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
