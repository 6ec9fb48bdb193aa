"""JSON round trips of idempotent specs and of serialized operators.

Specs are drawn over every catalog family at small n, with parameters in
the form a JSON document holds them (rationals as strings, integers as
numbers).  Reading back what was written must give the same spec or the
same operator, and writing it again the same JSON text.  The library reads
specs and does not write them, so specs are written by the test-side
``dense_reference.spec_to_json``.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg import idempotents as idem
from maninalg.cli import operator_to_json
from maninalg.linalg import format_rat

nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
generic_q = nonzero.filter(lambda q: q not in (1, -1))


def text(x) -> str:
    return format_rat(Fraction(x))


@st.composite
def parameter_matrix(draw, n):
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(nonzero)
            rows[j][i] = 1 / rows[i][j]
    return [[text(x) for x in row] for row in rows]


@st.composite
def lie_params(draw):
    dim = draw(st.integers(1, 3))
    rows = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in draw(st.sets(st.integers(1, dim), max_size=2)):
                c = draw(nonzero)
                rows += [[i, j, k, text(c)], [j, i, k, text(-c)]]
    return dim + 1, {"dim": dim, "brackets": rows}


@st.composite
def specs(draw):
    family = draw(st.sampled_from(idem.FAMILIES))
    if family in ("A_n", "S_n", "P_n", "B_n"):
        return idem.IdempotentSpec(family, draw(st.integers(1, 3)), {})
    if family == "Btilde_n":
        return idem.IdempotentSpec(family, draw(st.sampled_from([2, 4])), {})
    if family in ("Aq", "Pq", "RhatPlus", "RhatMinus"):
        return idem.IdempotentSpec(family, draw(st.integers(1, 3)),
                                   {"q": text(draw(generic_q))})
    if family in ("Aqhat", "Atilde_qhat"):
        n = draw(st.integers(1, 3))
        return idem.IdempotentSpec(family, n, {"qhat": draw(parameter_matrix(n))})
    if family == "FourParam":
        params = {key: text(draw(nonzero)) for key in ("a", "b", "c")}
        params["kappa"] = text(draw(st.fractions(-2, 2, max_denominator=2)))
        return idem.IdempotentSpec(family, 3, params)
    if family == "Lie":
        n, params = draw(lie_params())
        return idem.IdempotentSpec(family, n, params)
    n = draw(st.integers(1, 2))
    entries = st.fractions(-3, 3, max_denominator=3).map(text)
    grid = draw(st.lists(st.lists(entries, min_size=n * n, max_size=n * n),
                         min_size=n * n, max_size=n * n))
    return idem.IdempotentSpec("Custom", n, {"matrix": grid})


@settings(max_examples=80, deadline=None)
@given(specs())
def test_spec_json_roundtrip_is_the_identity(spec):
    written = json.dumps(dense.spec_to_json(spec))
    rebuilt = idem.IdempotentSpec.from_json(json.loads(written))
    assert rebuilt == spec
    assert json.dumps(dense.spec_to_json(rebuilt)) == written


@settings(max_examples=80, deadline=None)
@given(specs())
def test_operator_json_roundtrip_is_the_identity(spec):
    op = idem.build(spec)
    doc = operator_to_json(spec.family, op)
    written = json.dumps(doc)
    # read back as a Custom spec, the one way the CLI takes a written matrix
    rebuilt = idem.build(idem.IdempotentSpec("Custom", 0,
                                             {"matrix": json.loads(written)["matrix"]}))
    assert rebuilt == op
    assert json.dumps(operator_to_json(spec.family, rebuilt)) == written


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), generic_q, st.data())
def test_rational_parameters_serialize_as_strings(n, q, data):
    # a spec built in code holds Fractions; its JSON form rebuilds the same
    # operator and is a fixed point from then on
    qhat = [[Fraction(x) for x in row] for row in data.draw(parameter_matrix(n))]
    for spec in (idem.IdempotentSpec("RhatMinus", n, {"q": q}),
                 idem.IdempotentSpec("Aqhat", n, {"qhat": qhat})):
        doc = dense.spec_to_json(spec)
        rebuilt = idem.IdempotentSpec.from_json(json.loads(json.dumps(doc)))
        assert idem.build(rebuilt) == idem.build(spec)
        assert dense.spec_to_json(rebuilt) == doc


@st.composite
def specs_holding_fractions(draw):
    """Custom and Lie specs as code builds them: Fraction matrix entries and
    Fraction bracket coefficients, nested inside lists."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 2))
        entries = st.fractions(-3, 3, max_denominator=3)
        grid = draw(st.lists(st.lists(entries, min_size=n * n, max_size=n * n),
                             min_size=n * n, max_size=n * n))
        return idem.IdempotentSpec("Custom", n, {"matrix": grid})
    n, params = draw(lie_params())
    brackets = [[i, j, k, Fraction(c)] for i, j, k, c in params["brackets"]]
    return idem.IdempotentSpec("Lie", n, {"dim": params["dim"], "brackets": brackets})


@settings(max_examples=60, deadline=None)
@given(specs_holding_fractions())
def test_nested_fractions_serialize_as_strings(spec):
    doc = dense.spec_to_json(spec)
    rebuilt = idem.IdempotentSpec.from_json(json.loads(json.dumps(doc)))
    assert idem.build(rebuilt) == idem.build(spec)
    assert dense.spec_to_json(rebuilt) == doc
