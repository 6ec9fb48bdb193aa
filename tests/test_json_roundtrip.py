"""JSON round trips of idempotent specs and of serialized operators.

Specs are drawn over every catalog family at small n, with parameters in
the form a JSON document holds them (rationals as strings, integers as
numbers).  Reading back what was written must give the same spec or the
same operator, and writing it again the same JSON text.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from maninalg import idempotents as idem
from maninalg.cli import operator_from_json, operator_to_json
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
    written = json.dumps(spec.to_json())
    rebuilt = idem.IdempotentSpec.from_json(json.loads(written))
    assert rebuilt == spec
    assert json.dumps(rebuilt.to_json()) == written


@settings(max_examples=80, deadline=None)
@given(specs())
def test_operator_json_roundtrip_is_the_identity(spec):
    op = idem.build(spec)
    doc = operator_to_json(spec.family, op)
    written = json.dumps(doc)
    rebuilt = operator_from_json(json.loads(written))
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
        doc = spec.to_json()
        rebuilt = idem.IdempotentSpec.from_json(json.loads(json.dumps(doc)))
        assert idem.build(rebuilt) == idem.build(spec)
        assert rebuilt.to_json() == doc
