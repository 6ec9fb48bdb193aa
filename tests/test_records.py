"""The package's records are plain classes on ``linalg.Record``.

They behave as frozen dataclasses would: fixed constructor signatures and
defaults, a fresh dict per instance for each dict default, validation on
construction, field-wise equality, hash and repr, assignment that raises
``AttributeError``, and copies and pickles that keep every field.
``ScenarioReport`` is mutable and ``IdealSlice`` compares by identity.  The
last test pins the reason for plain classes: importing the CLI loads
neither ``dataclasses`` nor the modules it pulls in.
"""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dense_reference as dense
from maninalg.idempotents import IdempotentSpec, antisymmetrizer, build, symmetrizer
from maninalg.ideals import IdealSlice
from maninalg.linalg import Record
from maninalg.manin import ManinPair, UniversalRelations
from maninalg.minors import MinorOperator
from maninalg.pairing import NotExists, PairingOperator
from maninalg.quadratic import QuadAlgebra
from maninalg.scenarios import ScenarioReport
from maninalg.tensor import TensorOperator

SRC = Path(__file__).resolve().parent.parent / "src"
A2, S2, A3 = antisymmetrizer(2), symmetrizer(2), antisymmetrizer(3)
PAIR = ManinPair(A2, A3)

# class -> (its field names in constructor order, one value per field)
RECORDS = {
    PairingOperator: (("kind", "arity", "source", "operator", "provenance"),
                      ("S", 2, A2, S2, "generic")),
    NotExists: (("kind", "arity", "reason", "details"),
                ("A", 3, "degenerate natural pairing", {"rank": 1})),
    ManinPair: (("A", "B"), (A2, A3)),
    UniversalRelations: (("pair", "symbol", "gens", "space"),
                         (PAIR, "M", ("m11", "m12"), A2.row_space())),
    MinorOperator: (("arity", "left", "right", "entries"), (2, A2, A2, ((),))),
    QuadAlgebra: (("idempotent", "variant"), (A2, "Xi")),
    IdealSlice: (("gens", "degree", "increments"), (("x", "y"), 2, ({0: {0: 1}},))),
    IdempotentSpec: (("family", "n", "params"), ("Aq", 2, {"q": "2/3"})),
    ScenarioReport: (("scenario", "data", "checks"), ("fourparam", {"x": 1}, {"ok": True})),
}
# the fields that have defaults, and the default each gives
DEFAULTS = {
    NotExists: {"details": {}},
    IdempotentSpec: {"n": 0, "params": {}},
    ScenarioReport: {"data": {}, "checks": {}},
}
MUTABLE = {ScenarioReport}
CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_signature_matches_the_fields_and_their_defaults(cls):
    names, _ = RECORDS[cls]
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    with_default = {name for name, p in params.items() if p.default is not p.empty}
    assert with_default == set(DEFAULTS.get(cls, {}))
    assert issubclass(cls, Record)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction_set_the_same_fields(cls):
    names, args = RECORDS[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for record in (by_position, by_keyword):
        assert all(got is want for got, want in zip(values(record, names), args))
    with pytest.raises(TypeError):
        cls(*args, "one too many")


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=[c.__name__ for c in DEFAULTS])
def test_defaults_are_fresh_per_instance(cls):
    names, args = RECORDS[cls]
    required = len(names) - len(DEFAULTS[cls])
    first, second = cls(*args[:required]), cls(*args[:required])
    for name, default in DEFAULTS[cls].items():
        assert getattr(first, name) == default
        if isinstance(default, dict):
            getattr(first, name)["written"] = True
            assert getattr(second, name) == default
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_raises_unless_the_record_is_mutable(cls):
    names, args = RECORDS[cls]
    record = cls(*args)
    for name in names:
        if cls in MUTABLE:
            setattr(record, name, "replaced")
            assert getattr(record, name) == "replaced"
            continue
        with pytest.raises(AttributeError):
            setattr(record, name, "replaced")
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is args[names.index(name)]
    if cls in MUTABLE:
        with pytest.raises(TypeError):  # unhashable even with hashable fields
            hash(record)
    else:
        with pytest.raises(AttributeError):
            record.not_a_field = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_hash_and_repr_go_field_by_field(cls):
    names, args = RECORDS[cls]
    record, twin = cls(*args), cls(*args)
    if cls is IdealSlice:
        assert record != twin and record == record
        assert hash(record) == object.__hash__(record)
    else:
        assert record == twin and not record != twin
        assert record != args and record.__eq__(args) is NotImplemented
        if cls in MUTABLE or any(isinstance(v, dict) for v in args):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
    assert repr(record) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copy_and_pickle_keep_every_field(cls):
    names, args = RECORDS[cls]
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert values(clone, names) == args


def test_pairing_operator_refuses_a_bad_kind():
    with pytest.raises(ValueError, match="kind must be"):
        PairingOperator("B", 2, A2, A2, "generic")


def test_quad_algebra_refuses_a_bad_variant_or_arity():
    with pytest.raises(ValueError, match="variant must be"):
        QuadAlgebra(A2, "Y")
    with pytest.raises(ValueError, match="arity-2 square"):
        QuadAlgebra(TensorOperator.identity(2, 3), "X")


def test_manin_pair_refuses_a_non_idempotent_and_keeps_the_complement_out():
    with pytest.raises(ValueError, match="idempotents"):
        ManinPair(A2, A3.scale(2))
    with pytest.raises(ValueError, match="arity-2 square"):
        ManinPair(A2, TensorOperator.identity(2, 3))
    pair = ManinPair(A2, A3)
    assert pair.complement == TensorOperator.identity(3, 2) - A3
    assert pair == ManinPair(A2, A3) and hash(pair) == hash(ManinPair(A2, A3))
    assert "complement" not in repr(pair)
    with pytest.raises(AttributeError):
        pair.complement = A3


def test_not_exists_is_falsy():
    assert not NotExists("S", 2, "dimension mismatch")
    assert not NotExists("A", 3, "degenerate natural pairing", {"rank": 1})


def test_idempotent_spec_round_trips_json_and_compares_equal():
    spec = IdempotentSpec("Aq", 2, {"q": "2/3"})
    rebuilt = IdempotentSpec.from_json(json.loads(json.dumps(dense.spec_to_json(spec))))
    assert rebuilt == spec and rebuilt is not spec
    assert rebuilt != IdempotentSpec("Aq", 2, {"q": "3/2"})
    assert build(rebuilt) == build(spec)
    bare = IdempotentSpec("A_n", 2)
    assert IdempotentSpec.from_json(dense.spec_to_json(bare)) == bare


def test_ideal_slice_builds_its_echelon_once_on_first_use():
    piece = QuadAlgebra(A2, "X").presentation().slice(3)
    assert "echelon" not in vars(piece)
    echelon = piece.echelon
    assert piece.echelon is echelon and vars(piece)["echelon"] is echelon
    assert len(echelon.leads) == piece.dim


def test_importing_the_cli_loads_no_dataclasses():
    """Start-up stays cheap: ``dataclasses`` imports ``inspect``, which
    imports ``ast`` and ``dis``, all before any computation starts; a
    ``typing.NamedTuple`` would import ``typing`` and ``contextlib``."""
    heavy = ["ast", "contextlib", "dataclasses", "dis", "inspect", "typing"]
    code = ("import json, sys, maninalg.cli; "
            f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
