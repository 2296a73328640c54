"""The record contract: equality by class and fields, frozen records hash
and refuse assignment, mutable ones are unhashable, and reprs read
``Name(field=value, ...)``."""

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import mcmlike
from mcmlike.arith import ConditionReport, CycleCondition, PoleData, TransitionMatrix
from mcmlike.dynamics import (
    ComplexPoly,
    ConvergedToCycle,
    Escaped,
    OrbitRecord,
    RationalMapExpr,
    Undecided,
    _evaluator,
    simple_poles_map,
)
from mcmlike.model import CriticalAssignment, CycleSpec, HpcfpModel, NormalizedType
from mcmlike.model_io import FamilySpec, ModelFile, VerifyParams
from mcmlike.record import FrozenRecord, Record
from mcmlike.render import ClassGrid, RadialProfile, RenderSpec
from mcmlike.skew import BuriedPreperiodic, BuriedWandering, CodeWord, SkewCensus, SkewState, Unburied
from mcmlike.surgery import LevelPlan, SurgeryConstants
from mcmlike.verify import (
    ConvergesToBoundedCycle,
    CriticalCensus,
    CriticalOrbitEntry,
    CriticalOrbitReport,
    EscapesViaTrapDoor,
    InBasinOfInfinityDirectly,
    UntouchedCycleCheck,
    VerificationVerdict,
)

SQUARE = ComplexPoly([0, 0, 1])

# One instance of every record class; the frozen ones hold hashable values.
SAMPLES = [
    PoleData((((1, 0), 2),)),
    CycleCondition(1, Fraction(3, 4), True, (0,)),
    ConditionReport((), True),
    TransitionMatrix(1, ((Fraction(1, 2),),)),
    SQUARE,
    simple_poles_map(SQUARE, [(0j, 1, 1e-3)]),
    Escaped(3, 1 + 0j, 0.5j, 0, 0.25),
    ConvergedToCycle(2, 0j, 20),
    Undecided(),
    OrbitRecord((0j,), Undecided()),
    CycleSpec(1, (2, 2), (0j, 1 + 0j), 0.0),
    CriticalAssignment(0j, 1, 1, 0, 0),
    HpcfpModel(2, (), (), ()),
    NormalizedType((1 + 0j,), ((1, (2,)),), ()),
    FamilySpec("simple_poles", ((1e-3 + 0j, ((0j, 1),)),)),
    VerifyParams(),
    ModelFile(polynomial=SQUARE),
    RenderSpec(SQUARE, 4, 4),
    ClassGrid((0,), (0,), (-1,), (-1,)),
    RadialProfile((0.5,), (0,), (0,), 0),
    SurgeryConstants(1, (0,), (), Fraction(3, 4), (), (), (2,), ()),
    LevelPlan((), (), 0.5, True, True, True),
    CodeWord((1, 0)),
    SkewState(CodeWord((1,)), 0.25),
    Unburied(3),
    BuriedPreperiodic(0, 1),
    BuriedWandering(),
    SkewCensus(1, 2, 1),
    CriticalCensus((), (), 1, 2),
    InBasinOfInfinityDirectly(),
    EscapesViaTrapDoor(0, 0.05),
    ConvergesToBoundedCycle(3),
    CriticalOrbitEntry(0j, 1, None, None, True, None),
    CriticalOrbitReport((), ()),
    UntouchedCycleCheck(1, 1, None, None, False),
    VerificationVerdict(True, ConditionReport((), True), None, None, (), ()),
]
IDS = [type(r).__name__ for r in SAMPLES]


def _fields(rec):
    return tuple(getattr(rec, name) for name in type(rec).__slots__)


def test_samples_cover_every_record_class_in_src():
    found = set()
    for info in pkgutil.iter_modules(mcmlike.__path__):
        module = importlib.import_module(f"mcmlike.{info.name}")
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
            and not obj.__name__.startswith("_") and obj not in (Record, FrozenRecord)
        }
    assert found == {type(r) for r in SAMPLES}
    assert len(SAMPLES) == 36


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_equality_needs_the_same_class_and_fields(rec):
    cls = type(rec)
    twin = pickle.loads(pickle.dumps(rec))
    assert type(twin) is cls and twin == rec and not twin != rec
    assert rec != _fields(rec) and rec != () and rec != list(_fields(rec))
    lookalike = object.__new__(type("Lookalike", (cls.__base__,), {"__slots__": cls.__slots__}))
    for name, value in zip(cls.__slots__, _fields(rec)):
        object.__setattr__(lookalike, name, value)
    assert _fields(lookalike) == _fields(rec)
    assert rec != lookalike and lookalike != rec
    for other in SAMPLES:
        if type(other) is not cls:
            assert rec != other


def test_fieldless_records_differ_from_each_other():
    empty = [Undecided(), BuriedWandering(), InBasinOfInfinityDirectly()]
    for i, a in enumerate(empty):
        for j, b in enumerate(empty):
            assert (a == b) == (i == j)
    assert Undecided() == Undecided() and BuriedWandering() == BuriedWandering()


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_frozen_records_refuse_assignment_and_hash_by_value(rec):
    cls = type(rec)
    if not isinstance(rec, FrozenRecord):
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        for name, value in zip(cls.__slots__, _fields(rec)):
            setattr(rec, name, "new")
            assert getattr(rec, name) == "new"
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            rec.not_a_field = 1
        return
    before = _fields(rec)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=name):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(rec, name)
    assert _fields(rec) == before
    twin = pickle.loads(pickle.dumps(rec))
    assert twin is not rec and hash(twin) == hash(rec)
    assert {rec: 1}[twin] == 1


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_repr_names_the_class_and_each_field(rec):
    cls = type(rec)
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in cls.__slots__)
    assert repr(rec) == f"{cls.__qualname__}({fields})"


def test_repr_matches_the_dataclass_form():
    assert repr(Unburied(3)) == "Unburied(hit_time=3)"
    assert repr(Undecided()) == "Undecided()"
    assert repr(ComplexPoly([1, 2])) == "ComplexPoly(coeffs=((1+0j), (2+0j)))"
    assert repr(VerifyParams()) == "VerifyParams(max_iter=2000, pole_ball=0.1)"


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_constructor_takes_the_fields_in_slots_order(rec):
    cls = type(rec)
    assert cls(*_fields(rec)) == rec
    assert cls(**dict(zip(cls.__slots__, _fields(rec)))) == rec
    with pytest.raises(TypeError):
        cls(*_fields(rec), None)


def test_defaults_and_checks_survive():
    assert ModelFile().params == {} and ModelFile().params is not ModelFile().params
    assert VerifyParams() == VerifyParams(2000, 0.1)
    assert ComplexPoly([1, 2, 0, 0]).coeffs == (1 + 0j, 2 + 0j)
    assert SkewState(CodeWord((1,)), 1.25).angle == 0.25
    with pytest.raises(ValueError):
        CodeWord((2,))
    with pytest.raises(ValueError):
        RenderSpec(SQUARE, 0, 4)


@pytest.mark.parametrize("m", [SQUARE, simple_poles_map(ComplexPoly([0.25, 0, 1]), [(0j, 2, 1e-3)])],
                         ids=["ComplexPoly", "RationalMapExpr"])
def test_maps_pickle_without_what_they_derive(m):
    _evaluator(m)
    m.base.derivative()
    assert "_evaluator" in vars(m) and "_derivative" in vars(m.base)
    back = pickle.loads(pickle.dumps(m))
    assert back == m and vars(back) == {} and vars(back.base) == {}
    assert isinstance(back, (ComplexPoly, RationalMapExpr))
