"""lvdiag's eleven record classes against the standard library.

Each class is compared with a ``@dataclasses.dataclass(frozen=True)`` twin
built from its own name, annotations, defaults and ``__post_init__``: the two
must agree on every outcome, a value or an exception's type and message, of
construction, ``repr``, ``==``, ``hash``, ``dataclasses`` introspection,
``replace``, pickling and assignment.  ``==`` is the tuple comparison of
Python 3.10 to 3.12's dataclasses, which an array field makes raise.
"""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from lvdiag import (
    AgreementReport,
    DiagnosticsReport,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    PopulationState,
    SegmentCrossing,
    SeriesSolution,
    Trajectory,
)
from lvdiag._record import record
from lvdiag.integrate import DenseSolution, IntegratorStats

NAN = float("nan")
GRID = np.array([0.0, 0.5, 1.0])
STATS = IntegratorStats(12, 3, 1, 91)
CROSSING = SegmentCrossing(1, 5, (0.5, 0.25))

# Per class: two valid argument tuples that differ in their first field (the
# second repeats the first's other objects) and keyword changes that
# ``__post_init__`` rejects.
EXAMPLES = {
    ModelParams: ((1.0, 0.5, 0.1, 2.0), (3, 0.5, 0.1, 2.0), [{"a": 0.0}, {"d": -1.0}, {"c": NAN}]),
    PopulationState: ((3.0, 2.0), (0, 2.0), [{"x": -1.0}, {"y": float("inf")}]),
    InitialValueProblem: (
        (ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(3.0, 2.0), 10.0),
        (ModelParams(1.0, 1.0, 0.1, 1.0), PopulationState(3.0, 2.0), 10.0),
        [{"t_end": -1.0}, {"t_end": 0.0}, {"t_end": NAN}],
    ),
    SeriesSolution: (
        (np.array([3.0, 1.0]), np.array([2.0])),
        (np.array([3.0, 2.0]), np.array([2.0])),
        [{"x_coeffs": []}, {"y_coeffs": np.ones((2, 2))}],
    ),
    Trajectory: (
        (GRID, np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 0.5])),
        (GRID * 2.0, np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 0.5])),
        [{"t": []}, {"t": GRID[::-1]}, {"x": np.array([1.0, NAN, 3.0])}, {"y": np.ones(2)}],
    ),
    IntegratorConfig: ((1e-8, 1e-9), (1e-6, 1e-9), [{"rel_tol": 1.0}, {"abs_tol": 0.0}, {"rel_tol": NAN}]),
    IntegratorStats: ((12, 3, 1, 91), (13, 3, 1, 91), []),
    DenseSolution: (
        (GRID, np.zeros((3, 2)), np.zeros((2, 2, 4)), np.ones((3, 2)), 7.6, STATS),
        (GRID[:2], np.zeros((3, 2)), np.zeros((2, 2, 4)), np.ones((3, 2)), 7.6, STATS),
        [],
    ),
    AgreementReport: ((1e-16, NAN), (0.0, NAN), []),
    SegmentCrossing: ((1, 5, (0.5, 0.25)), (2, 5, (0.5, 0.25)), []),
    DiagnosticsReport: (
        (MethodKind.TAYLOR, 5, 1.25, 1e-3, 1e-12, CROSSING, False, True, 7.6, 0),
        (MethodKind.VIM, 5, 1.25, 1e-3, 1e-12, CROSSING, False, True, 7.6, 0),
        [],
    ),
}
CLASSES = list(EXAMPLES)


def _twin(cls):
    """The standard library's frozen dataclass with ``cls``'s name, fields and ``__post_init__``."""
    namespace = {
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
        "__doc__": cls.__doc__,
        "__annotations__": dict(cls.__annotations__),
    }
    namespace.update({f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING})
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


TWINS = {cls: _twin(cls) for cls in CLASSES}


def _outcome(call):
    """What ``call()`` gives: ("value", its repr) or (exception type, message)."""
    try:
        return "value", repr(call())
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)


def _both(cls, action):
    """``action`` applied to ``cls`` and to its twin, as two outcomes."""
    return _outcome(lambda: action(cls)), _outcome(lambda: action(TWINS[cls]))


def _field_specs(cls):
    return [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only, dict(f.metadata))
        for f in dataclasses.fields(cls)
    ]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_introspection_is_the_dataclasses(cls):
    twin = TWINS[cls]
    assert _field_specs(cls) == _field_specs(twin)
    assert cls.__match_args__ == twin.__match_args__
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(cls(*EXAMPLES[cls][0]))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_eq_and_hash_are_the_dataclasses(cls):
    first, second, _ = EXAMPLES[cls]
    for left, right in [(first, first), (first, second), (second, first)]:
        ours, theirs = _both(cls, lambda c: (c(*left) == c(*right), c(*left) != c(*right)))
        assert ours == theirs
    same = cls(*first)
    twin_same = TWINS[cls](*first)
    for ours, theirs in [
        (_outcome(lambda: repr(same)), _outcome(lambda: repr(twin_same))),
        (_outcome(lambda: same == same), _outcome(lambda: twin_same == twin_same)),
        (_outcome(lambda: hash(same)), _outcome(lambda: hash(twin_same))),
        (_outcome(lambda: same == twin_same), _outcome(lambda: twin_same == same)),
    ]:
        assert ours == theirs


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_replace_and_pickle_keep_the_record(cls):
    first, second, _ = EXAMPLES[cls]
    name = dataclasses.fields(cls)[0].name
    ours, theirs = _both(cls, lambda c: dataclasses.replace(c(*first), **{name: second[0]}))
    assert ours == theirs == ("value", repr(cls(*second)))
    record = cls(*first)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls
        assert repr(copy) == repr(record)
        assert list(vars(copy)) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_as_for_dataclasses(cls):
    first = EXAMPLES[cls][0]
    name = dataclasses.fields(cls)[-1].name
    for attr in (name, "other"):
        ours, theirs = _both(cls, lambda c: setattr(c(*first), attr, 0))
        assert ours == theirs and ours[0] is dataclasses.FrozenInstanceError
        ours, theirs = _both(cls, lambda c: delattr(c(*first), attr))
        assert ours == theirs and ours[0] is dataclasses.FrozenInstanceError


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_bad_arguments_raise_the_dataclasses_type_errors(cls):
    args = EXAMPLES[cls][0]
    names = [f.name for f in dataclasses.fields(cls)]
    calls = [
        lambda c: c(),
        lambda c: c(*args[:1]),
        lambda c: c(*args[:-1]),
        lambda c: c(*args[:-2], **{names[-1]: args[-1]}),
        lambda c: c(*args, 0),
        lambda c: c(*args, 0, 1),
        lambda c: c(*args, other=0),
        lambda c: c(*args[1:], **{names[0]: args[0]}, other=0),
        lambda c: c(*args, **{names[0]: args[0]}),
        lambda c: c(*args, self=0),
        lambda c: c(**dict(zip(names, args))),
        lambda c: c(*args[:1], **dict(zip(names[1:], args[1:]))),
    ]
    outcomes = [_both(cls, call) for call in calls]
    assert [ours for ours, _ in outcomes] == [theirs for _, theirs in outcomes]
    assert {ours[0] for ours, _ in outcomes} == {"value", TypeError}


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if EXAMPLES[cls][2]], ids=lambda cls: cls.__name__)
def test_validation_errors_match_on_construction_and_replace(cls):
    first, _, changes = EXAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    for change in changes:
        built = _both(cls, lambda c: c(**{**dict(zip(names, first)), **change}))
        replaced = _both(cls, lambda c: dataclasses.replace(c(*first), **change))
        assert built[0] == built[1] == replaced[0] == replaced[1]
        assert issubclass(built[0][0], ValueError), change


def test_a_record_class_needs_a_docstring():
    """Without one, ``dataclasses`` would write ``__doc__`` from a signature that has no fields yet."""
    with pytest.raises(TypeError, match="Bare needs a docstring"):
        record(type("Bare", (), {"__annotations__": {"x": "float"}}))
