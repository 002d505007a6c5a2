"""Value semantics of the package's immutable records (signature.Record):
field-wise equality and hashing within one class, refused assignment, the
constructor's normalization and validation, a wrong number of values
refused, and the derived slots.  No check here is an ``assert`` inside the
package, so they hold under ``python -O`` too."""

import copy
import pickle

import pytest
from reference_weights import AffineWeylElement

from crystalpaths.bosonic import AlternatingSumResult
from crystalpaths.energy import LocalIsoTable
from crystalpaths.kostka import CrystalSpec
from crystalpaths.laurent import LaurentPoly
from crystalpaths.paths import Path
from crystalpaths.signature import Record
from crystalpaths.straighten import SchurSymbol
from crystalpaths.tableaux import RectCrystal, RectShape, Tableau
from crystalpaths.weights import LevelWeight

S11, S12 = RectShape(1, 1), RectShape(1, 2)
T1, T2 = Tableau(2, ((1,),)), Tableau(2, ((2,),))


# class -> (constructor arguments, the same value spelled with lists where
# the constructor normalizes, a different value, arguments that must fail)
CASES = {
    AlternatingSumResult: (
        (LaurentPoly({0: 1, 2: -1}), 3, 2),
        (LaurentPoly({0: 1, 2: -1}), 3, 2),
        (LaurentPoly({0: 1, 2: -1}), 3, 3),
        [],
    ),
    CrystalSpec: (
        (2, (S11, S11), 1, LevelWeight(1, (0, 0)), None, S11),
        (2, [[1, 1], (1, 1)], 1, LevelWeight(1, [0, 0]), None, [1, 1]),
        (2, (S11, S11), 1, LevelWeight(1, (0, 0)), LevelWeight(1, (1, 0)), S11),
        [(1, ()), (2, (S12,), 1), (2, (S12,), 0), (2, (), 1, LevelWeight(1, (0, 1))), (2, (), None, None, None, S11)],
    ),
    Path: (
        (2, (T1, T2)),
        (2, [T1, T2]),
        (2, (T2, T1)),
        [(3, (T1,))],
    ),
    SchurSymbol: (
        ((1, 0, -1), 2, -1, 3),
        ([1, 0, -1], 2, -1, 3),
        ((1, 0, -1), 2, 1, 3),
        [((1,), 1), ((1, 0), 0), ((1, 0), 1, 0)],
    ),
    Tableau: (
        (3, ((1, 2), (2, 3))),
        (3, [[1, 2], [2, 3]]),
        (3, ((1, 1), (2, 3))),
        [(1, ((1,),)), (3, ()), (3, ((),)), (3, ((1, 2), (2,))), (2, ((1,), (2,))),
         (2, ((3,),)), (3, ((2, 1),)), (3, ((1, 2), (1, 3)))],
    ),
    LevelWeight: (
        (2, (1, 0, 0), 3),
        (2, [1, 0, 0], 3),
        (2, (1, 0, 0), 0),
        [(1, (0,))],
    ),
    AffineWeylElement: (
        ((1, -1), (2, 1)),
        ((1, -1), (2, 1)),
        ((0, 0), (2, 1)),
        [((1, -1), (1, 2, 3)), ((1, 0), (1, 2)), ((0, 0), (1, 1))],
    ),
}

CLASSES = list(CASES)


def twin(record, values=None):
    """An instance of another Record class with the same fields, built by the
    base constructor from the given values, by default the record's."""

    class Twin(Record):
        __slots__ = _fields = record._fields

    return Twin(*(record._values(record) if values is None else values))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_are_by_fields(cls):
    args, spelled, other, _ = CASES[cls]
    a, b, c = cls(*args), cls(*spelled), cls(*other)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2
    values = tuple(getattr(a, name) for name in cls._fields)
    assert hash(a) == hash(values)  # as a frozen dataclass hashes
    assert a != values and values != a
    assert a != twin(a) and twin(a) != a
    assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (name, getattr(a, name)) for name in cls._fields))
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert clone(a) == a  # rebuilt through the constructor
        if cls is AlternatingSumResult:  # a record holding a LaurentPoly
            poly = a.polynomial
            assert clone(poly) == poly and clone(poly).pairs() == poly.pairs()
            assert clone(a).polynomial == poly and hash(clone(poly)) == hash(poly)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    record = cls(*CASES[cls][0])
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*CASES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_wrong_number_of_values_is_refused(cls):
    """Too few or too many positional values never build a record, whether
    the class keeps a constructor of its own or uses the base's."""
    args = CASES[cls][0]
    record = cls(*args)
    for wrong in ((), args[:1], args + (None,)):
        with pytest.raises((TypeError, ValueError)):
            cls(*wrong)
    values = record._values(record)
    for wrong in ((), values[:-1], values + (None,)):
        with pytest.raises(ValueError):
            twin(record, wrong)
    same = twin(record, values)
    assert same._values(same) == values


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_validation_errors(cls):
    for args in CASES[cls][3]:
        with pytest.raises(ValueError):
            cls(*args)


def test_defaults_and_derived_slots():
    assert LevelWeight(1, (0, 0)).delta == 0
    assert SchurSymbol((0, 0), 1) == SchurSymbol((0, 0), 1, 1, 0)
    assert CrystalSpec(2, ()) == CrystalSpec(2, (), None, None, None, None)
    assert Tableau(3, ((1, 2), (2, 3))).shape == RectShape(2, 2)
    assert Tableau(4, ((1,), (2,), (4,))).shape == RectShape(3, 1)
    LocalIsoTable.cache_clear()
    table = LocalIsoTable(3, S12, S11)
    assert table.width == len(RectCrystal(3, S11).elements) == 3
    assert table.shape2 == S12 and type(LocalIsoTable(3, (1, 2), (1, 1)).shape2) is RectShape
    assert table.energy == table.image1 == table.image2 == [None] * (len(RectCrystal(3, S12).elements) * 3)
    assert table.fill(0) == 0 and table.energy[0] == 0  # 1,1 (x) 1 is the highest pair
